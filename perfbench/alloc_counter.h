// Heap-allocation counter. alloc_counter.cc replaces the global operator
// new of the executable it is linked into with one that bumps a per-thread
// counter before forwarding to malloc. The benchmark is single-threaded, so
// the calling thread's count is the run's count.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

// operator new calls (all forms) made by the calling thread so far.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
