// A counting global operator new for allocation tests. A test executable
// that compiles alloc_counter.cc replaces every form of operator new (and
// the matching operator deletes) with one that counts its calls and the
// bytes they ask for on the calling thread.

#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace xenic {

// Operator new calls this thread has made so far.
uint64_t OperatorNewCalls();
// Bytes those calls asked for (frees are not subtracted).
uint64_t OperatorNewBytes();

}  // namespace xenic

#endif  // TESTS_ALLOC_COUNTER_H_
