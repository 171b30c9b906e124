// A counting global operator new for allocation tests. A test executable
// that compiles alloc_counter.cc replaces every form of operator new (and
// the matching operator deletes) with one that counts its calls on the
// calling thread.

#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace xenic {

// Operator new calls this thread has made so far.
uint64_t OperatorNewCalls();

}  // namespace xenic

#endif  // TESTS_ALLOC_COUNTER_H_
