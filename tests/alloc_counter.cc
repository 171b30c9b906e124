// Counting replacements for every form of the global operator new, and the
// matching operator deletes (which must agree on the allocator:
// malloc/free). See alloc_counter.h.

#include "tests/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t tls_calls = 0;
thread_local uint64_t tls_bytes = 0;

void Count(std::size_t n) {
  ++tls_calls;
  tls_bytes += n;
}

void* CountedAlloc(std::size_t n) {
  Count(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  Count(n);
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(align);
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace xenic {

uint64_t OperatorNewCalls() { return tls_calls; }
uint64_t OperatorNewBytes() { return tls_bytes; }

}  // namespace xenic

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
