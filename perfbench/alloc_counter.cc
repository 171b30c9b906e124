// Counting replacements for every form of the global operator new, and the
// matching operator deletes (which must agree on the allocator: malloc/free).

#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t tls_allocs = 0;

void* Allocate(std::size_t n) {
  ++tls_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  ++tls_allocs;
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

namespace perfbench {

uint64_t AllocCount() { return tls_allocs; }

}  // namespace perfbench

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++tls_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++tls_allocs;
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
