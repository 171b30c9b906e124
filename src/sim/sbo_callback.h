// Small-buffer-optimized, move-only callables for simulation events.
//
// The engine hot path schedules and executes millions of short-lived
// callbacks; std::function heap-allocates for captures beyond ~2 words and
// requires copyability. SmallFunction<R(Args...)> stores captures up to
// kInlineSize bytes inline (no allocation), falls back to the heap for
// larger captures, and accepts move-only captures (unique_ptr, other
// SmallFunctions, ...). SmallCallback is the engine's event type.

#ifndef SRC_SIM_SBO_CALLBACK_H_
#define SRC_SIM_SBO_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace xenic::sim {

template <typename Signature>
class SmallFunction;

template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  // Covers two shared_ptrs + a handful of scalars without allocating.
  static constexpr size_t kInlineSize = 48;

  SmallFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t)) {
      if constexpr (std::is_trivially_copyable_v<Fn>) {
        ClearUnused<std::is_empty_v<Fn> ? 0 : sizeof(Fn)>();
      }
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ClearUnused<sizeof(Fn*)>();
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      Relocate(other);
    }
  }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      if (other.ops_ != nullptr) {
        Relocate(other);
      }
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct *dst from *src, then destroy *src; both point at raw
    // kInlineSize storage. nullptr means "memcpy the storage" -- correct
    // for trivially copyable inline captures and for heap mode (where the
    // storage holds only the Fn pointer), and avoids an indirect call on
    // the engine's event-move hot path.
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr means trivially destructible: destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
  };

  // Zero the storage past the first `used` bytes, which the target fills
  // (an empty capture fills none), so that Relocate's fixed-size memcpy
  // copies no indeterminate byte.
  template <size_t used>
  void ClearUnused() noexcept {
    if constexpr (used < kInlineSize) {
      std::memset(storage_ + used, 0, kInlineSize - used);
    }
  }

  // Steal other's target. Precondition: other.ops_ != nullptr and *this is
  // empty (default-constructed or just Reset).
  void Relocate(SmallFunction& other) noexcept {
    if (other.ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else {
      other.ops_->relocate(storage_, other.storage_);
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  template <typename Fn>
  struct InlineOps {
    static R Invoke(void* s, Args&&... args) {
      return (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) noexcept {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); }
    static constexpr Ops ops{&Invoke,
                             std::is_trivially_copyable_v<Fn> ? nullptr : &Relocate,
                             std::is_trivially_destructible_v<Fn> ? nullptr : &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(void* s) { return *std::launder(reinterpret_cast<Fn**>(s)); }
    static R Invoke(void* s, Args&&... args) {
      return (*Ptr(s))(std::forward<Args>(args)...);
    }
    static void Destroy(void* s) noexcept { delete Ptr(s); }
    // Relocation is the storage memcpy (moves the owning pointer).
    static constexpr Ops ops{&Invoke, nullptr, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

using SmallCallback = SmallFunction<void()>;

}  // namespace xenic::sim

#endif  // SRC_SIM_SBO_CALLBACK_H_
