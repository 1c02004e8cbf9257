// Small-buffer callback for the per-event hot path. std::function
// heap-allocates any capture larger than its ~16-byte SSO, which made every
// scheduled pipeline op an allocation. SmallCallback keeps the capture in a
// 64-byte inline buffer beside one invoke pointer, and its constructor admits
// only callables that can live there as plain bytes: trivially copyable,
// trivially destructible, at most 64 bytes and at most max_align_t-aligned.
// An owning or oversized capture is a compile error rather than a silent
// heap spill, so scheduling an event never allocates, copying a callback is
// a flat buffer copy and destroying one is free.
#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace varuna {

class SmallCallback {
 public:
  // Fits the executor's StartOp/FinishOp lambdas (<= 32 bytes) with headroom
  // for the manager's four-word closures.
  static constexpr size_t kInlineBytes = 64;

  SmallCallback() = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, SmallCallback> && std::is_invocable_r_v<void, Fn&> &&
             std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn> &&
             sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t))
  SmallCallback(F&& fn)  // NOLINT(google-explicit-constructor)
      : invoke_(&InvokeFn<Fn>) {
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  template <typename Fn>
  static void InvokeFn(void* target) {
    (*static_cast<Fn*>(target))();
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
};

}  // namespace varuna

#endif  // SRC_SIM_CALLBACK_H_
