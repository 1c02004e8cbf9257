#include "src/tensor/tensor_arena.h"

#include "src/common/check.h"

namespace varuna {
namespace {

int64_t NumElements(std::span<const int> shape) {
  int64_t n = 1;
  for (const int d : shape) {
    VARUNA_CHECK_GT(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor* TensorArena::Acquire(std::span<const int> shape) {
  const int64_t needed = NumElements(shape);
  // Best fit: the free slot with the smallest capacity that still holds the
  // request, so big buffers stay available for big requests.
  Slot* best = nullptr;
  Slot* largest_free = nullptr;
  for (Slot& slot : slots_) {
    if (slot.in_use) {
      continue;
    }
    if (largest_free == nullptr || slot.tensor->capacity() > largest_free->tensor->capacity()) {
      largest_free = &slot;
    }
    if (slot.tensor->capacity() >= needed &&
        (best == nullptr || slot.tensor->capacity() < best->tensor->capacity())) {
      best = &slot;
    }
  }
  if (best == nullptr) {
    if (largest_free != nullptr) {
      // Grow an existing free slot rather than piling up new ones.
      best = largest_free;
    } else {
      slots_.push_back(Slot{std::make_unique<Tensor>(), false});
      best = &slots_.back();
    }
    ++heap_allocations_;
  }
  best->tensor->ResizeTo(shape);
  best->in_use = true;
  ++live_count_;
  return best->tensor.get();
}

void TensorArena::Release(Tensor* tensor) {
  for (Slot& slot : slots_) {
    if (slot.tensor.get() == tensor) {
      VARUNA_CHECK(slot.in_use) << "TensorArena::Release of a slot not in use";
      slot.in_use = false;
      --live_count_;
      return;
    }
  }
  VARUNA_CHECK(false) << "TensorArena::Release of a tensor this arena does not own";
}

void TensorArena::ReleaseAll() {
  for (Slot& slot : slots_) {
    slot.in_use = false;
  }
  live_count_ = 0;
}

}  // namespace varuna
