// Reusable tensor slots for the zero-allocation training hot path. A trainer
// (or pool worker) owns one arena; layers and the GEMM kernels' packing panels
// acquire within-call scratch from it and release before returning, and
// trainers park longer-lived buffers (per-micro-batch gradient slots) in it
// across steps. Slots keep their heap buffers when released, so once every
// shape in the step has been seen, the arena stops touching the allocator —
// heap_allocations() is the counter the zero-alloc tests assert stays flat
// after warmup.
//
// Not thread-safe by design: under the deterministic pool, each worker uses
// its own arena (sharing one would serialize or race the workers).
#ifndef SRC_TENSOR_TENSOR_ARENA_H_
#define SRC_TENSOR_TENSOR_ARENA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace varuna {

class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;
  // Moving is safe: slots are held through unique_ptr, so leased Tensor*
  // remain valid across a move of the arena itself.
  TensorArena(TensorArena&&) = default;
  TensorArena& operator=(TensorArena&&) = default;

  // Returns a tensor resized to `shape` (element contents unspecified), owned
  // by the arena and leased to the caller until Release. Reuses the free slot
  // with the smallest sufficient capacity; only when no free slot fits does it
  // grow one (or create one), bumping heap_allocations().
  Tensor* Acquire(std::span<const int> shape);
  // Returns a leased tensor to the free pool. The buffer is kept.
  void Release(Tensor* tensor);
  // Marks every slot free (buffers kept). For error-path cleanup.
  void ReleaseAll();

  int slot_count() const { return static_cast<int>(slots_.size()); }
  int live_count() const { return live_count_; }
  // Number of element-buffer heap allocations (slot creations and capacity
  // growths) performed so far. Flat across steps == zero-alloc steady state.
  int64_t heap_allocations() const { return heap_allocations_; }

 private:
  struct Slot {
    // unique_ptr so Tensor* leases stay stable as slots_ grows.
    std::unique_ptr<Tensor> tensor;
    bool in_use = false;
  };

  std::vector<Slot> slots_;
  int64_t heap_allocations_ = 0;
  int live_count_ = 0;
};

}  // namespace varuna

#endif  // SRC_TENSOR_TENSOR_ARENA_H_
