// Trainers that realise the paper's update semantics on real numerics:
//  * ReferenceTrainer      — single-device micro-batched gradient accumulation
//                            (ground truth for sync-SGD). ForwardBackward is
//                            the seed by-value path; TrainStep is the
//                            arena-backed, optionally pooled fast path that
//                            produces bit-identical gradients and loss.
//  * SyncPipelineTrainer   — executes the *generated Varuna schedule* over a
//                            stage-partitioned model with input stashing and
//                            recompute-before-backward; produces gradients
//                            bit-identical to the reference (the
//                            "correctness-preserving" claim, §4.2). Ready ops
//                            of independent stages run as one wavefront
//                            through the deterministic pool.
//  * StaleGradientTrainer  — PipeDream-style asynchronous semantics: the
//                            gradient applied at step t was computed
//                            `staleness` steps earlier (staleness ~ pipeline
//                            depth). Used for the Fig. 10 divergence study.
//
// Pooled-equals-serial contract: every parallel region fans over work items
// that are pure functions of their index (micro-batch or stage op), writes
// results to item-indexed slots, and merges in fixed ascending order — the
// ThreadPool contract from src/common/thread_pool.h. math_threads == 1
// degenerates to the same code path run inline.
#ifndef SRC_TRAIN_TRAINERS_H_
#define SRC_TRAIN_TRAINERS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/nn/layers.h"
#include "src/nn/optimizer.h"
#include "src/nn/synthetic_task.h"
#include "src/pipeline/schedule.h"
#include "src/tensor/tensor_arena.h"

namespace varuna {

// Knobs shared by all trainers.
struct MathOptions {
  // Workers for micro-batch / stage-wavefront math (1 = serial inline). It
  // pays: on a shared 4-thread x86-64 host fig9_convergence took 8.7–10.3 s at
  // --math-threads 4 against 11.2–12.7 s at 1, with identical output (four
  // alternating pairs, listed in EXPERIMENTS.md under Figure 9).
  int math_threads = 1;
};

// Splits `batch` into consecutive micro-batches of `microbatch_size` rows.
std::vector<Batch> SplitIntoMicrobatches(const Batch& batch, int microbatch_size);

// View-based split: row ranges over the original batch, no copies. Clears and
// refills *views, reusing its capacity (zero-alloc at steady state).
struct MicrobatchView {
  int row_begin = 0;
  int rows = 0;
};
void SplitIntoMicrobatchViews(int total_rows, int microbatch_size,
                              std::vector<MicrobatchView>* views);

// Copies the viewed rows into *out, reusing its buffers.
void CopyMicrobatchInto(const Batch& batch, const MicrobatchView& view, Batch* out);

// Per-layer checkpoint payload (§4.5): parameter values in model order plus
// optimizer state. Because parameters are checkpointed per layer, the payload
// restores onto a trainer partitioned at a *different* pipeline depth, and
// training continues on the exact same trajectory.
struct ParameterCheckpoint {
  std::vector<Tensor> parameters;
  std::vector<Tensor> optimizer_state;
};

ParameterCheckpoint SnapshotParameters(const std::vector<Tensor*>& params,
                                       const Optimizer& optimizer);
void RestoreParameters(const ParameterCheckpoint& checkpoint,
                       const std::vector<Tensor*>& params, Optimizer* optimizer);

class ReferenceTrainer {
 public:
  explicit ReferenceTrainer(std::unique_ptr<Sequential> model, MathOptions options = {});

  // Forward+backward over the mini-batch in micro-batch accumulation order;
  // gradients are left accumulated (scaled to the full-batch mean).
  // Returns the mean loss. Seed by-value path, kept as the semantic anchor.
  double ForwardBackward(const Batch& batch, int microbatch_size);

  // Same math as ForwardBackward — bit-identical gradients and loss — on the
  // fast path: micro-batch views, arena-backed replicas, and (math_threads >
  // 1) pooled micro-batch execution with an ascending-index gradient merge.
  // After the first call with a given (batch shape, microbatch_size), repeat
  // calls perform zero tensor-buffer heap allocations (heap_allocations()
  // stays flat).
  double TrainStep(const Batch& batch, int microbatch_size);

  // Total element-buffer allocations by this trainer's arenas — flat across
  // steady-state TrainStep calls (asserted in tests/train_parallel_test.cc).
  int64_t heap_allocations() const;

  Sequential* model() { return model_.get(); }
  std::vector<Tensor*> Parameters() { return model_->Parameters(); }
  std::vector<Tensor*> Gradients() { return model_->Gradients(); }

 private:
  // One replica + scratch set per pool worker. Replicas make each micro-batch
  // a pure function of its index: workers never touch the canonical model,
  // whose gradients accumulate only in the ascending merge.
  struct Worker {
    std::unique_ptr<Sequential> replica;
    std::vector<Tensor*> params;  // Cached replica->Parameters().
    std::vector<Tensor*> grads;   // Cached replica->Gradients().
    TensorArena arena;
    Batch microbatch;
    Tensor logits;
    Tensor loss_grad;
    Tensor input_grad;  // Gradient w.r.t. inputs; discarded.
    SoftmaxCrossEntropy loss;
  };

  void EnsureWorkers();
  void EnsureGradSlots(int num_microbatches);

  std::unique_ptr<Sequential> model_;
  MathOptions options_;
  std::vector<Tensor*> model_params_;  // Cached model_->Parameters().
  std::vector<Tensor*> model_grads_;   // Cached model_->Gradients().
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool workers_warmed_ = false;
  // Item-indexed gradient slots: grad_slots_[m][g] holds micro-batch m's
  // gradient delta for model gradient g. Leased from slot_arena_ and kept
  // across steps so steady state never touches it.
  TensorArena slot_arena_;
  std::vector<std::vector<Tensor*>> grad_slots_;
  std::vector<double> losses_;
  std::vector<MicrobatchView> views_;
  const Batch* batch_ = nullptr;  // Valid only during TrainStep.
  float scale_ = 1.0f;
  // Built once (capturing only `this`) so steady-state ParallelFor calls do
  // not re-materialise a heap-backed std::function.
  std::function<void(int, int)> run_item_;
};

class SyncPipelineTrainer {
 public:
  // `stage_begin` has depth+1 entries over the model's layers (cut-points).
  SyncPipelineTrainer(std::unique_ptr<Sequential> model, std::vector<int> stage_begin,
                      MathOptions options = {});

  // Executes one mini-batch following the Varuna schedule's per-stage op
  // order (F/R/B per micro-batch), stashing stage inputs and recomputing
  // before each backward. Gradients accumulate exactly as in the reference.
  // With math_threads > 1, each wavefront of ready ops (at most one per
  // stage) runs through the pool; per-stage op order — the only order float
  // accumulation depends on — is preserved, so pooled == serial bit for bit.
  double ForwardBackward(const Batch& batch, int microbatch_size);

  int depth() const { return static_cast<int>(stages_.size()); }
  Sequential* stage(int s) { return stages_[static_cast<size_t>(s)].stage.get(); }
  std::vector<Tensor*> Parameters();
  std::vector<Tensor*> Gradients();

  // Peak number of simultaneously stashed stage-input tensors across stages
  // during the last mini-batch (memory-model observability).
  int peak_stash_slots() const { return peak_stash_slots_; }

  // Global-norm gradient clipping (NVLAMB-style cross-partition state,
  // §5.2). With `sync_across_stages` the squared norms are allreduced over
  // the pipeline group before clipping — the tracer-mandated behaviour;
  // without it each stage clips against its local norm (the bug the tracer
  // prevents). Returns the norm used.
  double ClipByGlobalNorm(float max_norm, bool sync_across_stages);

  // Runs inference through all stages (for validation).
  Tensor Forward(const Tensor& inputs);

 private:
  struct StageState {
    std::unique_ptr<Sequential> stage;
    TensorArena arena;      // Within-op scratch; private to this stage.
    Tensor recompute_out;   // Recompute's (discarded) output buffer.
    Tensor loss_grad;       // Last stage only: d(loss)/d(logits).
    Tensor input_grad;      // First stage only: gradient sink.
    size_t cursor = 0;      // Next op in this stage's schedule row.
    int live_microbatch = -1;
    int stash_count = 0;
    int peak_stash = 0;
  };

  // True when the op at `stage`'s cursor can run now.
  bool OpReady(int s) const;
  void ExecuteOp(int s);
  void EnsurePool();

  MathOptions options_;
  std::vector<StageState> stages_;
  std::unique_ptr<ThreadPool> pool_;
  int peak_stash_slots_ = 0;

  // Mini-batch execution state, reused in place across calls.
  const Schedule* schedule_ = nullptr;  // Borrowed from GenerateSchedule's memo.
  const Batch* batch_ = nullptr;
  std::vector<MicrobatchView> views_;
  // stash_[s][m]: stage s's input for micro-batch m, kept until backward and
  // reused across mini-batches (the recompute path reads it in place instead
  // of re-cloning the micro-batch). grad_in_[s][m]: gradient arriving from
  // stage s+1. Flags are uint8_t, not vector<bool>: workers set flags of
  // *different* cells during a wavefront, and vector<bool> packs bits of
  // neighbouring cells into one racy byte.
  std::vector<std::vector<Tensor>> stash_;
  std::vector<std::vector<Tensor>> grad_in_;
  std::vector<std::vector<uint8_t>> has_input_;
  std::vector<std::vector<uint8_t>> has_grad_;
  std::vector<Tensor> logits_;
  std::vector<SoftmaxCrossEntropy> loss_fns_;
  std::vector<double> losses_;
  std::vector<int> ready_;  // Stages with a runnable op this wavefront.
  float scale_ = 1.0f;
  std::function<void(int, int)> exec_op_;  // Built once in EnsurePool.
};

class StaleGradientTrainer {
 public:
  // Applies each computed gradient `staleness` optimizer steps late. With
  // staleness == 0 this is plain synchronous SGD.
  StaleGradientTrainer(std::unique_ptr<Sequential> model, int staleness, float learning_rate,
                       float momentum, MathOptions options = {});

  // One optimizer step on one batch; returns the loss at computation time.
  double Step(const Batch& batch);

  Sequential* model() { return trainer_.model(); }

 private:
  ReferenceTrainer trainer_;  // Runs the whole batch as one micro-batch.
  std::unique_ptr<SgdOptimizer> optimizer_;
  int staleness_;
  // Pending gradients, oldest first; each entry is a snapshot of all grads.
  std::deque<std::vector<Tensor>> pending_;
};

}  // namespace varuna

#endif  // SRC_TRAIN_TRAINERS_H_
