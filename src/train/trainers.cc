#include "src/train/trainers.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace varuna {

std::vector<Batch> SplitIntoMicrobatches(const Batch& batch, int microbatch_size) {
  VARUNA_CHECK_GE(microbatch_size, 1);
  const int total = batch.inputs.dim(0);
  VARUNA_CHECK_EQ(total % microbatch_size, 0)
      << "batch of " << total << " not divisible into micro-batches of " << microbatch_size;
  const int vocab = batch.inputs.dim(1);
  std::vector<Batch> microbatches;
  for (int begin = 0; begin < total; begin += microbatch_size) {
    Batch microbatch;
    microbatch.inputs = Tensor({microbatch_size, vocab});
    for (int i = 0; i < microbatch_size; ++i) {
      for (int j = 0; j < vocab; ++j) {
        microbatch.inputs.at(i, j) = batch.inputs.at(begin + i, j);
      }
      microbatch.targets.push_back(batch.targets[static_cast<size_t>(begin + i)]);
    }
    microbatches.push_back(std::move(microbatch));
  }
  return microbatches;
}

void SplitIntoMicrobatchViews(int total_rows, int microbatch_size,
                              std::vector<MicrobatchView>* views) {
  VARUNA_CHECK_GE(microbatch_size, 1);
  VARUNA_CHECK_EQ(total_rows % microbatch_size, 0)
      << "batch of " << total_rows << " not divisible into micro-batches of " << microbatch_size;
  views->clear();
  for (int begin = 0; begin < total_rows; begin += microbatch_size) {
    views->push_back(MicrobatchView{begin, microbatch_size});
  }
}

void CopyMicrobatchInto(const Batch& batch, const MicrobatchView& view, Batch* out) {
  CopyRowsInto(&out->inputs, batch.inputs, view.row_begin, view.rows);
  const auto begin = batch.targets.begin() + view.row_begin;
  out->targets.assign(begin, begin + view.rows);
}

ParameterCheckpoint SnapshotParameters(const std::vector<Tensor*>& params,
                                       const Optimizer& optimizer) {
  ParameterCheckpoint checkpoint;
  checkpoint.parameters.reserve(params.size());
  for (const Tensor* param : params) {
    checkpoint.parameters.push_back(*param);
  }
  checkpoint.optimizer_state = optimizer.ExportState();
  return checkpoint;
}

void RestoreParameters(const ParameterCheckpoint& checkpoint,
                       const std::vector<Tensor*>& params, Optimizer* optimizer) {
  VARUNA_CHECK_EQ(checkpoint.parameters.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    VARUNA_CHECK(checkpoint.parameters[i].shape() == params[i]->shape());
    *params[i] = checkpoint.parameters[i];
  }
  optimizer->ImportState(checkpoint.optimizer_state);
}

// --- ReferenceTrainer --------------------------------------------------------

ReferenceTrainer::ReferenceTrainer(std::unique_ptr<Sequential> model, MathOptions options)
    : model_(std::move(model)), options_(options) {
  model_params_ = model_->Parameters();
  model_grads_ = model_->Gradients();
}

double ReferenceTrainer::ForwardBackward(const Batch& batch, int microbatch_size) {
  const std::vector<Batch> microbatches = SplitIntoMicrobatches(batch, microbatch_size);
  const float scale = 1.0f / static_cast<float>(microbatches.size());
  double total_loss = 0.0;
  SoftmaxCrossEntropy loss;
  for (const Batch& microbatch : microbatches) {
    const Tensor logits = model_->Forward(microbatch.inputs);
    total_loss += loss.Loss(logits, microbatch.targets);
    Tensor grad = loss.Backward();
    grad.Scale(scale);  // Full-batch mean across micro-batches.
    model_->Backward(grad);
  }
  return total_loss / static_cast<double>(microbatches.size());
}

void ReferenceTrainer::EnsureWorkers() {
  if (!workers_.empty()) {
    return;
  }
  const int num_workers = std::max(1, options_.math_threads);
  if (num_workers == 1) {
    // Serial fast path: one scratch set, no replica — TrainStep runs the
    // canonical model inline and accumulates gradients directly, skipping the
    // per-step parameter copy, slot copies and merge the pooled path needs.
    workers_.push_back(std::make_unique<Worker>());
    return;
  }
  pool_ = std::make_unique<ThreadPool>(num_workers);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->replica = model_->CloneStack();
    worker->params = worker->replica->Parameters();
    worker->grads = worker->replica->Gradients();
    workers_.push_back(std::move(worker));
  }
  // One micro-batch, end to end, on one worker's private state. A pure
  // function of `item` (worker state is fully overwritten), so pooled
  // execution of distinct items is race-free and order-free; the slot write
  // plus ascending merge makes the result bit-identical to a serial loop.
  run_item_ = [this](int item, int worker_index) {
    Worker& w = *workers_[static_cast<size_t>(worker_index)];
    const size_t m = static_cast<size_t>(item);
    CopyMicrobatchInto(*batch_, views_[m], &w.microbatch);
    for (Tensor* grad : w.grads) {
      grad->Fill(0.0f);
    }
    w.replica->ForwardInto(w.microbatch.inputs, &w.logits, &w.arena);
    losses_[m] = w.loss.Loss(w.logits, w.microbatch.targets);
    w.loss.BackwardInto(&w.loss_grad);
    w.loss_grad.Scale(scale_);  // Full-batch mean across micro-batches.
    w.replica->BackwardInto(w.loss_grad, &w.input_grad, &w.arena);
    for (size_t g = 0; g < w.grads.size(); ++g) {
      *grad_slots_[m][g] = *w.grads[g];
    }
  };
}

void ReferenceTrainer::EnsureGradSlots(int num_microbatches) {
  if (static_cast<int>(grad_slots_.size()) == num_microbatches) {
    return;
  }
  for (auto& slots : grad_slots_) {
    for (Tensor* slot : slots) {
      slot_arena_.Release(slot);
    }
  }
  grad_slots_.clear();
  grad_slots_.resize(static_cast<size_t>(num_microbatches));
  for (auto& slots : grad_slots_) {
    slots.reserve(model_grads_.size());
    for (Tensor* grad : model_grads_) {
      slots.push_back(slot_arena_.Acquire(grad->shape()));
    }
  }
}

double ReferenceTrainer::TrainStep(const Batch& batch, int microbatch_size) {
  SplitIntoMicrobatchViews(batch.inputs.dim(0), microbatch_size, &views_);
  const int num_microbatches = static_cast<int>(views_.size());
  scale_ = 1.0f / static_cast<float>(num_microbatches);
  EnsureWorkers();
  if (pool_ == nullptr) {
    // Serial: same loop as ForwardBackward (ascending micro-batches,
    // gradients accumulated straight into the model — identical float order),
    // on view copies, member buffers and arena scratch instead of fresh heap.
    Worker& w = *workers_.front();
    double total_loss = 0.0;
    for (const MicrobatchView& view : views_) {
      CopyMicrobatchInto(batch, view, &w.microbatch);
      model_->ForwardInto(w.microbatch.inputs, &w.logits, &w.arena);
      total_loss += w.loss.Loss(w.logits, w.microbatch.targets);
      w.loss.BackwardInto(&w.loss_grad);
      w.loss_grad.Scale(scale_);  // Full-batch mean across micro-batches.
      model_->BackwardInto(w.loss_grad, &w.input_grad, &w.arena);
    }
    return total_loss / static_cast<double>(num_microbatches);
  }
  EnsureGradSlots(num_microbatches);
  // Replicas start every step from the canonical parameters (copy-assign into
  // existing buffers — no allocation).
  for (auto& worker : workers_) {
    for (size_t i = 0; i < worker->params.size(); ++i) {
      *worker->params[i] = *model_params_[i];
    }
  }
  losses_.assign(static_cast<size_t>(num_microbatches), 0.0);
  batch_ = &batch;
  if (!workers_warmed_) {
    // The pool hands items to workers dynamically, so a worker might not see
    // its first item (and warm its arena) until many steps in. Run one item
    // on every worker serially so all arenas allocate now; the pooled pass
    // below recomputes item 0 and overwrites its slot.
    for (size_t w = 0; w < workers_.size(); ++w) {
      run_item_(0, static_cast<int>(w));
    }
    workers_warmed_ = true;
  }
  pool_->ParallelFor(num_microbatches, run_item_);
  batch_ = nullptr;
  // Merge in ascending micro-batch order — the order ForwardBackward
  // accumulates in, so the float sums agree exactly.
  double total_loss = 0.0;
  for (int m = 0; m < num_microbatches; ++m) {
    total_loss += losses_[static_cast<size_t>(m)];
    for (size_t g = 0; g < model_grads_.size(); ++g) {
      model_grads_[g]->AddInPlace(*grad_slots_[static_cast<size_t>(m)][g]);
    }
  }
  return total_loss / static_cast<double>(num_microbatches);
}

int64_t ReferenceTrainer::heap_allocations() const {
  int64_t total = slot_arena_.heap_allocations();
  for (const auto& worker : workers_) {
    total += worker->arena.heap_allocations();
  }
  return total;
}

// --- SyncPipelineTrainer -----------------------------------------------------

SyncPipelineTrainer::SyncPipelineTrainer(std::unique_ptr<Sequential> model,
                                         std::vector<int> stage_begin, MathOptions options)
    : options_(options) {
  auto split = Sequential::Split(std::move(model), stage_begin);
  stages_.reserve(split.size());
  for (auto& stage : split) {
    stages_.emplace_back();
    stages_.back().stage = std::move(stage);
  }
}

std::vector<Tensor*> SyncPipelineTrainer::Parameters() {
  std::vector<Tensor*> params;
  for (auto& state : stages_) {
    for (Tensor* p : state.stage->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Tensor*> SyncPipelineTrainer::Gradients() {
  std::vector<Tensor*> grads;
  for (auto& state : stages_) {
    for (Tensor* g : state.stage->Gradients()) {
      grads.push_back(g);
    }
  }
  return grads;
}

void SyncPipelineTrainer::EnsurePool() {
  if (pool_ != nullptr) {
    return;
  }
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.math_threads));
  exec_op_ = [this](int index, int) { ExecuteOp(ready_[static_cast<size_t>(index)]); };
}

bool SyncPipelineTrainer::OpReady(int s) const {
  const StageState& state = stages_[static_cast<size_t>(s)];
  const auto& ops = schedule_->ops[static_cast<size_t>(s)];
  if (state.cursor >= ops.size()) {
    return false;
  }
  const PipeOp& op = ops[state.cursor];
  const size_t m = static_cast<size_t>(op.microbatch);
  switch (op.type) {
    case PipeOpType::kForward:
      return has_input_[static_cast<size_t>(s)][m] != 0;
    case PipeOpType::kRecompute:
      return true;  // The stashed input is resident by schedule construction.
    case PipeOpType::kBackward:
      // The last stage feeds itself (loss gradient); others wait downstream.
      return s == depth() - 1 || has_grad_[static_cast<size_t>(s)][m] != 0;
    case PipeOpType::kIdleForward:
    case PipeOpType::kIdleBackward:
      VARUNA_CHECK(false) << "idle op: the trainer runs kVaruna schedules, which have none";
      return false;
  }
  return false;
}

void SyncPipelineTrainer::ExecuteOp(int s) {
  StageState& state = stages_[static_cast<size_t>(s)];
  Sequential& stage = *state.stage;
  const bool last = s == depth() - 1;
  const PipeOp& op = schedule_->ops[static_cast<size_t>(s)][state.cursor];
  const size_t m = static_cast<size_t>(op.microbatch);
  if (op.type == PipeOpType::kForward) {
    ++state.stash_count;
    state.peak_stash = std::max(state.peak_stash, state.stash_count);
    Tensor* out = last ? &logits_[m] : &stash_[static_cast<size_t>(s) + 1][m];
    stage.ForwardInto(stash_[static_cast<size_t>(s)][m], out, &state.arena);
    state.live_microbatch = op.microbatch;
    if (!last) {
      has_input_[static_cast<size_t>(s) + 1][m] = 1;
    }
  } else if (op.type == PipeOpType::kRecompute) {
    // Restore the stage's internal activations straight from the stashed
    // input — gradient checkpointing, exactly as on the GPU. The stash is
    // read in place; nothing is copied.
    stage.ForwardInto(stash_[static_cast<size_t>(s)][m], &state.recompute_out, &state.arena);
    state.live_microbatch = op.microbatch;
  } else {
    const Tensor* grad = nullptr;
    if (last) {
      VARUNA_CHECK_EQ(state.live_microbatch, op.microbatch)
          << "last stage must run backward on live activations (no recompute)";
      const MicrobatchView& view = views_[m];
      losses_[m] = loss_fns_[m].Loss(logits_[m], batch_->targets.data() + view.row_begin,
                                     view.rows);
      loss_fns_[m].BackwardInto(&state.loss_grad);
      state.loss_grad.Scale(scale_);
      grad = &state.loss_grad;
    } else {
      VARUNA_CHECK(has_grad_[static_cast<size_t>(s)][m] != 0);
      VARUNA_CHECK_EQ(state.live_microbatch, op.microbatch)
          << "recompute must immediately precede backward (rule 2)";
      grad = &grad_in_[static_cast<size_t>(s)][m];
    }
    Tensor* upstream =
        s > 0 ? &grad_in_[static_cast<size_t>(s) - 1][m] : &state.input_grad;
    stage.BackwardInto(*grad, upstream, &state.arena);
    state.live_microbatch = -1;
    --state.stash_count;  // Slot logically freed; the buffer is kept for reuse.
    if (s > 0) {
      has_grad_[static_cast<size_t>(s) - 1][m] = 1;
    }
  }
  ++state.cursor;
}

double SyncPipelineTrainer::ForwardBackward(const Batch& batch, int microbatch_size) {
  SplitIntoMicrobatchViews(batch.inputs.dim(0), microbatch_size, &views_);
  const int num_microbatches = static_cast<int>(views_.size());
  const int num_stages = depth();
  schedule_ = &GenerateSchedule(ScheduleKind::kVaruna, num_stages, num_microbatches);
  scale_ = 1.0f / static_cast<float>(num_microbatches);
  batch_ = &batch;

  // Per-(stage, microbatch) grids, resized in place and reused across
  // mini-batches. stash_[s] rows keep their element buffers, so recompute and
  // the next mini-batch both run without reallocating.
  stash_.resize(static_cast<size_t>(num_stages));
  grad_in_.resize(static_cast<size_t>(num_stages));
  has_input_.resize(static_cast<size_t>(num_stages));
  has_grad_.resize(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    stash_[static_cast<size_t>(s)].resize(static_cast<size_t>(num_microbatches));
    grad_in_[static_cast<size_t>(s)].resize(static_cast<size_t>(num_microbatches));
    has_input_[static_cast<size_t>(s)].assign(static_cast<size_t>(num_microbatches), 0);
    has_grad_[static_cast<size_t>(s)].assign(static_cast<size_t>(num_microbatches), 0);
  }
  logits_.resize(static_cast<size_t>(num_microbatches));
  loss_fns_.resize(static_cast<size_t>(num_microbatches));
  losses_.assign(static_cast<size_t>(num_microbatches), 0.0);
  for (int m = 0; m < num_microbatches; ++m) {
    const MicrobatchView& view = views_[static_cast<size_t>(m)];
    CopyRowsInto(&stash_[0][static_cast<size_t>(m)], batch.inputs, view.row_begin, view.rows);
    has_input_[0][static_cast<size_t>(m)] = 1;
  }
  for (auto& state : stages_) {
    state.cursor = 0;
    state.live_microbatch = -1;
    state.stash_count = 0;
    state.peak_stash = 0;
  }

  // Wavefront execution: between waves, collect the (at most one) ready op of
  // every stage; run the wave through the pool. Distinct stages touch
  // disjoint state — stage s writes only its own scratch, stash_[s+1][m] and
  // grad_in_[s-1][m] cells no other stage touches this wave — and each
  // stage's ops still run in schedule order, so per-layer gradient
  // accumulation order (the only order float math depends on) is exactly the
  // serial trainer's. ThreadPool(1) degenerates to the serial loop.
  EnsurePool();
  while (true) {
    ready_.clear();
    for (int s = 0; s < num_stages; ++s) {
      if (OpReady(s)) {
        ready_.push_back(s);
      }
    }
    if (ready_.empty()) {
      break;
    }
    pool_->ParallelFor(static_cast<int>(ready_.size()), exec_op_);
  }
  batch_ = nullptr;
  peak_stash_slots_ = 0;
  for (int s = 0; s < num_stages; ++s) {
    VARUNA_CHECK_EQ(stages_[static_cast<size_t>(s)].cursor,
                    schedule_->ops[static_cast<size_t>(s)].size())
        << "pipeline trainer deadlock at stage " << s;
    peak_stash_slots_ = std::max(peak_stash_slots_, stages_[static_cast<size_t>(s)].peak_stash);
  }
  // Ascending micro-batch order — matches the last stage's backward op order
  // and the reference trainer's accumulation.
  double total_loss = 0.0;
  for (int m = 0; m < num_microbatches; ++m) {
    total_loss += losses_[static_cast<size_t>(m)];
  }
  return total_loss / static_cast<double>(num_microbatches);
}

double SyncPipelineTrainer::ClipByGlobalNorm(float max_norm, bool sync_across_stages) {
  std::vector<double> stage_norms_sq;
  for (auto& state : stages_) {
    double sum = 0.0;
    for (Tensor* grad : state.stage->Gradients()) {
      sum += grad->SquaredNorm();
    }
    stage_norms_sq.push_back(sum);
  }
  if (sync_across_stages) {
    // The allreduce the tracer mandates: every stage sees the global norm.
    double total = 0.0;
    for (const double sq : stage_norms_sq) {
      total += sq;
    }
    const double norm = std::sqrt(total);
    if (norm > max_norm) {
      const float factor = static_cast<float>(max_norm / norm);
      for (auto& state : stages_) {
        for (Tensor* grad : state.stage->Gradients()) {
          grad->Scale(factor);
        }
      }
    }
    return norm;
  }
  // Buggy unsynchronized variant: each stage clips against its local norm.
  double max_seen = 0.0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const double norm = std::sqrt(stage_norms_sq[s]);
    max_seen = std::max(max_seen, norm);
    if (norm > max_norm) {
      const float factor = static_cast<float>(max_norm / norm);
      for (Tensor* grad : stages_[s].stage->Gradients()) {
        grad->Scale(factor);
      }
    }
  }
  return max_seen;
}

Tensor SyncPipelineTrainer::Forward(const Tensor& inputs) {
  Tensor x(inputs);
  for (auto& state : stages_) {
    x = state.stage->Forward(x);
  }
  return x;
}

// --- StaleGradientTrainer ------------------------------------------------------

StaleGradientTrainer::StaleGradientTrainer(std::unique_ptr<Sequential> model, int staleness,
                                           float learning_rate, float momentum,
                                           MathOptions options)
    : trainer_(std::move(model), options), staleness_(staleness) {
  VARUNA_CHECK_GE(staleness, 0);
  optimizer_ = std::make_unique<SgdOptimizer>(trainer_.Parameters(), trainer_.Gradients(),
                                              learning_rate, momentum);
}

double StaleGradientTrainer::Step(const Batch& batch) {
  optimizer_->ZeroGradients();
  // The whole batch as one micro-batch: scale is exactly 1, so the gradient
  // matches the seed single-forward semantics bit for bit, now on the
  // arena-backed fast path.
  const double value = trainer_.TrainStep(batch, batch.inputs.dim(0));

  // Snapshot the fresh gradient; apply the one computed `staleness_` steps
  // ago (in a P-deep pipeline, stage 0's gradient is that old by the time the
  // asynchronous update reaches it).
  std::vector<Tensor> snapshot;
  for (Tensor* grad : trainer_.Gradients()) {
    snapshot.push_back(*grad);
  }
  pending_.push_back(std::move(snapshot));
  if (static_cast<int>(pending_.size()) > staleness_) {
    const std::vector<Tensor> delayed = std::move(pending_.front());
    pending_.pop_front();
    std::vector<Tensor*> grads = trainer_.Gradients();
    VARUNA_CHECK_EQ(grads.size(), delayed.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      *grads[i] = delayed[i];
    }
    optimizer_->Step();
  }
  return value;
}

}  // namespace varuna
