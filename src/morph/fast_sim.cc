#include "src/morph/fast_sim.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace varuna {

FastSimulator::StageScalars FastSimulator::Stage(const FastSimConfig& config, int s) const {
  const int depth = config.partition->depth();
  const int begin = config.partition->stage_begin[static_cast<size_t>(s)];
  const int end = config.partition->stage_begin[static_cast<size_t>(s) + 1];
  const int m = config.microbatch_size;
  StageScalars stage;
  for (int section = begin; section < end; ++section) {
    stage.fwd += calibration_->ForwardTime(section, m);
    stage.bwd += calibration_->BackwardTime(section, m);
    stage.allreduce += calibration_->allreduce().Predict(
        2.0 * config.sections->params[static_cast<size_t>(section)], config.data_parallel);
  }
  if (s + 1 < depth) {
    stage.cross_node = ((s + 1) % std::max(1, config.gpus_per_node)) == 0;
    stage.send = calibration_->SendTime(end - 1, m, stage.cross_node);
  }
  return stage;
}

double FastSimulator::LowerBoundMinibatch(const FastSimConfig& config,
                                          int num_microbatches) const {
  VARUNA_CHECK(config.sections != nullptr && config.partition != nullptr);
  const int depth = config.partition->depth();
  const double microbatches = static_cast<double>(num_microbatches);
  // Each stage's critical path is fill + serial work + drain (see the
  // header); the drain's max over j <= s folds into one pass as
  // drain_s = max(allreduce_s, drain_{s-1} + send_{s-1} + b_{s-1}).
  double fill = 0.0;
  double drain = 0.0;
  double prev_send_bwd = 0.0;  // send_{s-1} + b_{s-1}.
  double bound = 0.0;
  for (int s = 0; s < depth; ++s) {
    const StageScalars stage = Stage(config, s);
    drain = s == 0 ? stage.allreduce : std::max(stage.allreduce, drain + prev_send_bwd);
    const double recompute = s + 1 == depth ? 0.0 : (microbatches - 1.0) * stage.fwd;
    bound = std::max(bound,
                     fill + (microbatches * (stage.fwd + stage.bwd) + recompute) + drain);
    fill += stage.fwd + stage.send;
    prev_send_bwd = stage.send + stage.bwd;
  }
  if (config.shared_sync_bytes > 0.0 && depth > 1) {
    bound += calibration_->allreduce().Predict(config.shared_sync_bytes, 2);
  }
  // The simulator accumulates the same quantities through sequential adds
  // (free_at_ += duration, Nm times) while this closed form multiplies; the
  // two can differ by a few ulps in either direction. Scale down by 1e-9
  // relative — orders of magnitude above the accumulated rounding error — so
  // the bound stays a true lower bound of the simulated double, and pruning
  // can never drop a candidate that would have tied or won bit-exactly.
  return bound * (1.0 - 1e-9);
}

FastSimResult FastSimulator::EstimateMinibatch(const Schedule& schedule,
                                               const FastSimConfig& config) {
  VARUNA_CHECK(config.sections != nullptr && config.partition != nullptr);
  const int depth = schedule.depth;
  VARUNA_CHECK_EQ(depth, config.partition->depth());
  VARUNA_CHECK_EQ(schedule.eval_order.size(), ScheduleOpCount(schedule))
      << "schedule has no compiled eval_order";
  const int microbatches = schedule.num_microbatches;
  const size_t stages = static_cast<size_t>(depth);
  const size_t cells = stages * static_cast<size_t>(microbatches);
  const auto at = [microbatches](int s, int mb) {
    return static_cast<size_t>(s) * static_cast<size_t>(microbatches) + static_cast<size_t>(mb);
  };

  // Per-stage primitives assembled from the calibrated cut-point parameters;
  // every entry is overwritten below.
  fwd_.resize(stages);
  bwd_.resize(stages);
  send_.resize(stages);
  allreduce_.resize(stages);
  hop_cross_node_.resize(stages);
  for (int s = 0; s < depth; ++s) {
    const StageScalars stage = Stage(config, s);
    const size_t i = static_cast<size_t>(s);
    fwd_[i] = stage.fwd;
    bwd_[i] = stage.bwd;
    send_[i] = stage.send;
    allreduce_[i] = stage.allreduce;
    hop_cross_node_[i] = stage.cross_node ? 1 : 0;
  }

  // Replay the profiled transfer tail (§4.3: profiled times "include mean
  // latency and jitter"): stalls on the gradient chain add to the critical
  // path instead of averaging out, so they are sampled per transfer from a
  // fixed-seed stream (deterministic estimates for a given configuration).
  // Stall sizes follow the profiled exponential tail — large stalls punch
  // through pipeline slack, so replaying the mean alone underestimates.
  fwd_stall_.assign(cells, 0.0);
  bwd_stall_.assign(cells, 0.0);
  auto sample_stalls = [&](Rng* stall_rng) {
    const SendStallModel& tail = calibration_->send_stall();
    for (int s = 0; s + 1 < depth; ++s) {
      for (int mb = 0; mb < microbatches; ++mb) {
        fwd_stall_[at(s, mb)] = 0.0;
        bwd_stall_[at(s, mb)] = 0.0;
        if (hop_cross_node_[static_cast<size_t>(s)] == 0 || tail.probability <= 0.0) {
          continue;
        }
        if (stall_rng->Bernoulli(tail.probability)) {
          fwd_stall_[at(s, mb)] = tail.offset_s + stall_rng->Exponential(tail.scale_s);
        }
        if (stall_rng->Bernoulli(tail.probability)) {
          // A stage waiting on a stalled gradient opportunistically runs a
          // pending forward (§3.2), recovering up to one forward's worth of
          // work from the stall (minus the expected overshoot when the
          // gradient lands mid-forward; long stalls fit several forwards).
          const double stall = tail.offset_s + stall_rng->Exponential(tail.scale_s);
          bwd_stall_[at(s, mb)] = std::max(0.0, stall - 1.25 * fwd_[static_cast<size_t>(s)]);
        }
      }
    }
  };

  auto duration = [&](int s, PipeOpType type) {
    switch (type) {
      case PipeOpType::kForward:
      case PipeOpType::kRecompute:
      case PipeOpType::kIdleForward:
        return fwd_[static_cast<size_t>(s)];
      case PipeOpType::kBackward:
        return bwd_[static_cast<size_t>(s)];
      case PipeOpType::kIdleBackward:
        return fwd_[static_cast<size_t>(s)] + bwd_[static_cast<size_t>(s)];
    }
    return 0.0;
  };

  // The mini-batch is gated by the slowest data-parallel replica: replay up
  // to four independent stall streams and keep the worst pipeline. Each
  // replay is a longest-path evaluation under strict per-stage op order: one
  // walk over the compiled dependency order, so every end time an op reads
  // was written earlier in the same walk.
  cursor_.resize(stages);
  free_at_.resize(stages);
  f_done_.resize(cells);
  b_done_.resize(cells);
  Rng stall_rng(0x5eedULL ^ (static_cast<uint64_t>(depth) << 32) ^
                static_cast<uint64_t>(microbatches));
  const int replays = std::max(1, std::min(config.data_parallel, 4));
  FastSimResult result;
  for (int replay = 0; replay < replays; ++replay) {
    sample_stalls(&stall_rng);
    std::fill(cursor_.begin(), cursor_.end(), 0);
    std::fill(free_at_.begin(), free_at_.end(), 0.0);
    for (const uint16_t s : schedule.eval_order) {
      const PipeOp& op = schedule.ops[s][cursor_[s]++];
      double ready = 0.0;
      if (op.type == PipeOpType::kForward && s > 0) {
        ready = f_done_[at(s - 1, op.microbatch)] + send_[s - 1U] +
                fwd_stall_[at(s - 1, op.microbatch)];
      } else if (op.type == PipeOpType::kBackward) {
        ready = s == depth - 1 ? f_done_[at(s, op.microbatch)]
                               : b_done_[at(s + 1, op.microbatch)] + send_[s] +
                                     bwd_stall_[at(s, op.microbatch)];
      }
      const double end = std::max(free_at_[s], ready) + duration(s, op.type);
      free_at_[s] = end;
      if (op.type == PipeOpType::kForward) {
        f_done_[at(s, op.microbatch)] = end;
      } else if (op.type == PipeOpType::kBackward) {
        b_done_[at(s, op.microbatch)] = end;
      }
    }
    for (int s = 0; s < depth; ++s) {
      result.pipeline_s = std::max(result.pipeline_s, free_at_[static_cast<size_t>(s)]);
      result.minibatch_s = std::max(result.minibatch_s,
                                    free_at_[static_cast<size_t>(s)] +
                                        allreduce_[static_cast<size_t>(s)]);
    }
  }
  for (int s = 0; s < depth; ++s) {
    result.allreduce_s = std::max(result.allreduce_s, allreduce_[static_cast<size_t>(s)]);
  }
  if (config.shared_sync_bytes > 0.0 && depth > 1) {
    result.sync_s = calibration_->allreduce().Predict(config.shared_sync_bytes, 2);
  }
  result.minibatch_s += result.sync_s;
  return result;
}

}  // namespace varuna
