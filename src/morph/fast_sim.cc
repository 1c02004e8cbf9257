#include "src/morph/fast_sim.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace varuna {

double FastSimulator::LowerBoundMinibatch(const FastSimConfig& config,
                                          int num_microbatches) const {
  VARUNA_CHECK(config.sections != nullptr && config.partition != nullptr);
  const int depth = config.partition->depth();
  const int m = config.microbatch_size;
  const double microbatches = static_cast<double>(num_microbatches);
  // Per-stage sums accumulate in the same ascending-section order as
  // EstimateMinibatch's prologue, so each stage's fwd/bwd/allreduce scalars
  // are bit-equal to the simulator's. The simulated critical path for stage s
  // is at least: the fill chain of first forwards through stages < s, plus
  // Nm serial (forward + backward) executions at s, plus s's allreduce — the
  // zero-bubble floor. Sends, stalls and schedule bubbles only add time.
  double prefix_fwd = 0.0;
  double bound = 0.0;
  for (int s = 0; s < depth; ++s) {
    const int begin = config.partition->stage_begin[static_cast<size_t>(s)];
    const int end = config.partition->stage_begin[static_cast<size_t>(s) + 1];
    double fwd = 0.0;
    double bwd = 0.0;
    double allreduce = 0.0;
    for (int section = begin; section < end; ++section) {
      fwd += calibration_->ForwardTime(section, m);
      bwd += calibration_->BackwardTime(section, m);
      allreduce += calibration_->allreduce().Predict(
          2.0 * config.sections->params[static_cast<size_t>(section)], config.data_parallel);
    }
    bound = std::max(bound, prefix_fwd + microbatches * (fwd + bwd) + allreduce);
    prefix_fwd += fwd;
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
  const int microbatches = schedule.num_microbatches;
  const int m = config.microbatch_size;
  const size_t stages = static_cast<size_t>(depth);
  const size_t cells = stages * static_cast<size_t>(microbatches);
  const auto at = [microbatches](int s, int mb) {
    return static_cast<size_t>(s) * static_cast<size_t>(microbatches) + static_cast<size_t>(mb);
  };

  // Per-stage primitives assembled from the calibrated cut-point parameters.
  // assign() both sizes the scratch and erases any previous candidate's state.
  fwd_.assign(stages, 0.0);
  bwd_.assign(stages, 0.0);
  send_.assign(stages, 0.0);
  allreduce_.assign(stages, 0.0);
  hop_cross_node_.assign(stages, 0);
  for (int s = 0; s < depth; ++s) {
    const int begin = config.partition->stage_begin[static_cast<size_t>(s)];
    const int end = config.partition->stage_begin[static_cast<size_t>(s) + 1];
    for (int section = begin; section < end; ++section) {
      fwd_[static_cast<size_t>(s)] += calibration_->ForwardTime(section, m);
      bwd_[static_cast<size_t>(s)] += calibration_->BackwardTime(section, m);
      allreduce_[static_cast<size_t>(s)] += calibration_->allreduce().Predict(
          2.0 * config.sections->params[static_cast<size_t>(section)], config.data_parallel);
    }
    if (s + 1 < depth) {
      const bool cross_node = ((s + 1) % std::max(1, config.gpus_per_node)) == 0;
      hop_cross_node_[static_cast<size_t>(s)] = cross_node ? 1 : 0;
      send_[static_cast<size_t>(s)] = calibration_->SendTime(end - 1, m, cross_node);
    }
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

  // Longest-path evaluation of the schedule under strict per-stage op order.
  cursor_.assign(stages, 0);
  free_at_.assign(stages, 0.0);
  f_done_.assign(cells, -1.0);
  b_done_.assign(cells, -1.0);
  auto reset_state = [&] {
    std::fill(cursor_.begin(), cursor_.end(), 0);
    std::fill(free_at_.begin(), free_at_.end(), 0.0);
    std::fill(f_done_.begin(), f_done_.end(), -1.0);
    std::fill(b_done_.begin(), b_done_.end(), -1.0);
  };

  auto ready_time = [&](int s, const PipeOp& op) -> double {
    switch (op.type) {
      case PipeOpType::kForward:
        if (s == 0) {
          return 0.0;
        }
        if (f_done_[at(s - 1, op.microbatch)] < 0.0) {
          return -1.0;
        }
        return f_done_[at(s - 1, op.microbatch)] + send_[static_cast<size_t>(s) - 1] +
               fwd_stall_[at(s - 1, op.microbatch)];
      case PipeOpType::kBackward:
        if (s == depth - 1) {
          return f_done_[at(s, op.microbatch)];
        }
        if (b_done_[at(s + 1, op.microbatch)] < 0.0) {
          return -1.0;
        }
        return b_done_[at(s + 1, op.microbatch)] + send_[static_cast<size_t>(s)] +
               bwd_stall_[at(s, op.microbatch)];
      case PipeOpType::kRecompute:
      case PipeOpType::kIdleForward:
      case PipeOpType::kIdleBackward:
        return 0.0;
    }
    return 0.0;
  };

  auto drain_stage = [&](int s) {
    bool progressed = false;
    while (cursor_[static_cast<size_t>(s)] < schedule.ops[static_cast<size_t>(s)].size()) {
      const PipeOp& op = schedule.ops[static_cast<size_t>(s)][cursor_[static_cast<size_t>(s)]];
      const double ready = ready_time(s, op);
      if (ready < 0.0) {
        break;
      }
      const double start = std::max(free_at_[static_cast<size_t>(s)], ready);
      const double end = start + duration(s, op.type);
      free_at_[static_cast<size_t>(s)] = end;
      if (op.type == PipeOpType::kForward) {
        f_done_[at(s, op.microbatch)] = end;
      } else if (op.type == PipeOpType::kBackward) {
        b_done_[at(s, op.microbatch)] = end;
      }
      ++cursor_[static_cast<size_t>(s)];
      progressed = true;
    }
    return progressed;
  };
  auto run_once = [&] {
    reset_state();
    // Forward dependencies resolve in the ascending sweep, backward chains in
    // the descending sweep, so the pass count stays O(1) instead of O(P).
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (int s = 0; s < depth; ++s) {
        progressed |= drain_stage(s);
      }
      for (int s = depth - 1; s >= 0; --s) {
        progressed |= drain_stage(s);
      }
    }
    for (int s = 0; s < depth; ++s) {
      VARUNA_CHECK_EQ(cursor_[static_cast<size_t>(s)], schedule.ops[static_cast<size_t>(s)].size())
          << "fast-sim schedule deadlock at stage " << s;
    }
  };

  // The mini-batch is gated by the slowest data-parallel replica: replay up
  // to four independent stall streams and keep the worst pipeline.
  Rng stall_rng(0x5eedULL ^ (static_cast<uint64_t>(depth) << 32) ^
                static_cast<uint64_t>(microbatches));
  const int replays = std::max(1, std::min(config.data_parallel, 4));
  FastSimResult result;
  for (int replay = 0; replay < replays; ++replay) {
    sample_stalls(&stall_rng);
    run_once();
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
