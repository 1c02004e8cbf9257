// The "storm" workload: a synthetic event stream shaped like a chaos
// campaign's engine traffic. Mix, per pump iteration:
//   * one self-rescheduling continuation with an executor-sized capture
//     (~24-32 bytes: the StartOp/FinishOp lambda shape),
//   * every 4th iteration a one-word filler event (heartbeat-timeout shape)
//     on a longer delay, so the queue always holds a tail of far-off
//     entries the way pending heartbeat timers do,
//   * a RunUntil() window every 0.25 simulated seconds (mini-batch cadence).
// Deterministic for a given seed: the same target always fires the same
// event count.
#ifndef BENCH_SIM_CORE_WORKLOAD_H_
#define BENCH_SIM_CORE_WORKLOAD_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace varuna {

class SimCoreStorm {
 public:
  SimCoreStorm(uint64_t seed, uint64_t target_fires) : rng_(seed), remaining_(target_fires) {}

  // Runs the storm to completion; returns events fired (continuations plus
  // fillers, so this is > the target).
  uint64_t Run() {
    // A handful of independent pump chains keeps the queue populated the way
    // a P x D worker grid does.
    for (int pump = 0; pump < 16; ++pump) {
      Pump();
    }
    while (engine_.pending_events() > 0) {
      // Mini-batch cadence: drain in bounded windows like the elastic
      // harness's RunUntil loop, not one monolithic Run().
      engine_.RunUntil(engine_.now() + 0.25);
    }
    return engine_.events_processed();
  }

  double checksum() const { return sink_; }

 private:
  void Pump() {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    const uint64_t draw = rng_.NextUint64();
    const double delay = static_cast<double>(draw % 1024) * 1e-5;
    // Capture shape of the executor's hot lambdas: this + two words.
    const double pad = delay * 0.5;
    const uint64_t tag = draw;
    engine_.Schedule(delay, [this, pad, tag] {
      sink_ += pad + static_cast<double>(tag % 7);
      Pump();
    });
    if ((remaining_ & 3) == 0) {
      const uint64_t filler_delay_draw = rng_.NextUint64();
      engine_.Schedule(static_cast<double>(filler_delay_draw % 4096) * 1e-5,
                       [this] { sink_ += 1.0; });
    }
  }

  SimEngine engine_;
  Rng rng_;
  uint64_t remaining_ = 0;
  double sink_ = 0.0;
};

}  // namespace varuna

#endif  // BENCH_SIM_CORE_WORKLOAD_H_
