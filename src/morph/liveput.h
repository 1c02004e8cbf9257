// Liveput-optimized morphing (Parcae, PAPERS.md): instead of reacting to
// preemptions after they cost a rollback, the manager predicts availability
// and picks the next (P, D, m) to maximize expected *liveput* — estimated
// throughput × P(the placement survives the next horizon H).
//
// Two pieces, both policy-side (no simulation changes):
//   * AvailabilityPredictor — an online estimator of the spot pool's per-window
//     up→down (preemption) probability, learned from the *observed*
//     grant/preemption stream with Laplace smoothing. Survival needs only that
//     rate, so the predictor learns no down→up rate. The contract: it never
//     reads SpotMarket's hidden SpotPoolDynamics (this header deliberately
//     includes nothing from src/cluster); everything it knows arrives through
//     Observe*() calls fed by the manager's market observers. An oracle mode
//     accepts the true hazard (and scripted storm forecasts) from the caller
//     for upper-bound comparisons. The predictor draws no randomness and
//     schedules no events — its state is a pure function of the observation
//     stream, which keeps every policy mode bit-replayable.
//   * LiveputObjective — rescores ConfigSearch candidates by survival-weighted
//     throughput. "P(≥ required nodes survive H)" for a placement with no
//     spare VMs is exactly P(every used VM survives H) = s^V. The raw liveput
//     product thr × s^V assumes a hit forfeits the whole horizon, which
//     overprices risk so badly the argmax collapses to tiny placements; the
//     objective therefore amortizes: a hit costs only the recovery window
//     (rollback re-work + restore stall), so
//       Score = thr × (1 − (1 − s^V) × recovery_cost/H)
//     which degrades to the pure liveput product exactly when recovery costs
//     the whole horizon. Fewer VMs still ⇒ higher survival, but the argmax
//     only trades throughput for robustness when the recovery cost warrants.
//
// Neither piece is a ConfigSearch input: throughput estimates do not depend
// on availability, so the sweep and its memos key on the search inputs alone.
// The objective reads the live predictor and recovery cost only when it
// rescores the sweep's list.
#ifndef SRC_MORPH_LIVEPUT_H_
#define SRC_MORPH_LIVEPUT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/morph/config_search.h"

namespace varuna {

// How the manager chooses and times morphs.
enum class MorphPolicy : uint8_t {
  kReactive = 0,         // Varuna §4.6: morph only after a preemption lands.
  kProactive = 1,        // Liveput argmax + pre-migration, online predictor.
  kOracleProactive = 2,  // Same policy, predictor fed the true hazard/storms.
};

// Every field stays an option: the predictor's convergence and cold-gate
// tests (tests/liveput_test.cc) construct predictors with non-default values.
struct PredictorOptions {
  // Discretization of the preemption rate: one "window" of up-node exposure.
  double window_s = 60.0;
  // Warm-up gates: below either, Cold() is true and the manager must stay on
  // the reactive path (the estimate is noise, not signal).
  double min_exposure_windows = 30.0;
  int min_preemption_events = 3;
  // Recency half-life of the preemption estimate: counts and exposure decay
  // by exp(-dt/tau), so risk spikes while a storm is landing and relaxes in
  // calm stretches instead of smearing storm kills over the whole session.
  // For a stationary pool the decayed ratio stays an unbiased estimate of
  // the same preemption probability (just higher-variance). <= 0 disables
  // decay (the pure cumulative estimator, used by the convergence test).
  double decay_tau_s = 120.0;
};

// Online up→down rate estimator. Feed it every announced grant/preemption
// (ObserveGrant/ObservePreemption) plus periodic quiet ticks (ObserveQuiet)
// so up-node exposure accrues between events.
class AvailabilityPredictor {
 public:
  AvailabilityPredictor() = default;
  explicit AvailabilityPredictor(const PredictorOptions& options) : options_(options) {}

  // Oracle mode: survival comes from the true per-second hazard plus any
  // forecast storms instead of the learned counts. The counts still accrue
  // (so instrumentation stays comparable); they are just not consulted.
  void EnableOracle(double true_hazard_per_s);
  bool oracle() const { return oracle_; }

  // One node joined.
  void ObserveGrant(double now_s);
  // One node was reclaimed (up -> down transition observed).
  void ObservePreemption(double now_s);
  // Nothing happened; accrue exposure up to now_s.
  void ObserveQuiet(double now_s);

  // Oracle storm forecast: `vms` expected kills at absolute time at_s.
  // Forecasts in the past are dropped as time advances.
  void ForecastStorm(double at_s, int vms);

  // True until the warm-up gates are met. Oracle mode is never cold.
  bool Cold() const;
  // Storm gate for the pre-migration trigger: online, true while at least
  // ~kStormGateKills decayed kills sit inside the recency window (a storm is
  // landing) — premigrating outside those windows buys rollback depth the
  // noisy estimate does not justify. Oracle mode always passes: its hit
  // probabilities are exact, so the cost model needs no noise gate.
  bool ElevatedRisk() const;
  int up_vms() const { return up_; }
  int64_t updates() const { return updates_; }

  // p: P(an up node is preempted within one window), smoothed.
  double PreemptProbabilityPerWindow() const;

  // P(one currently-up node is still up horizon_s from now). In oracle mode
  // exp(-hazard * h) discounted by forecast storms inside the horizon.
  double NodeSurvival(double horizon_s) const;
  // P(all `vms_used` placement nodes survive) = NodeSurvival^vms_used.
  double PlacementSurvival(int vms_used, double horizon_s) const;

 private:
  // Accrues up-node exposure windows up to now_s and drops stale forecasts.
  // Time never runs backwards on the DES.
  void Advance(double now_s);
  // Expected storm kills scheduled within (now, now + horizon_s].
  double ForecastKills(double horizon_s) const;

  PredictorOptions options_;
  bool oracle_ = false;
  double oracle_hazard_per_s_ = 0.0;
  bool have_now_ = false;
  double last_now_s_ = 0.0;
  int up_ = 0;
  // Raw cumulative tallies: the warm-up gates.
  double up_exposure_windows_ = 0.0;
  int64_t preemptions_ = 0;  // Observed up -> down transitions.
  int64_t updates_ = 0;      // Every Observe* call (instrumentation).
  // Recency-decayed shadows of the two tallies above — what the estimate and
  // the storm gate consult (identical to the raw tallies when decay is
  // disabled).
  double decayed_up_exposure_ = 0.0;
  double decayed_preemptions_ = 0.0;
  // (at_s, expected kills), sorted ascending by time. Flat per the hot-path
  // rule; a campaign scripts at most a handful of storms.
  std::vector<std::pair<double, int>> forecasts_;
};

// Survival-weighted scoring of ConfigSearch candidates.
class LiveputObjective {
 public:
  // `recovery_cost_s` is what one placement hit actually costs (expected
  // rollback re-work + restore stall). Negative means "the whole horizon",
  // i.e. the pure liveput product.
  LiveputObjective(const AvailabilityPredictor* predictor, double horizon_s,
                   int gpus_per_vm, double recovery_cost_s = -1.0)
      : predictor_(predictor),
        horizon_s_(horizon_s),
        gpus_per_vm_(gpus_per_vm),
        recovery_cost_s_(recovery_cost_s) {}

  // Distinct VMs a candidate occupies (ceil over the per-VM GPU count).
  int VmsUsed(const JobConfig& config) const;
  double PlacementSurvival(const JobConfig& config) const;

  // Pure liveput = est_examples_per_s × P(placement survives the horizon).
  // Monotone in survival at fixed throughput (property-tested).
  static double Liveput(double est_examples_per_s, double placement_survival) {
    return est_examples_per_s * placement_survival;
  }
  // Recovery-amortized score (see header comment). Also monotone in survival
  // at fixed throughput; equals Liveput() when recovery covers the horizon.
  double Score(double est_examples_per_s, double placement_survival) const;
  double Score(const JobConfig& config) const;

  // Liveput argmax over a sweep (ascending (P, m) order): strict >, so ties
  // keep the earliest candidate — deterministic and thread-count independent.
  // Null when the sweep is empty.
  const JobConfig* BestLiveput(const std::vector<JobConfig>& sweep) const;

 private:
  const AvailabilityPredictor* predictor_;
  double horizon_s_;
  int gpus_per_vm_;
  double recovery_cost_s_;
};

}  // namespace varuna

#endif  // SRC_MORPH_LIVEPUT_H_
