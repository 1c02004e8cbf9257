#include "src/morph/liveput.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace varuna {
namespace {

// Laplace pseudo-counts smoothing the preemption estimate.
constexpr double kLaplaceAlpha = 1.0;
// ElevatedRisk() (the pre-migration storm gate) needs at least this many
// decayed kills in the recency window — roughly "a multi-kill storm is
// landing right now", which is where early checkpoints actually pay.
constexpr double kStormGateKills = 1.5;

}  // namespace

void AvailabilityPredictor::EnableOracle(double true_hazard_per_s) {
  VARUNA_CHECK_GE(true_hazard_per_s, 0.0);
  oracle_ = true;
  oracle_hazard_per_s_ = true_hazard_per_s;
}

void AvailabilityPredictor::Advance(double now_s) {
  if (!have_now_) {
    have_now_ = true;
    last_now_s_ = now_s;
    return;
  }
  VARUNA_CHECK_GE(now_s, last_now_s_);
  const double dt = now_s - last_now_s_;
  if (dt > 0.0) {
    if (options_.decay_tau_s > 0.0) {
      const double keep = std::exp(-dt / options_.decay_tau_s);
      decayed_up_exposure_ *= keep;
      decayed_preemptions_ *= keep;
    }
    const double up_windows = static_cast<double>(up_) * (dt / options_.window_s);
    up_exposure_windows_ += up_windows;
    decayed_up_exposure_ += up_windows;
    last_now_s_ = now_s;
  }
  // Storms that already fired are history, not forecast.
  while (!forecasts_.empty() && forecasts_.front().first <= now_s) {
    forecasts_.erase(forecasts_.begin());
  }
}

void AvailabilityPredictor::ObserveGrant(double now_s) {
  Advance(now_s);
  ++up_;
  ++updates_;
}

void AvailabilityPredictor::ObservePreemption(double now_s) {
  Advance(now_s);
  up_ = std::max(0, up_ - 1);
  ++preemptions_;
  decayed_preemptions_ += 1.0;
  ++updates_;
}

void AvailabilityPredictor::ObserveQuiet(double now_s) {
  Advance(now_s);
  ++updates_;
}

void AvailabilityPredictor::ForecastStorm(double at_s, int vms) {
  VARUNA_CHECK_GE(vms, 0);
  if (vms == 0) {
    return;
  }
  const auto it = std::lower_bound(
      forecasts_.begin(), forecasts_.end(), at_s,
      [](const std::pair<double, int>& entry, double t) { return entry.first < t; });
  forecasts_.insert(it, {at_s, vms});
}

bool AvailabilityPredictor::Cold() const {
  if (oracle_) {
    return false;
  }
  return preemptions_ < options_.min_preemption_events ||
         up_exposure_windows_ < options_.min_exposure_windows;
}

bool AvailabilityPredictor::ElevatedRisk() const {
  if (oracle_) {
    // The oracle's hit probabilities are exact (true hazard + scripted storm
    // forecasts), so the cost model needs no noise gate in front of it.
    return true;
  }
  if (options_.decay_tau_s <= 0.0) {
    return true;  // No recency signal: defer to the cost model alone.
  }
  return decayed_preemptions_ >= kStormGateKills;
}

double AvailabilityPredictor::PreemptProbabilityPerWindow() const {
  return (decayed_preemptions_ + kLaplaceAlpha) / (decayed_up_exposure_ + 2.0 * kLaplaceAlpha);
}

double AvailabilityPredictor::ForecastKills(double horizon_s) const {
  double kills = 0.0;
  for (const auto& [at_s, vms] : forecasts_) {
    if (at_s > last_now_s_ + horizon_s) {
      break;  // Sorted: everything later is outside the horizon too.
    }
    kills += static_cast<double>(vms);
  }
  return kills;
}

double AvailabilityPredictor::NodeSurvival(double horizon_s) const {
  if (horizon_s <= 0.0) {
    return 1.0;
  }
  double survival = 0.0;
  if (oracle_) {
    survival = std::exp(-oracle_hazard_per_s_ * horizon_s);
    const double kills = ForecastKills(horizon_s);
    if (kills > 0.0) {
      // Storms reclaim uniformly among granted VMs: a node dodges the storm
      // with probability 1 - kills/up (clamped).
      const double hit =
          std::min(1.0, kills / static_cast<double>(std::max(1, up_)));
      survival *= 1.0 - hit;
    }
    return survival;
  }
  const double p = std::clamp(PreemptProbabilityPerWindow(), 0.0, 1.0);
  return std::pow(1.0 - p, horizon_s / options_.window_s);
}

double AvailabilityPredictor::PlacementSurvival(int vms_used, double horizon_s) const {
  VARUNA_CHECK_GE(vms_used, 0);
  if (vms_used == 0) {
    return 1.0;
  }
  return std::pow(NodeSurvival(horizon_s), static_cast<double>(vms_used));
}

int LiveputObjective::VmsUsed(const JobConfig& config) const {
  VARUNA_CHECK_GT(gpus_per_vm_, 0);
  return (config.gpus_used + gpus_per_vm_ - 1) / gpus_per_vm_;
}

double LiveputObjective::PlacementSurvival(const JobConfig& config) const {
  return predictor_->PlacementSurvival(VmsUsed(config), horizon_s_);
}

double LiveputObjective::Score(double est_examples_per_s,
                               double placement_survival) const {
  // Fraction of the horizon one placement hit actually forfeits. Negative
  // recovery cost (the default) means a hit forfeits everything — the pure
  // liveput product.
  double loss_fraction = 1.0;
  if (recovery_cost_s_ >= 0.0 && horizon_s_ > 0.0) {
    loss_fraction = std::min(1.0, recovery_cost_s_ / horizon_s_);
  }
  return est_examples_per_s * (1.0 - (1.0 - placement_survival) * loss_fraction);
}

double LiveputObjective::Score(const JobConfig& config) const {
  return Score(config.est_examples_per_s, PlacementSurvival(config));
}

const JobConfig* LiveputObjective::BestLiveput(const std::vector<JobConfig>& sweep) const {
  const JobConfig* best = nullptr;
  double best_score = 0.0;
  for (const JobConfig& config : sweep) {
    const double score = Score(config);
    if (best == nullptr || score > best_score) {
      best = &config;
      best_score = score;
    }
  }
  return best;
}

}  // namespace varuna
