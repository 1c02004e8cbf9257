// Liveput policy battery (src/morph/liveput.h): the online availability
// predictor converges to the true preemption probability of a synthetic
// Markov chain and its decayed outputs are pinned, the oracle mode reproduces
// the true hazard, the liveput objective is monotone in survival, and — the headline — every policy mode
// (reactive, proactive, oracle-proactive) is bit-replayable on seeded chaos
// campaigns, with a ≥20-campaign head-to-head asserting the proactive policy
// actually pays: at least as many mini-batches as reactive, strictly fewer
// rolled back, and the oracle as an upper bound on what prediction buys.
// Cold and degenerate regimes (empty history, stable market, capacity
// collapse) must fall back to the reactive decision sequence *exactly* —
// identical ElasticTrace fingerprints, not merely similar outcomes.
#include "src/morph/liveput.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/common/fnv1a.h"
#include "src/common/rng.h"

namespace varuna {
namespace {

// --- AvailabilityPredictor: convergence on a synthetic Markov chain. --------

TEST(AvailabilityPredictorTest, ConvergesToTrueMarkovParameters) {
  // True 2-state chain, discretized at the predictor's window: each window an
  // up node dies w.p. p and a down node restores w.p. q. The predictor sees
  // only the event stream and estimates p alone; decay is disabled so the
  // cumulative estimator's convergence is what is on trial.
  constexpr int kNodes = 24;
  constexpr double kTrueP = 0.04;
  constexpr double kTrueQ = 0.30;
  constexpr int kWindows = 4000;

  PredictorOptions options;
  options.window_s = 60.0;
  options.decay_tau_s = 0.0;  // Pure cumulative estimator.
  AvailabilityPredictor predictor(options);

  Rng rng(0x11fe);
  int up = 0;
  for (int window = 0; window < kWindows; ++window) {
    const double now_s = options.window_s * static_cast<double>(window);
    predictor.ObserveQuiet(now_s);  // Accrue the window's exposure first.
    int died = 0;
    int restored = 0;
    for (int node = 0; node < up; ++node) {
      died += rng.NextDouble() < kTrueP ? 1 : 0;
    }
    for (int node = 0; node < kNodes - up; ++node) {
      restored += rng.NextDouble() < kTrueQ ? 1 : 0;
    }
    for (int i = 0; i < died; ++i) {
      predictor.ObservePreemption(now_s);
    }
    for (int i = 0; i < restored; ++i) {
      predictor.ObserveGrant(now_s);
    }
    up += restored - died;
  }

  EXPECT_FALSE(predictor.Cold());
  EXPECT_EQ(predictor.up_vms(), up);
  EXPECT_NEAR(predictor.PreemptProbabilityPerWindow(), kTrueP, 0.15 * kTrueP);
  // Survival over a horizon is the per-window estimate compounded.
  const double horizon_s = 10.0 * options.window_s;
  EXPECT_NEAR(predictor.NodeSurvival(horizon_s),
              std::pow(1.0 - kTrueP, 10.0), 0.05);
}

TEST(AvailabilityPredictorTest, EmptyHistoryIsColdWithPriorEstimates) {
  AvailabilityPredictor predictor;
  EXPECT_TRUE(predictor.Cold());
  // Laplace priors: alpha / 2 alpha = 0.5 per window — pure prior, no data.
  EXPECT_DOUBLE_EQ(predictor.PreemptProbabilityPerWindow(), 0.5);
  const double survival = predictor.NodeSurvival(600.0);
  EXPECT_GE(survival, 0.0);
  EXPECT_LE(survival, 1.0);
  EXPECT_DOUBLE_EQ(predictor.PlacementSurvival(0, 600.0), 1.0);
}

TEST(AvailabilityPredictorTest, WarmupGatesRequireBothEventsAndExposure) {
  PredictorOptions options;
  options.min_exposure_windows = 10.0;
  options.min_preemption_events = 3;
  AvailabilityPredictor predictor(options);
  for (int i = 0; i < 4; ++i) {
    predictor.ObserveGrant(static_cast<double>(i));
  }
  // Plenty of exposure, zero preemptions: still cold.
  predictor.ObserveQuiet(4.0 + 20.0 * options.window_s);
  EXPECT_TRUE(predictor.Cold());
  predictor.ObservePreemption(4.0 + 21.0 * options.window_s);
  predictor.ObservePreemption(4.0 + 22.0 * options.window_s);
  EXPECT_TRUE(predictor.Cold());  // Two events < the three required.
  predictor.ObservePreemption(4.0 + 23.0 * options.window_s);
  EXPECT_FALSE(predictor.Cold());
}

// Every output the policy reads, pinned bit for bit over a scripted stream with
// decay on: warm-up (cold, no storm), a three-kill storm (warm, elevated) and
// the calm after it (the decay relaxes the gate). Observations that feed none
// of these outputs may change freely; these constants may not.
TEST(AvailabilityPredictorTest, DecayedOutputsArePinned) {
  struct Pin {
    double p;
    double node_survival;
    double placement_survival;
    bool elevated;
    bool cold;
  };
  const auto expect_pinned = [](const AvailabilityPredictor& predictor, const Pin& pin) {
    EXPECT_EQ(predictor.PreemptProbabilityPerWindow(), pin.p);
    EXPECT_EQ(predictor.NodeSurvival(900.0), pin.node_survival);
    EXPECT_EQ(predictor.PlacementSurvival(8, 900.0), pin.placement_survival);
    EXPECT_EQ(predictor.ElevatedRisk(), pin.elevated);
    EXPECT_EQ(predictor.Cold(), pin.cold);
  };
  AvailabilityPredictor predictor;  // Default options: decay_tau_s = 120.
  for (int i = 0; i < 8; ++i) {
    predictor.ObserveGrant(static_cast<double>(i));
  }
  for (int k = 1; k <= 10; ++k) {
    predictor.ObserveQuiet(60.0 * k);
  }
  {
    SCOPED_TRACE("warm-up");
    expect_pinned(predictor, {0x1.7135f676518cap-5, 0x1.005b6619a0136p-1,
                              0x1.02dec50b72fp-8, false, true});
  }
  predictor.ObservePreemption(610.0);
  predictor.ObservePreemption(615.0);
  predictor.ObservePreemption(620.0);
  {
    SCOPED_TRACE("storm");
    expect_pinned(predictor, {0x1.73ae987dbc1f8p-3, 0x1.963e68ace1c71p-5,
                              0x1.41b5ac420182cp-35, true, false});
  }
  predictor.ObserveGrant(700.0);
  for (int k = 13; k <= 20; ++k) {
    predictor.ObserveQuiet(60.0 * k);
  }
  {
    SCOPED_TRACE("calm");
    expect_pinned(predictor, {0x1.e4b982d5e7b4dp-5, 0x1.9a2b86fc18699p-2,
                              0x1.5b7103d5915c6p-11, false, false});
  }
}

// --- Oracle mode. ------------------------------------------------------------

TEST(AvailabilityPredictorTest, OracleReproducesTrueHazard) {
  AvailabilityPredictor predictor;
  const double hazard = 1.0 / 3600.0;
  predictor.EnableOracle(hazard);
  EXPECT_TRUE(predictor.oracle());
  EXPECT_FALSE(predictor.Cold());  // Oracle is never cold.
  const double horizon_s = 900.0;
  EXPECT_NEAR(predictor.NodeSurvival(horizon_s), std::exp(-hazard * horizon_s), 1e-12);
  EXPECT_NEAR(predictor.PlacementSurvival(8, horizon_s),
              std::pow(std::exp(-hazard * horizon_s), 8.0), 1e-12);
}

TEST(AvailabilityPredictorTest, OracleForecastStormsDiscountSurvival) {
  AvailabilityPredictor predictor;
  predictor.EnableOracle(1.0 / 3600.0);
  for (int i = 0; i < 8; ++i) {
    predictor.ObserveGrant(0.0);
  }
  const double calm = predictor.NodeSurvival(900.0);
  predictor.ForecastStorm(/*at_s=*/600.0, /*vms=*/4);
  const double stormy = predictor.NodeSurvival(900.0);
  EXPECT_LT(stormy, calm);
  // A forecast beyond the horizon does not discount it.
  AvailabilityPredictor far;
  far.EnableOracle(1.0 / 3600.0);
  far.ObserveGrant(0.0);
  const double before = far.NodeSurvival(300.0);
  far.ForecastStorm(/*at_s=*/1200.0, /*vms=*/4);
  EXPECT_DOUBLE_EQ(far.NodeSurvival(300.0), before);
  // Fired storms are history: once time passes the forecast, it drops.
  predictor.ObserveQuiet(700.0);
  EXPECT_NEAR(predictor.NodeSurvival(900.0), calm, 1e-12);
}

// --- LiveputObjective: monotonicity and amortization. ------------------------

TEST(LiveputObjectiveTest, LiveputAndScoreAreMonotoneInSurvival) {
  AvailabilityPredictor predictor;
  const LiveputObjective amortized(&predictor, /*horizon_s=*/900.0,
                                   /*gpus_per_vm=*/1, /*recovery_cost_s=*/120.0);
  const LiveputObjective full_loss(&predictor, 900.0, 1);  // recovery < 0.
  double previous_liveput = -1.0;
  double previous_score = -1.0;
  for (double survival = 0.0; survival <= 1.0; survival += 0.05) {
    const double liveput = LiveputObjective::Liveput(100.0, survival);
    const double score = amortized.Score(100.0, survival);
    EXPECT_GT(liveput, previous_liveput);
    EXPECT_GT(score, previous_score);
    // Amortizing can only help, and survival-weighting can only discount.
    EXPECT_GE(score, liveput - 1e-12);
    EXPECT_LE(score, 100.0 + 1e-12);
    // Full-horizon recovery degrades the score to the pure liveput product.
    EXPECT_NEAR(full_loss.Score(100.0, survival), liveput, 1e-12);
    previous_liveput = liveput;
    previous_score = score;
  }
}

TEST(LiveputObjectiveTest, PlacementSurvivalIsMonotoneInVmsUsed) {
  AvailabilityPredictor predictor;
  predictor.ObserveGrant(0.0);
  predictor.ObservePreemption(3600.0);
  double previous = 2.0;
  for (int vms = 1; vms <= 16; ++vms) {
    const double survival = predictor.PlacementSurvival(vms, 900.0);
    EXPECT_GT(survival, 0.0);
    EXPECT_LT(survival, previous);  // Strictly more VMs, strictly more risk.
    previous = survival;
  }
}

// --- Campaign helpers. -------------------------------------------------------

ChaosCampaignSpec StormySpec(uint64_t seed, MorphPolicy policy) {
  ChaosCampaignSpec spec = StormyChaosCampaign(seed);
  spec.options.morph_policy = policy;
  return spec;
}

// --- Bit-identical replay of every policy mode. ------------------------------

TEST(LiveputReplayTest, ProactivePoliciesReplayBitIdentically) {
  for (const MorphPolicy policy :
       {MorphPolicy::kProactive, MorphPolicy::kOracleProactive}) {
    for (const uint64_t seed : {5u, 23u}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   " seed " + std::to_string(seed));
      const ChaosReport first = RunChaosCampaign(StormySpec(seed, policy));
      const ChaosReport second = RunChaosCampaign(StormySpec(seed, policy));
      EXPECT_EQ(first.fingerprint, second.fingerprint);
      EXPECT_EQ(first.stats.minibatches_done, second.stats.minibatches_done);
      EXPECT_EQ(first.stats.premigrated_shards, second.stats.premigrated_shards);
      EXPECT_EQ(first.stats.proactive_morphs, second.stats.proactive_morphs);
    }
  }
}

// --- The head-to-head: does prediction actually pay? -------------------------

struct PolicyTotals {
  int64_t minibatches = 0;
  int64_t rolled_back = 0;
  int64_t restarts = 0;
  int64_t premigrated_shards = 0;
  int64_t proactive_morphs = 0;
};

PolicyTotals RunPolicy(MorphPolicy policy, int seeds) {
  PolicyTotals totals;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    const ChaosReport report = RunChaosCampaign(StormySpec(seed, policy));
    totals.minibatches += report.stats.minibatches_done;
    totals.rolled_back += report.stats.minibatches_rolled_back;
    totals.restarts += report.stats.restarts;
    totals.premigrated_shards += report.stats.premigrated_shards;
    totals.proactive_morphs += report.stats.proactive_morphs;
  }
  return totals;
}

TEST(LiveputHeadToHeadTest, ProactiveBeatsReactiveOverTwentyStormCampaigns) {
  constexpr int kSeeds = 20;
  const PolicyTotals reactive = RunPolicy(MorphPolicy::kReactive, kSeeds);
  const PolicyTotals proactive = RunPolicy(MorphPolicy::kProactive, kSeeds);
  const PolicyTotals oracle = RunPolicy(MorphPolicy::kOracleProactive, kSeeds);

  // Reactive never pre-migrates; the proactive policies demonstrably do.
  EXPECT_EQ(reactive.premigrated_shards, 0);
  EXPECT_EQ(reactive.proactive_morphs, 0);
  EXPECT_GT(proactive.premigrated_shards, 0);
  EXPECT_GT(oracle.premigrated_shards, 0);

  // The acceptance bar: across the batch the online proactive policy
  // completes at least as many mini-batches as reactive while strictly
  // reducing the rolled-back count.
  EXPECT_GE(proactive.minibatches, reactive.minibatches);
  EXPECT_LT(proactive.rolled_back, reactive.rolled_back);

  // The oracle upper-bounds what prediction buys: with the true hazard and
  // the storm schedule in hand it avoids at least as much re-work as the
  // online estimator, without giving up reactive-level throughput.
  EXPECT_LE(oracle.rolled_back, proactive.rolled_back);
  EXPECT_GE(oracle.minibatches, reactive.minibatches);
}

// --- Golden campaign fingerprints. -------------------------------------------
//
// Full campaigns' trace fingerprints, pinned: any change to a decision
// sequence or to the serial engine's firing order must be a conscious golden
// update, not an accident. The proactive row pins predictor estimates,
// objective scoring and pre-migration trigger arithmetic (seed 7 premigrates
// and morphs on today's tuning); the random seed-37 rows pin the provision
// tick's proactive test under both liveput policies (each morphs
// proactively, and the test changes that session's outcome rather than
// relabelling a growth morph); the reactive rows pin the plain chaos sweep
// and the fast-recovery path (delta checkpoints, tiered restore).

struct GoldenCampaign {
  const char* name;
  ChaosCampaignSpec (*factory)(uint64_t seed);
  uint64_t seed;
  MorphPolicy policy;
  uint64_t fingerprint;
  bool morphs_proactively = false;  // The session makes a proactive morph.
};

void PrintTo(const GoldenCampaign& row, std::ostream* os) { *os << row.name; }

class CampaignFingerprintTest : public ::testing::TestWithParam<GoldenCampaign> {};

TEST_P(CampaignFingerprintTest, IsPinned) {
  const GoldenCampaign& row = GetParam();
  ChaosCampaignSpec spec = row.factory(row.seed);
  spec.options.morph_policy = row.policy;
  const ChaosReport report = RunChaosCampaign(spec);
  if (row.policy == MorphPolicy::kProactive) {
    EXPECT_GT(report.stats.premigrated_shards, 0);  // The policy is exercised.
  }
  if (row.morphs_proactively) {
    EXPECT_GT(report.stats.proactive_morphs, 0);
  }
  EXPECT_EQ(report.fingerprint, row.fingerprint)
      << row.name << " decision sequence changed: new fingerprint 0x" << std::hex
      << report.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, CampaignFingerprintTest,
    ::testing::Values(
        GoldenCampaign{"ProactiveStormy7", StormyChaosCampaign, 7, MorphPolicy::kProactive,
                       0x5a3e8d8e79a3b23fULL},
        GoldenCampaign{"ProactiveRandom37", RandomChaosCampaign, 37, MorphPolicy::kProactive,
                       0x02481af71a43262aULL, /*morphs_proactively=*/true},
        GoldenCampaign{"OracleRandom37", RandomChaosCampaign, 37,
                       MorphPolicy::kOracleProactive, 0x0af23d32abe969afULL,
                       /*morphs_proactively=*/true},
        GoldenCampaign{"ReactiveRandom1", RandomChaosCampaign, 1, MorphPolicy::kReactive,
                       0x69741436a7b569f5ULL},
        GoldenCampaign{"ReactiveRandom2", RandomChaosCampaign, 2, MorphPolicy::kReactive,
                       0xc9fe955a4c9ad6d3ULL},
        GoldenCampaign{"ReactiveRandom3", RandomChaosCampaign, 3, MorphPolicy::kReactive,
                       0x8031ba9958115989ULL},
        GoldenCampaign{"ReactiveFastRecovery1", FastRecoveryStormCampaign, 1,
                       MorphPolicy::kReactive, 0xd367351051c0de81ULL}),
    [](const ::testing::TestParamInfo<GoldenCampaign>& param_info) {
      return std::string(param_info.param.name);
    });

// --- Session-set digests. -----------------------------------------------------
//
// Every seeded campaign of the three families under every policy: 1,560
// sessions, each row folding its sessions' trace fingerprints in seed order
// into one FNV-1a digest. A manager change that claims to move no result must
// hold all nine rows; a change that moves one session moves its row.

struct SessionSet {
  const char* name;
  ChaosCampaignSpec (*factory)(uint64_t seed);
  uint64_t seeds;  // Campaign seeds 1..seeds.
  MorphPolicy policy;
  uint64_t digest;
};

void PrintTo(const SessionSet& row, std::ostream* os) { *os << row.name; }

class SessionSetDigestTest : public ::testing::TestWithParam<SessionSet> {};

TEST_P(SessionSetDigestTest, IsPinned) {
  const SessionSet& row = GetParam();
  Fnv1a digest;
  for (uint64_t seed = 1; seed <= row.seeds; ++seed) {
    ChaosCampaignSpec spec = row.factory(seed);
    spec.options.morph_policy = row.policy;
    digest.U64(RunChaosCampaign(spec).fingerprint);
  }
  EXPECT_EQ(digest.hash(), row.digest)
      << row.name << " session set changed: new digest 0x" << std::hex << digest.hash();
}

INSTANTIATE_TEST_SUITE_P(
    Golden, SessionSetDigestTest,
    ::testing::Values(
        SessionSet{"ReactiveRandom", RandomChaosCampaign, 200, MorphPolicy::kReactive,
                   0x05dcfb10d9044edbULL},
        SessionSet{"ProactiveRandom", RandomChaosCampaign, 200, MorphPolicy::kProactive,
                   0x9d9194b0a245837eULL},
        SessionSet{"OracleRandom", RandomChaosCampaign, 200, MorphPolicy::kOracleProactive,
                   0xe72690ef51186545ULL},
        SessionSet{"ReactiveStormy", StormyChaosCampaign, 200, MorphPolicy::kReactive,
                   0xc854ea331f34fe26ULL},
        SessionSet{"ProactiveStormy", StormyChaosCampaign, 200, MorphPolicy::kProactive,
                   0x48d9eacf5d85a4a4ULL},
        SessionSet{"OracleStormy", StormyChaosCampaign, 200, MorphPolicy::kOracleProactive,
                   0x30ac752a1cf2d210ULL},
        SessionSet{"ReactiveFastRecovery", FastRecoveryStormCampaign, 120,
                   MorphPolicy::kReactive, 0xc412fa1be66a2720ULL},
        SessionSet{"ProactiveFastRecovery", FastRecoveryStormCampaign, 120,
                   MorphPolicy::kProactive, 0x8a5b67a1987936c9ULL},
        SessionSet{"OracleFastRecovery", FastRecoveryStormCampaign, 120,
                   MorphPolicy::kOracleProactive, 0x53e1a10ee389832cULL}),
    [](const ::testing::TestParamInfo<SessionSet>& param_info) {
      return std::string(param_info.param.name);
    });

// --- Cold and degenerate regimes fall back to reactive, exactly. -------------

TEST(LiveputFallbackTest, StableMarketKeepsPredictorColdAndMatchesReactive) {
  // No hazard, no storms, no volatility: the predictor never observes a
  // preemption, stays cold, and the proactive session's decision sequence is
  // the reactive one bit-for-bit.
  auto make = [](MorphPolicy policy) {
    ChaosCampaignSpec spec = DefaultChaosCampaign(77);
    spec.preemption_hazard_per_s = 0.0;
    spec.volatility = 0.0;
    spec.options.morph_policy = policy;
    return spec;
  };
  const ChaosReport reactive = RunChaosCampaign(make(MorphPolicy::kReactive));
  const ChaosReport proactive = RunChaosCampaign(make(MorphPolicy::kProactive));
  EXPECT_EQ(proactive.fingerprint, reactive.fingerprint);
  EXPECT_EQ(proactive.stats.premigrated_shards, 0);
  EXPECT_EQ(proactive.stats.proactive_morphs, 0);
  EXPECT_GT(proactive.stats.minibatches_done, 0);
}

TEST(LiveputFallbackTest, CapacityCollapseBelowWarmupMatchesReactive) {
  // A capacity crash that reclaims only two VMs stays under the predictor's
  // three-preemption warm-up gate: still cold, still exactly reactive —
  // including the degraded-mode machinery the crash exercises.
  auto make = [](MorphPolicy policy) {
    ChaosCampaignSpec spec = DefaultChaosCampaign(78);
    spec.preemption_hazard_per_s = 0.0;
    spec.volatility = 0.0;
    ChaosAction crash;
    crash.at_s = 1800.0;
    crash.kind = ChaosActionKind::kCapacityCrash;
    crash.magnitude = 0.9;  // ceil(0.1 * 20) = 2 reclaimed < 3 required.
    crash.duration_s = 900.0;
    spec.plan = ChaosPlan::Scripted({crash});
    spec.options.morph_policy = policy;
    return spec;
  };
  const ChaosReport reactive = RunChaosCampaign(make(MorphPolicy::kReactive));
  const ChaosReport proactive = RunChaosCampaign(make(MorphPolicy::kProactive));
  EXPECT_EQ(proactive.fingerprint, reactive.fingerprint);
  EXPECT_EQ(proactive.stats.premigrated_shards, 0);
}

}  // namespace
}  // namespace varuna
