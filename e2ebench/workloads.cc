#include "e2ebench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>

#include "src/cluster/fail_stutter.h"
#include "src/cluster/spot_market.h"
#include "src/common/units.h"
#include "src/model/op_graph.h"

namespace varuna::e2e {
namespace {

constexpr int kFig8Hours = 60;
constexpr int kChaosCampaigns = 200;
constexpr int kStormSeeds = 20;
constexpr int kDecisions = 1000;
// Replayed per checked run: enough to catch a nondeterministic path, few
// enough that the gate stays a small share of a run.
constexpr int kCampaignReplays = 4;
constexpr int kOracleDecisions = 4;

double SteadySeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// bench/fig8_morphing_timeline's Run(60) setup: GPT-2 2.5B on up to 160 NC6
// spot VMs, market seed 7, trainer seed 11, stutter seed 13, reactive policy.
TrainerOptions Fig8Options() {
  TrainerOptions options;
  options.total_batch = 8192;
  options.demand_vms = 160;
  options.checkpoint_every_minibatches = 10;
  options.provision_check_interval_s = 1800.0;
  options.seed = 11;
  return options;
}

class Fig8Session {
 public:
  Fig8Session() : cluster_(CommodityFabric()), market_(&engine_, Rng(7), 300.0) {
    SpotPoolDynamics dynamics;
    dynamics.mean_availability = 0.70;
    dynamics.volatility = 0.14;
    dynamics.reversion_rate = 1.0 / (8.0 * kHour);
    dynamics.preemption_hazard = 1.0 / (200.0 * kHour);
    dynamics.max_grants_per_tick = 16;
    dynamics.reclaim_slack_vms = 12;
    const int pool = market_.AddPool(Nc6V3(), 160, dynamics);
    trainer_ = std::make_unique<ElasticTrainer>(&engine_, &cluster_, &market_, pool, Nc6V3(),
                                                Gpt2_2_5B(), Fig8Options());
    stutter_ = std::make_unique<FailStutterInjector>(&engine_, &cluster_, Rng(13),
                                                     FailStutterOptions());
    trainer_->Start();
    market_.Start();
    stutter_->Start();
  }
  Fig8Session(const Fig8Session&) = delete;
  Fig8Session& operator=(const Fig8Session&) = delete;

  void RunUntil(double t) { engine_.RunUntil(t); }

  SessionOutcome Finish() const {
    engine_.CheckInvariants();
    trainer_->CheckInvariants();
    SessionOutcome outcome;
    outcome.trace = CaptureElasticTrace(engine_, *trainer_);
    outcome.fingerprint = outcome.trace.Fingerprint();
    outcome.stats = trainer_->stats();
    return outcome;
  }

 private:
  SimEngine engine_;
  Cluster cluster_;
  SpotMarket market_;
  std::unique_ptr<ElasticTrainer> trainer_;
  std::unique_ptr<FailStutterInjector> stutter_;
};

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A permutation of [0, n) drawn from `seed` (Fisher-Yates).
std::vector<size_t> ShuffledIndices(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  return order;
}

// `count` distinct indices below `n`, drawn from `seed`, ascending.
std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> order = ShuffledIndices(n, seed ^ 0xC4EC4ULL);
  order.resize(std::min(n, count));
  std::sort(order.begin(), order.end());
  return order;
}

// Timed operations per session: a failed session fails every one it spans.
int64_t OpsPerSession(Workload workload) {
  return workload == Workload::kFig8Session ? kFig8Hours : 1;
}

std::string SessionName(const SessionSetup& setup) {
  if (setup.fig8) {
    return "fig8 session";
  }
  return "campaign seed " + std::to_string(setup.campaign.options.seed) + " policy " +
         std::to_string(static_cast<int>(setup.campaign.options.morph_policy));
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "fig8-session") {
    return Workload::kFig8Session;
  }
  if (name == "chaos-sweep") {
    return Workload::kChaosSweep;
  }
  if (name == "storm-h2h") {
    return Workload::kStormH2h;
  }
  if (name == "morph-decisions") {
    return Workload::kMorphDecisions;
  }
  return std::nullopt;
}

std::vector<SessionSetup> WorkloadSessions(Workload workload) {
  std::vector<SessionSetup> sessions;
  switch (workload) {
    case Workload::kFig8Session: {
      SessionSetup setup;
      setup.fig8 = true;
      setup.campaign.spec = Gpt2_2_5B();
      setup.campaign.options = Fig8Options();
      setup.campaign.horizon_s = kFig8Hours * kHour;
      sessions.push_back(setup);
      break;
    }
    case Workload::kChaosSweep:
      for (int seed = 1; seed <= kChaosCampaigns; ++seed) {
        sessions.push_back(SessionSetup{false, RandomChaosCampaign(static_cast<uint64_t>(seed))});
      }
      break;
    case Workload::kStormH2h:
      // Seed-major, as bench_chaos_campaigns' head-to-head runs them.
      for (int seed = 1; seed <= kStormSeeds; ++seed) {
        for (const MorphPolicy policy : {MorphPolicy::kReactive, MorphPolicy::kProactive,
                                         MorphPolicy::kOracleProactive}) {
          SessionSetup setup{false, FastRecoveryStormCampaign(static_cast<uint64_t>(seed))};
          setup.campaign.options.morph_policy = policy;
          sessions.push_back(setup);
        }
      }
      break;
    case Workload::kMorphDecisions:
      break;
  }
  return sessions;
}

SessionOutcome RunSession(const SessionSetup& setup) {
  if (setup.fig8) {
    Fig8Session session;
    session.RunUntil(setup.campaign.horizon_s);
    return session.Finish();
  }
  const ChaosReport report = RunChaosCampaign(setup.campaign);
  return SessionOutcome{report.trace, report.fingerprint, report.stats};
}

DecisionModel PrepareDecisionModel() {
  DecisionModel model;
  model.spec = Gpt2_8_3B();
  const OpGraph graph = BuildTransformerOpGraph(model.spec);
  model.sections = IdentifyCutPoints(graph, model.spec.num_layers).value();
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 42);
  Rng rng(99);
  model.calibration = Calibrate(model.sections, cluster, CalibrationOptions(), &rng).value();
  model.constraints.total_batch = 8192;
  model.constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  return model;
}

std::vector<int> DecisionWalk() {
  std::vector<int> walk;
  walk.reserve(kDecisions);
  Rng rng(0xC0FFEE);
  int gpus = 128;
  for (int i = 0; i < kDecisions; ++i) {
    walk.push_back(gpus);
    gpus = std::clamp(gpus + static_cast<int>(rng.UniformInt(-12, 12)), 16, 160);
  }
  return walk;
}

WorkloadRun RunWorkload(Workload workload, uint64_t seed) {
  WorkloadRun run;
  if (workload == Workload::kFig8Session) {
    Fig8Session session;
    run.first_timed_call_s = SteadySeconds();
    double last = run.first_timed_call_s;
    for (int hour = 1; hour <= kFig8Hours; ++hour) {
      session.RunUntil(hour * kHour);
      const double now = SteadySeconds();
      run.op_ms.push_back(1e3 * (now - last));
      last = now;
    }
    run.wall_s = last - run.first_timed_call_s;
    run.peak_rss_kb = PeakRssKb();
    run.sessions.push_back(session.Finish());
    return run;
  }

  if (workload == Workload::kMorphDecisions) {
    const DecisionModel model = PrepareDecisionModel();
    const std::vector<int> walk = DecisionWalk();
    ConfigSearch search(&model.spec, &model.sections, &model.calibration);
    run.decisions.reserve(walk.size());
    run.first_timed_call_s = SteadySeconds();
    double last = run.first_timed_call_s;
    for (const int gpus : walk) {
      run.decisions.push_back(DecisionOutcome{gpus, search.Best(gpus, model.constraints).value()});
      const double now = SteadySeconds();
      run.op_ms.push_back(1e3 * (now - last));
      last = now;
    }
    run.wall_s = last - run.first_timed_call_s;
    run.peak_rss_kb = PeakRssKb();
    run.search_stats = search.stats();
    run.schedule_stats = search.schedule_cache()->stats();
    return run;
  }

  const std::vector<SessionSetup> sessions = WorkloadSessions(workload);
  // The seed picks the execution order; results land in canonical slots.
  const std::vector<size_t> order = ShuffledIndices(sessions.size(), seed);
  run.sessions.resize(sessions.size());
  run.op_ms.resize(sessions.size());
  run.first_timed_call_s = SteadySeconds();
  double last = run.first_timed_call_s;
  for (const size_t index : order) {
    run.sessions[index] = RunSession(sessions[index]);
    const double now = SteadySeconds();
    run.op_ms[index] = 1e3 * (now - last);
    last = now;
  }
  run.wall_s = last - run.first_timed_call_s;
  run.peak_rss_kb = PeakRssKb();
  return run;
}

uint64_t DecisionFingerprint(const DecisionOutcome& decision) {
  uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  const JobConfig& config = decision.config;
  mix(static_cast<uint64_t>(decision.gpus));
  mix(static_cast<uint64_t>(config.pipeline_depth));
  mix(static_cast<uint64_t>(config.data_parallel));
  mix(static_cast<uint64_t>(config.microbatch_size));
  mix(static_cast<uint64_t>(config.num_microbatches));
  mix(static_cast<uint64_t>(config.gpus_used));
  mix_double(config.est_minibatch_s);
  mix_double(config.est_examples_per_s);
  return hash;
}

int64_t CheckWorkload(Workload workload, const WorkloadRun& run, uint64_t seed, bool replay,
                      std::vector<std::string>* notes) {
  if (workload == Workload::kMorphDecisions) {
    std::vector<bool> bad(run.decisions.size(), false);
    for (size_t i = 0; i < run.decisions.size(); ++i) {
      const DecisionOutcome& d = run.decisions[i];
      const JobConfig& c = d.config;
      if (c.pipeline_depth < 1 || c.data_parallel < 1 ||
          c.gpus_used != c.pipeline_depth * c.data_parallel || c.gpus_used > d.gpus ||
          !(c.est_examples_per_s > 0.0)) {
        bad[i] = true;
        notes->push_back("decision " + std::to_string(i) + " is not a well-formed config");
      }
    }
    if (replay) {
      const DecisionModel model = PrepareDecisionModel();
      for (const size_t i : SampleIndices(run.decisions.size(), kOracleDecisions, seed)) {
        const DecisionOutcome& d = run.decisions[i];
        ConfigSearch oracle(&model.spec, &model.sections, &model.calibration);
        const Result<JobConfig> expected = oracle.Best(d.gpus, model.constraints);
        if (!expected.ok() || !(expected.value() == d.config)) {
          bad[i] = true;
          notes->push_back("decision " + std::to_string(i) + " at G=" + std::to_string(d.gpus) +
                           " differs from the cold ConfigSearch oracle");
        }
      }
    }
    return std::count(bad.begin(), bad.end(), true);
  }

  const std::vector<SessionSetup> sessions = WorkloadSessions(workload);
  std::vector<bool> bad(run.sessions.size(), false);
  for (size_t i = 0; i < run.sessions.size(); ++i) {
    const SessionStats& stats = run.sessions[i].stats;
    if (stats.minibatches_attempted != stats.minibatches_done + stats.minibatches_rolled_back) {
      bad[i] = true;
      notes->push_back(SessionName(sessions[i]) + " breaks mini-batch conservation");
    }
  }
  if (replay) {
    const size_t count = workload == Workload::kFig8Session ? 1 : kCampaignReplays;
    for (const size_t i : SampleIndices(run.sessions.size(), count, seed)) {
      const SessionOutcome again = RunSession(sessions[i]);
      const SessionOutcome& first = run.sessions[i];
      if (again.fingerprint != first.fingerprint || !(again.trace == first.trace)) {
        bad[i] = true;
        notes->push_back(SessionName(sessions[i]) + " did not replay bit-identically");
      }
    }
  }
  return std::count(bad.begin(), bad.end(), true) * OpsPerSession(workload);
}

}  // namespace varuna::e2e
