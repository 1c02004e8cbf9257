// Chaos campaign sweep (varuna-verify): runs N seeded random fault campaigns
// (src/chaos) against full elastic-training sessions and reports aggregate
// fault/recovery statistics plus wall-clock throughput of the campaign
// engine itself. Every campaign re-checks the engine's and manager's
// invariants (the process aborts on any violation) and a sample of seeds is
// re-run to prove bit-identical replay, so this doubles as a long-running
// smoke beyond the unit-test battery: `--campaigns 200` is the CI setting.
//
//   bench_chaos_campaigns [--campaigns N] [--smoke] [--json PATH]
//                         [--policy reactive|proactive|oracle] [--fast-recovery]
//
// `--campaigns=N` is accepted too. `--smoke` clamps the sweep to 8 campaigns
// and the head-to-head to 4 seeds. `--policy` selects the morph policy for
// the random-campaign sweep (the head-to-head always runs all three).
// `--fast-recovery` turns on the delta-checkpoint + locality-aware-restore
// recovery path for the random sweep; the dedicated recovery before/after
// section always runs both variants on identical seeds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/chaos.h"

namespace varuna {
namespace {

// IntFromArgs handles "--campaigns N"; this adds the "--campaigns=N" form.
int CampaignsFromArgs(int argc, char** argv, int fallback) {
  const std::string prefix = "--campaigns=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoi(arg.c_str() + prefix.size());
    }
  }
  return IntFromArgs(argc, argv, "--campaigns", fallback);
}

MorphPolicy PolicyFromArgs(int argc, char** argv) {
  std::string value;
  const std::string prefix = "--policy=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
    } else if (arg == "--policy" && i + 1 < argc) {
      value = argv[i + 1];
    }
  }
  if (value == "proactive") {
    return MorphPolicy::kProactive;
  }
  if (value == "oracle") {
    return MorphPolicy::kOracleProactive;
  }
  if (!value.empty() && value != "reactive") {
    std::fprintf(stderr, "unknown --policy '%s' (want reactive|proactive|oracle)\n",
                 value.c_str());
    std::exit(2);
  }
  return MorphPolicy::kReactive;
}

const char* PolicyName(MorphPolicy policy) {
  switch (policy) {
    case MorphPolicy::kReactive:
      return "reactive";
    case MorphPolicy::kProactive:
      return "proactive";
    case MorphPolicy::kOracleProactive:
      return "oracle";
  }
  return "?";
}

// Per-policy aggregates over the head-to-head storm campaigns.
struct PolicyAggregate {
  int64_t minibatches = 0;
  int64_t rolled_back = 0;
  int64_t restarts = 0;
  int64_t proactive_morphs = 0;
  int64_t premigrated_shards = 0;
  double premigrated_bytes = 0.0;
  double stalled_s = 0.0;
};

// Total modelled restore seconds a session spent, across every pricing tier.
double RestoreSeconds(const SessionStats& stats) {
  return stats.restore_setup_s + stats.restore_ssd_s + stats.restore_peer_s +
         stats.restore_cloud_s;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

// Recovery-path before/after: the same seeded storm campaigns (reactive
// policy) with the legacy restore path and with the fast recovery path.
// Identical fault schedules per seed, so the downtime delta isolates the
// delta-chain + locality machinery. Medians are per campaign.
struct RecoveryComparison {
  double before_median_downtime_s = 0.0;
  double after_median_downtime_s = 0.0;
  double before_restore_s = 0.0;  // summed over campaigns
  double after_restore_s = 0.0;
  int64_t after_delta_checkpoints = 0;
  int64_t after_records_pruned = 0;
};

RecoveryComparison RecoveryBeforeAfter(int seeds) {
  std::printf("=== Recovery path before/after: %d storm campaigns, reactive policy ===\n\n",
              seeds);
  RecoveryComparison cmp;
  std::vector<double> before_downtime;
  std::vector<double> after_downtime;
  before_downtime.reserve(static_cast<size_t>(seeds));
  after_downtime.reserve(static_cast<size_t>(seeds));
  for (int seed = 1; seed <= seeds; ++seed) {
    const ChaosCampaignSpec before_spec = StormyChaosCampaign(static_cast<uint64_t>(seed));
    const ChaosCampaignSpec after_spec =
        FastRecoveryStormCampaign(static_cast<uint64_t>(seed));
    const ChaosReport before = RunChaosCampaign(before_spec);
    const ChaosReport after = RunChaosCampaign(after_spec);
    // Replay assertion on a sample of seeds: the fast recovery path must stay
    // bit-replayable before its downtime numbers are trusted.
    if (seed % 4 == 1) {
      const ChaosReport replay = RunChaosCampaign(after_spec);
      if (replay.fingerprint != after.fingerprint || !(replay.trace == after.trace)) {
        std::fprintf(stderr, "FATAL: fast-recovery seed %d replay diverged\n", seed);
        std::exit(1);
      }
    }
    before_downtime.push_back(before.stats.stalled_s);
    after_downtime.push_back(after.stats.stalled_s);
    cmp.before_restore_s += RestoreSeconds(before.stats);
    cmp.after_restore_s += RestoreSeconds(after.stats);
    cmp.after_delta_checkpoints += after.stats.delta_checkpoints;
    cmp.after_records_pruned += after.stats.checkpoint_records_pruned;
  }
  cmp.before_median_downtime_s = Median(before_downtime);
  cmp.after_median_downtime_s = Median(after_downtime);
  Table table({"recovery path", "median downtime s", "restore s (sum)", "delta ckpts",
               "records pruned"});
  table.AddRow({"legacy (full ckpt, cloud restore)", Table::Num(cmp.before_median_downtime_s, 1),
                Table::Num(cmp.before_restore_s, 1), "0", "0"});
  table.AddRow({"fast (delta+locality)", Table::Num(cmp.after_median_downtime_s, 1),
                Table::Num(cmp.after_restore_s, 1), std::to_string(cmp.after_delta_checkpoints),
                std::to_string(cmp.after_records_pruned)});
  std::printf("%s\n", table.Render().c_str());
  const double reduction =
      cmp.before_median_downtime_s > 0.0
          ? 100.0 * (1.0 - cmp.after_median_downtime_s / cmp.before_median_downtime_s)
          : 0.0;
  std::printf("median downtime: %.1f s -> %.1f s (%.1f%% reduction, %s)\n\n",
              cmp.before_median_downtime_s, cmp.after_median_downtime_s, reduction,
              cmp.after_median_downtime_s <= cmp.before_median_downtime_s ? "fast path wins"
                                                                          : "NO WIN");
  return cmp;
}

// Runs the same seeded storm campaigns under all three morph policies and
// proves bit-identical replay of each policy before reporting. This is the
// headline liveput evaluation: identical fault schedule, only the policy
// differs.
void HeadToHead(int seeds, bool* proactive_beats_reactive, PolicyAggregate* out_aggs) {
  constexpr MorphPolicy kPolicies[] = {MorphPolicy::kReactive, MorphPolicy::kProactive,
                                       MorphPolicy::kOracleProactive};
  std::printf(
      "=== Head-to-head: %d fast-recovery storm campaigns x {reactive, proactive, oracle} "
      "===\n\n",
      seeds);
  for (int seed = 1; seed <= seeds; ++seed) {
    for (int p = 0; p < 3; ++p) {
      ChaosCampaignSpec spec = FastRecoveryStormCampaign(static_cast<uint64_t>(seed));
      spec.options.morph_policy = kPolicies[p];
      const ChaosReport report = RunChaosCampaign(spec);
      // Replay assertion before any numbers are trusted: every policy mode
      // must be bit-replayable on the shared DES.
      if (seed % 4 == 1) {
        const ChaosReport replay = RunChaosCampaign(spec);
        if (replay.fingerprint != report.fingerprint || !(replay.trace == report.trace)) {
          std::fprintf(stderr, "FATAL: head-to-head seed %d policy %s replay diverged\n",
                       seed, PolicyName(kPolicies[p]));
          std::exit(1);
        }
      }
      PolicyAggregate& agg = out_aggs[p];
      agg.minibatches += report.stats.minibatches_done;
      agg.rolled_back += report.stats.minibatches_rolled_back;
      agg.restarts += report.stats.restarts;
      agg.proactive_morphs += report.stats.proactive_morphs;
      agg.premigrated_shards += report.stats.premigrated_shards;
      agg.premigrated_bytes += report.stats.premigrated_bytes;
      agg.stalled_s += report.stats.stalled_s;
    }
  }
  Table table({"policy", "mini-batches", "rolled back", "restarts", "proactive morphs",
               "pre-migrated shards", "stalled s"});
  for (int p = 0; p < 3; ++p) {
    const PolicyAggregate& agg = out_aggs[p];
    table.AddRow({PolicyName(kPolicies[p]), std::to_string(agg.minibatches),
                  std::to_string(agg.rolled_back), std::to_string(agg.restarts),
                  std::to_string(agg.proactive_morphs), std::to_string(agg.premigrated_shards),
                  Table::Num(agg.stalled_s, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  *proactive_beats_reactive = out_aggs[1].minibatches >= out_aggs[0].minibatches &&
                              out_aggs[1].rolled_back < out_aggs[0].rolled_back;
  std::printf("proactive vs reactive: %+lld mini-batches, %+lld rolled back (%s)\n\n",
              static_cast<long long>(out_aggs[1].minibatches - out_aggs[0].minibatches),
              static_cast<long long>(out_aggs[1].rolled_back - out_aggs[0].rolled_back),
              *proactive_beats_reactive ? "proactive wins" : "NO WIN");
}

void Run(int argc, char** argv) {
  const BenchMode mode = ModeFromArgs(argc, argv);
  const int campaigns = CampaignsFromArgs(argc, argv, mode.smoke ? 8 : 200);
  const MorphPolicy policy = PolicyFromArgs(argc, argv);
  const bool fast_recovery = FlagInArgs(argc, argv, "--fast-recovery");

  std::printf(
      "=== Chaos campaign sweep: %d seeded random campaigns (policy=%s, recovery=%s) ===\n\n",
      campaigns, PolicyName(policy), fast_recovery ? "fast" : "legacy");

  int64_t actions = 0;
  int64_t preemptions = 0;
  int64_t heartbeat_timeouts = 0;
  int64_t restarts = 0;
  int64_t morph_retries = 0;
  int64_t reprovision_retries = 0;
  int64_t degraded_intervals = 0;
  int64_t shards_lost = 0;
  int64_t shards_corrupted = 0;
  int64_t minibatches_done = 0;
  int64_t minibatches_rolled_back = 0;
  int64_t with_progress = 0;
  int64_t replays_checked = 0;
  int64_t executor_events = 0;
  double downtime_s = 0.0;
  double restore_s = 0.0;
  int64_t delta_checkpoints = 0;

  const auto campaign_spec = [&](int seed) {
    ChaosCampaignSpec spec = RandomChaosCampaign(static_cast<uint64_t>(seed));
    spec.options.morph_policy = policy;
    if (fast_recovery) {
      // Mirror the FastRecoveryStormCampaign knobs onto the random plans.
      spec.options.checkpoint.full_checkpoint_every = 4;
      spec.options.checkpoint.locality_aware_restore = true;
    }
    return spec;
  };

  // One untimed pass fills the table and checks the replays.
  for (int seed = 1; seed <= campaigns; ++seed) {
    const ChaosCampaignSpec spec = campaign_spec(seed);
    const ChaosReport report = RunChaosCampaign(spec);
    actions += static_cast<int64_t>(spec.plan.actions.size());
    preemptions += report.stats.preemptions_hit;
    heartbeat_timeouts += report.stats.heartbeat_timeouts;
    restarts += report.stats.restarts;
    morph_retries += report.stats.morph_retries;
    reprovision_retries += report.stats.reprovision_retries;
    degraded_intervals += report.stats.degraded_intervals;
    shards_lost += report.stats.shards_lost;
    shards_corrupted += report.shards_corrupted_by_chaos;
    minibatches_done += report.stats.minibatches_done;
    minibatches_rolled_back += report.stats.minibatches_rolled_back;
    with_progress += report.stats.minibatches_done > 0 ? 1 : 0;
    executor_events += static_cast<int64_t>(report.stats.executor_events);
    downtime_s += report.stats.stalled_s;
    restore_s += RestoreSeconds(report.stats);
    delta_checkpoints += report.stats.delta_checkpoints;
    // Every 16th seed: replay the whole campaign and require bit-identity.
    if (seed % 16 == 1) {
      const ChaosReport replay = RunChaosCampaign(spec);
      if (replay.fingerprint != report.fingerprint || !(replay.trace == report.trace)) {
        std::fprintf(stderr, "FATAL: seed %d replay diverged (%016llx vs %016llx)\n",
                     seed, static_cast<unsigned long long>(report.fingerprint),
                     static_cast<unsigned long long>(replay.fingerprint));
        std::exit(1);
      }
      ++replays_checked;
    }
  }

  // The timed sweep is the bare campaign loop, warmed up once.
  const BenchStats wall = TimeIt(mode.Warmup(1), mode.Repeats(3), [&] {
    for (int seed = 1; seed <= campaigns; ++seed) {
      RunChaosCampaign(campaign_spec(seed));
    }
  });

  Table table({"metric", "total", "per campaign"});
  const double n = campaigns;
  const auto row = [&](const char* name, int64_t total) {
    table.AddRow({name, std::to_string(total), Table::Num(total / n, 2)});
  };
  row("plan actions", actions);
  row("announced preemptions hit", preemptions);
  row("heartbeat timeouts", heartbeat_timeouts);
  row("restarts (rollback+restore)", restarts);
  row("morph retries", morph_retries);
  row("re-provision retries", reprovision_retries);
  row("degraded-mode intervals", degraded_intervals);
  row("checkpoint shards lost", shards_lost);
  row("checkpoint shards corrupted", shards_corrupted);
  row("mini-batches committed", minibatches_done);
  row("mini-batches rolled back", minibatches_rolled_back);
  row("testbed sim events", executor_events);
  row("delta checkpoints", delta_checkpoints);
  table.AddRow({"downtime (stalled) s", Table::Num(downtime_s, 1),
                Table::Num(downtime_s / n, 2)});
  table.AddRow({"restore seconds (all tiers)", Table::Num(restore_s, 1),
                Table::Num(restore_s / n, 2)});
  std::printf("%s\n", table.Render().c_str());
  std::printf("campaigns with forward progress: %lld / %d\n",
              static_cast<long long>(with_progress), campaigns);
  std::printf("bit-identical replays verified:  %lld\n",
              static_cast<long long>(replays_checked));
  std::printf("wall clock (median of %d): %.1f ms total, %.2f ms per campaign\n\n",
              wall.repeats, wall.median_ms, wall.median_ms / n);

  const int head_to_head_seeds =
      IntFromArgs(argc, argv, "--h2h", mode.smoke ? 4 : 20);
  const RecoveryComparison recovery = RecoveryBeforeAfter(head_to_head_seeds);
  bool proactive_wins = false;
  PolicyAggregate policy_aggs[3];
  HeadToHead(head_to_head_seeds, &proactive_wins, policy_aggs);

  std::printf("Every campaign passed SimEngine + ElasticTrainer + CheckpointStore\n"
              "invariant checks (violations abort the process).\n");

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    BenchJsonWriter json("bench_chaos_campaigns");
    AddBuildMetadata(&json);
    json.AddScalar("campaigns", n);
    json.AddScalar("preemptions_hit", static_cast<double>(preemptions));
    json.AddScalar("heartbeat_timeouts", static_cast<double>(heartbeat_timeouts));
    json.AddScalar("restarts", static_cast<double>(restarts));
    json.AddScalar("minibatches_done", static_cast<double>(minibatches_done));
    json.AddScalar("minibatches_rolled_back", static_cast<double>(minibatches_rolled_back));
    json.AddScalar("campaigns_with_progress", static_cast<double>(with_progress));
    json.AddScalar("replays_checked", static_cast<double>(replays_checked));
    json.AddScalar("campaign_ms", wall.median_ms / n);
    json.AddScalar("executor_events", static_cast<double>(executor_events));
    json.AddScalar("executor_events_per_sec",
                   static_cast<double>(executor_events) / (wall.median_ms / 1e3));
    json.AddScalar("fast_recovery", fast_recovery ? 1.0 : 0.0);
    json.AddScalar("downtime_s", downtime_s);
    json.AddScalar("restore_seconds", restore_s);
    json.AddScalar("delta_checkpoints", static_cast<double>(delta_checkpoints));
    json.AddScalar("recovery_before_median_downtime_s", recovery.before_median_downtime_s);
    json.AddScalar("recovery_after_median_downtime_s", recovery.after_median_downtime_s);
    json.AddScalar("recovery_before_restore_s", recovery.before_restore_s);
    json.AddScalar("recovery_after_restore_s", recovery.after_restore_s);
    json.AddScalar("recovery_after_delta_checkpoints",
                   static_cast<double>(recovery.after_delta_checkpoints));
    json.AddScalar("head_to_head_seeds", static_cast<double>(head_to_head_seeds));
    json.AddScalar("head_to_head_proactive_wins", proactive_wins ? 1.0 : 0.0);
    const char* policy_keys[3] = {"reactive", "proactive", "oracle"};
    for (int p = 0; p < 3; ++p) {
      const std::string key = policy_keys[p];
      json.AddScalar(key + "_minibatches", static_cast<double>(policy_aggs[p].minibatches));
      json.AddScalar(key + "_rolled_back", static_cast<double>(policy_aggs[p].rolled_back));
      json.AddScalar(key + "_restarts", static_cast<double>(policy_aggs[p].restarts));
      json.AddScalar(key + "_proactive_morphs",
                     static_cast<double>(policy_aggs[p].proactive_morphs));
      json.AddScalar(key + "_premigrated_shards",
                     static_cast<double>(policy_aggs[p].premigrated_shards));
      json.AddScalar(key + "_stalled_s", policy_aggs[p].stalled_s);
    }
    json.AddResult("sweep", wall);
    json.WriteTo(json_path);
  }
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run(argc, argv);
  return 0;
}
