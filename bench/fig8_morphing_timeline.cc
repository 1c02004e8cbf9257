// Figure 8: dynamic timeline of Varuna training GPT-2 2.5B on spot VMs over
// 60 hours — the manager grows/shrinks the job (morphing events annotated
// with the chosen P x D), rides out preemptions via checkpoints, and keeps
// per-GPU throughput nearly flat while total throughput tracks capacity.
// Also reproduces Observation 4's 1-GPU vs 4-GPU VM throughput comparison.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/chaos/chaos.h"

namespace varuna {
namespace {

void Run(int hours) {
  std::printf("=== Figure 8: %d h dynamic timeline, GPT-2 2.5B on spot VMs ===\n\n", hours);
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  SpotMarket market(&engine, Rng(7), 300.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 0.70;
  dynamics.volatility = 0.14;              // Slow, large capacity swings.
  dynamics.reversion_rate = 1.0 / (8.0 * kHour);
  dynamics.preemption_hazard = 1.0 / (200.0 * kHour);
  dynamics.max_grants_per_tick = 16;
  dynamics.reclaim_slack_vms = 12;  // Azure-like burst evictions, not per-tick churn.
  const int pool = market.AddPool(Nc6V3(), 160, dynamics);

  TrainerOptions options;
  options.total_batch = 8192;
  options.demand_vms = 160;
  options.checkpoint_every_minibatches = 10;
  options.provision_check_interval_s = 1800.0;
  options.seed = 11;
  ElasticTrainer trainer(&engine, &cluster, &market, pool, Nc6V3(), Gpt2_2_5B(), options);

  FailStutterInjector stutter(&engine, &cluster, Rng(13), FailStutterOptions());

  trainer.Start();
  market.Start();
  stutter.Start();
  engine.RunUntil(hours * kHour);

  const SessionStats& stats = trainer.stats();

  // Throughput series, hourly buckets.
  std::printf("hour | GPUs avail | GPUs used | config | ex/s   | ex/s/GPU\n");
  size_t sample_index = 0;
  size_t event_index = 0;
  RunningStats per_gpu;
  RunningStats total_rate;
  for (int hour = 1; hour <= hours; ++hour) {
    const double t = hour * kHour;
    TimelineSample latest{};
    bool have = false;
    while (sample_index < stats.samples.size() && stats.samples[sample_index].time_s <= t) {
      latest = stats.samples[sample_index];
      have = true;
      ++sample_index;
    }
    std::string events;
    while (event_index < stats.events.size() && stats.events[event_index].time_s <= t) {
      const TimelineEvent& event = stats.events[event_index];
      events += "  <-- " + std::string(Name(event.kind)) + " to " +
                ConfigLabel(event.pipeline_depth, event.data_parallel);
      ++event_index;
    }
    if (have) {
      per_gpu.Add(latest.examples_per_s_per_gpu);
      total_rate.Add(latest.examples_per_s);
      std::printf("%4d | %10d | %9d | %-6s | %6.1f | %.2f%s\n", hour, latest.gpus_available,
                  latest.gpus_in_use,
                  ConfigLabel(latest.pipeline_depth, latest.data_parallel).c_str(),
                  latest.examples_per_s, latest.examples_per_s_per_gpu, events.c_str());
    } else {
      std::printf("%4d | (job reconfiguring or waiting for capacity)%s\n", hour, events.c_str());
    }
  }

  std::printf("\nSummary over %d h:\n", hours);
  std::printf("  mini-batches: %lld   examples: %.2e\n",
              static_cast<long long>(stats.minibatches_done), stats.examples_processed);
  std::printf("  morphs: %d   preemptions hit: %d   stutter replacements: %d   checkpoints: %d\n",
              stats.morphs, stats.preemptions_hit, stats.stutters_detected, stats.checkpoints);
  std::printf("  recovery: %lld restarts, %lld heartbeat timeouts, %lld morph retries, "
              "%lld shards lost\n",
              static_cast<long long>(stats.restarts),
              static_cast<long long>(stats.heartbeat_timeouts),
              static_cast<long long>(stats.morph_retries),
              static_cast<long long>(stats.shards_lost));
  std::printf("  conservation: %lld attempted = %lld done + %lld rolled back "
              "(max rollback %lld)\n",
              static_cast<long long>(stats.minibatches_attempted),
              static_cast<long long>(stats.minibatches_done),
              static_cast<long long>(stats.minibatches_rolled_back),
              static_cast<long long>(stats.max_rollback_minibatches));
  std::printf("  stalled (restores + waiting): %.1f h (%.1f%% of wall clock)\n",
              stats.stalled_s / kHour, 100.0 * stats.stalled_s / (hours * kHour));
  std::printf("  total ex/s varied %.0f..%.0f (%.1fx) while ex/s/GPU varied only "
              "%.2f..%.2f (+/-%.0f%%)\n",
              total_rate.min(), total_rate.max(), total_rate.max() / total_rate.min(),
              per_gpu.min(), per_gpu.max(),
              100.0 * (per_gpu.max() - per_gpu.min()) / (2.0 * per_gpu.mean()));
  std::printf("  (paper: total throughput varies ~5x with capacity; per-GPU only ~15%%)\n\n");

  // --- Observation 4: 1-GPU vs 4-GPU VMs at 72 GPUs (paper: 1.77 vs 1.81).
  std::printf("=== Observation 4: 1-GPU vs 4-GPU VMs, GPT-2 2.5B on 72 GPUs (9x8) ===\n\n");
  Table table({"VM type", "ex/s/GPU"});
  for (const bool quad : {false, true}) {
    PipelineEvalRequest request;
    request.spec = Gpt2_2_5B();
    request.pipeline_depth = 9;
    request.data_parallel = 8;
    request.microbatch_size = 4;
    request.total_batch = 8192;
    request.vm = quad ? Nc24V3() : Nc6V3();
    const PipelineEvalResult result = EvaluatePipeline(request);
    table.AddRow({quad ? "NC24_v3 (4-GPU)" : "NC6_v3 (1-GPU)",
                  Table::Num(result.examples_per_s_per_gpu, 2)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("Thrifty networking keeps 1-GPU VMs within a few %% of 4-GPU VMs, so Varuna\n"
              "can harvest the much larger 1-GPU spot pool (Figure 3).\n");
}

// The same morphing story under a deliberately adversarial fault schedule
// (src/chaos): an eviction wave inside the checkpoint window, unannounced
// kills of shard-owning VMs mid-flush, a fail-stutter burst and a capacity
// crash. The session must end conserving every attempted mini-batch, and the
// whole campaign replays bit-identically.
void RunAdversarial() {
  std::printf("\n=== Figure 8 (adversarial): scripted chaos campaign, GPT-2 medium ===\n\n");
  ChaosCampaignSpec spec = DefaultChaosCampaign(/*seed=*/7);
  spec.horizon_s = 3.0 * kHour;
  spec.plan = ChaosPlan::Scripted({
      {/*at_s=*/1800.0, ChaosActionKind::kPreemptionStorm, /*count=*/4,
       /*duration_s=*/60.0, /*magnitude=*/0.0},
      {/*at_s=*/3600.0, ChaosActionKind::kTargetedShardKill, /*count=*/2,
       /*duration_s=*/1800.0, /*magnitude=*/0.0},
      {/*at_s=*/6000.0, ChaosActionKind::kFailStutterBurst, /*count=*/2,
       /*duration_s=*/1200.0, /*magnitude=*/0.3},
      {/*at_s=*/8400.0, ChaosActionKind::kCapacityCrash, /*count=*/1,
       /*duration_s=*/1200.0, /*magnitude=*/0.25},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  const SessionStats& stats = report.stats;

  Table table({"recovery counter", "value"});
  table.AddRow({"announced preemptions hit", std::to_string(stats.preemptions_hit)});
  table.AddRow({"preemptions survived", std::to_string(stats.preemptions_survived)});
  table.AddRow({"heartbeat timeouts", std::to_string(stats.heartbeat_timeouts)});
  table.AddRow({"restarts (rollback+restore)", std::to_string(stats.restarts)});
  table.AddRow({"morph retries", std::to_string(stats.morph_retries)});
  table.AddRow({"re-provision retries", std::to_string(stats.reprovision_retries)});
  table.AddRow({"degraded-mode intervals", std::to_string(stats.degraded_intervals)});
  table.AddRow({"checkpoint shards lost", std::to_string(stats.shards_lost)});
  table.AddRow({"mini-batches committed", std::to_string(stats.minibatches_done)});
  table.AddRow({"mini-batches rolled back", std::to_string(stats.minibatches_rolled_back)});
  table.AddRow({"max rollback (mini-batches)", std::to_string(stats.max_rollback_minibatches)});
  std::printf("%s", table.Render().c_str());
  std::printf("conservation: %lld attempted = %lld done + %lld rolled back\n",
              static_cast<long long>(stats.minibatches_attempted),
              static_cast<long long>(stats.minibatches_done),
              static_cast<long long>(stats.minibatches_rolled_back));

  const ChaosReport replay = RunChaosCampaign(spec);
  std::printf("campaign fingerprint: %016llx (replay %s)\n",
              static_cast<unsigned long long>(report.fingerprint),
              replay.fingerprint == report.fingerprint && replay.trace == report.trace
                  ? "bit-identical"
                  : "DIVERGED");
}

// The liveput head-to-head on the same adversarial story (src/morph/liveput):
// the identical scripted campaign run under each morph policy. Reactive
// recovers after every hit; the proactive policy pre-migrates checkpoint
// shards when the predicted rollback re-work outweighs the stall, and the
// oracle variant gets the true hazard plus the storm schedule — the upper
// bound on what prediction can buy.
void RunHeadToHead() {
  std::printf("\n=== Figure 8 (liveput): reactive vs proactive vs oracle, same campaign ===\n\n");
  ChaosCampaignSpec base = StormyChaosCampaign(/*seed=*/7);
  Table table({"policy", "mini-batches", "rolled back", "restarts",
               "pre-migrated shards", "proactive morphs"});
  struct Row {
    const char* name;
    MorphPolicy policy;
  };
  for (const Row& row : {Row{"reactive", MorphPolicy::kReactive},
                         Row{"proactive", MorphPolicy::kProactive},
                         Row{"oracle", MorphPolicy::kOracleProactive}}) {
    ChaosCampaignSpec spec = base;
    spec.options.morph_policy = row.policy;
    const ChaosReport report = RunChaosCampaign(spec);
    const ChaosReport replay = RunChaosCampaign(spec);
    if (replay.fingerprint != report.fingerprint) {
      std::printf("FATAL: %s policy did not replay bit-identically\n", row.name);
      std::exit(1);
    }
    table.AddRow({row.name, std::to_string(report.stats.minibatches_done),
                  std::to_string(report.stats.minibatches_rolled_back),
                  std::to_string(report.stats.restarts),
                  std::to_string(report.stats.premigrated_shards),
                  std::to_string(report.stats.proactive_morphs)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("every policy replayed bit-identically on the shared seeded campaign\n");
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run(argc > 1 ? std::atoi(argv[1]) : 60);
  varuna::RunAdversarial();
  varuna::RunHeadToHead();
  return 0;
}
