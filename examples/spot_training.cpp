// Elastic training on spot VMs, end to end: the Varuna manager requests
// 1-GPU low-priority VMs from a churny market, calibrates once, configures
// the job, checkpoints continuously, replaces fail-stuttering VMs, and morphs
// through preemptions — a compressed (12-hour) version of the paper's
// Figure 8 run.
//
// Usage: spot_training [hours] [max_vms]     (default: 12 h, 96 VMs)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/varuna/varuna.h"

int main(int argc, char** argv) {
  using namespace varuna;

  const double hours = argc > 1 ? std::atof(argv[1]) : 12.0;
  const int max_vms = argc > 2 ? std::atoi(argv[2]) : 96;

  SimEngine engine;
  Cluster cluster(CommodityFabric());
  SpotMarket market(&engine, Rng(5), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 0.7;
  dynamics.volatility = 0.14;
  dynamics.reversion_rate = 1.0 / (6.0 * kHour);
  dynamics.preemption_hazard = 1.0 / (60.0 * kHour);
  dynamics.max_grants_per_tick = 16;
  dynamics.reclaim_slack_vms = 8;
  const int pool = market.AddPool(Nc6V3(), max_vms, dynamics);

  TrainerOptions options;
  options.total_batch = 8192;
  options.demand_vms = max_vms;
  options.checkpoint_every_minibatches = 10;
  options.provision_check_interval_s = 1200.0;
  ElasticTrainer trainer(&engine, &cluster, &market, pool, Nc6V3(), Gpt2_2_5B(), options);
  FailStutterInjector stutter(&engine, &cluster, Rng(3), FailStutterOptions());

  trainer.Start();
  market.Start();
  stutter.Start();

  std::printf("training GPT-2 2.5B on up to %d spot VMs for %.0f simulated hours...\n\n",
              max_vms, hours);
  engine.RunUntil(hours * kHour);

  const SessionStats& stats = trainer.stats();
  std::printf("events:\n");
  for (const TimelineEvent& event : stats.events) {
    std::printf("  t=%6.2f h  %-10s -> %dx%d  (%d GPUs available)\n", event.time_s / kHour,
                std::string(Name(event.kind)).c_str(), event.pipeline_depth, event.data_parallel,
                event.gpus_available);
  }
  std::printf("\nafter %.0f h: %lld mini-batches (%.2e examples), %d morphs,\n"
              "%d preemptions hit the job, %d stutter replacements, %d checkpoints,\n"
              "%.2f h stalled (%.1f%% of wall clock)\n",
              hours, static_cast<long long>(stats.minibatches_done), stats.examples_processed,
              stats.morphs, stats.preemptions_hit, stats.stutters_detected, stats.checkpoints,
              stats.stalled_s / kHour, 100.0 * stats.stalled_s / (hours * kHour));
  if (trainer.current_config().has_value()) {
    std::printf("current config: %dx%d\n", trainer.current_config()->pipeline_depth,
                trainer.current_config()->data_parallel);
  }
  return 0;
}
