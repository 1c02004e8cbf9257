// Simulation-core microbenchmark: events/sec of the slot-pool event engine on
// a chaos-campaign-shaped storm, plus the real chaos-campaign sweep with the
// SessionStats perf counters.
//
//   bench_sim_core [--smoke] [--json PATH]
//
// Columns:
//   * storm       — the slot-pool + 4-ary-heap engine on the synthetic storm
//     (bench/sim_core_workload.h; fixed seed, deterministic fire count).
//   * chaos sweep — end-to-end campaigns; ms/campaign, testbed events/sec
//     and ring-cost-cache hit rate come from the SessionStats counters.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/sim_core_workload.h"
#include "src/chaos/chaos.h"
#include "src/common/table.h"
#include "src/manager/elastic_trainer.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

constexpr uint64_t kStormSeed = 2026;

uint64_t StormFires(uint64_t target) {
  SimCoreStorm storm(kStormSeed, target);
  return storm.Run();
}

void Run(int argc, char** argv) {
  const BenchMode mode = ModeFromArgs(argc, argv);
  const uint64_t storm_target = mode.smoke ? 50'000 : 1'000'000;
  const int campaigns = mode.smoke ? 4 : 40;

  std::printf("=== Simulation core: event engine storm ===\n\n");

  const uint64_t storm_fires = StormFires(storm_target);
  const BenchStats storm_wall = TimeIt(mode.Warmup(1), mode.Repeats(5), [&] {
    (void)StormFires(storm_target);
  });
  uint64_t heap_fallbacks = 0;
  {
    SimCoreStorm storm(kStormSeed, storm_target);
    storm.Run();
    heap_fallbacks = storm.engine().callback_heap_fallbacks();
  }
  const double storm_eps = static_cast<double>(storm_fires) / (storm_wall.median_ms / 1e3);

  std::printf("events fired: %llu   median %.2f ms   %.2fM events/sec   "
              "callback heap fallbacks: %llu\n\n",
              static_cast<unsigned long long>(storm_fires), storm_wall.median_ms, storm_eps / 1e6,
              static_cast<unsigned long long>(heap_fallbacks));

  std::printf("=== Chaos campaign sweep (%d campaigns) ===\n\n", campaigns);
  int64_t executor_events = 0;
  int64_t ring_hits = 0;
  int64_t ring_misses = 0;
  int64_t minibatches = 0;
  const BenchStats sweep_wall = TimeIt(0, 1, [&] {
    executor_events = ring_hits = ring_misses = minibatches = 0;
    for (int seed = 1; seed <= campaigns; ++seed) {
      const ChaosReport report = RunChaosCampaign(RandomChaosCampaign(static_cast<uint64_t>(seed)));
      executor_events += static_cast<int64_t>(report.stats.executor_events);
      ring_hits += static_cast<int64_t>(report.stats.net_ring_cache_hits);
      ring_misses += static_cast<int64_t>(report.stats.net_ring_cache_misses);
      minibatches += report.stats.minibatches_done;
    }
  });
  const double n = campaigns;
  const double sweep_eps = static_cast<double>(executor_events) / (sweep_wall.mean_ms / 1e3);
  const double hit_rate = ring_hits + ring_misses > 0
                              ? static_cast<double>(ring_hits) / (ring_hits + ring_misses)
                              : 0.0;
  Table sweep_table({"metric", "total", "per campaign"});
  sweep_table.AddRow({"wall ms", Table::Num(sweep_wall.mean_ms, 1),
                      Table::Num(sweep_wall.mean_ms / n, 2)});
  sweep_table.AddRow({"testbed events", std::to_string(executor_events),
                      Table::Num(executor_events / n, 0)});
  sweep_table.AddRow({"ring-cost cache hits", std::to_string(ring_hits),
                      Table::Num(ring_hits / n, 0)});
  sweep_table.AddRow({"ring-cost cache misses", std::to_string(ring_misses),
                      Table::Num(ring_misses / n, 0)});
  sweep_table.AddRow({"mini-batches committed", std::to_string(minibatches),
                      Table::Num(minibatches / n, 1)});
  std::printf("%s\n", sweep_table.Render().c_str());
  std::printf("testbed events/sec (sweep wall): %.2fM   ring-cache hit rate: %.1f%%\n",
              sweep_eps / 1e6, 100.0 * hit_rate);

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    BenchJsonWriter json("bench_sim_core");
    AddBuildMetadata(&json);
    json.AddScalar("storm_events", static_cast<double>(storm_fires));
    json.AddScalar("events_per_sec", storm_eps);
    json.AddScalar("callback_heap_fallbacks", static_cast<double>(heap_fallbacks));
    json.AddScalar("campaigns", n);
    json.AddScalar("campaign_ms", sweep_wall.mean_ms / n);
    json.AddScalar("executor_events", static_cast<double>(executor_events));
    json.AddScalar("executor_events_per_sec", sweep_eps);
    json.AddScalar("ring_cache_hits", static_cast<double>(ring_hits));
    json.AddScalar("ring_cache_misses", static_cast<double>(ring_misses));
    json.AddScalar("ring_cache_hit_rate", hit_rate);
    json.AddResult("storm_current", storm_wall);
    json.AddResult("chaos_sweep", sweep_wall);
    json.WriteTo(json_path);
  }
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run(argc, argv);
  return 0;
}
