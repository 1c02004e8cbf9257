// One workload run per process; e2ebench/run.py is the harness that launches
// these processes, aggregates them and checks the results.
//
//   e2e_bench metadata <path>
//       Writes build and host metadata (bench/bench_util.h AddBuildMetadata).
//   e2e_bench run <workload> --seed <n> [--check] [--dump <path>]
//       Runs the workload once and prints one JSON object: timings, simulated
//       outcomes, per-operation fingerprints, layer counters and the result
//       of the correctness gate. --check adds the seeded replay/oracle sample;
//       --dump writes the inputs of a traced replay.
//   e2e_bench replay <workload> --inputs <path> [--spans <path>]
//       Replays the dumped run's layer calls with spans and prints the
//       per-layer busy times as one JSON object.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "e2ebench/replay.h"
#include "e2ebench/workloads.h"

namespace varuna::e2e {
namespace {

std::string StringArg(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      return argv[i + 1];
    }
  }
  return "";
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    out += (out.size() > 1 ? ", " : "") + Quoted(key) + ": " + Number(value);
  }
  return out + "}";
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// Simulated outcomes. Sessions: examples over the simulated horizon, the
// share of the horizon not stalled, and committed over attempted
// mini-batches. Decisions simulate no session: the throughput is the mean
// estimate of the chosen configurations, and nothing is stalled or lost.
std::map<std::string, double> SimOutcomes(const WorkloadRun& run,
                                          const std::vector<SessionSetup>& setups) {
  if (setups.empty()) {
    double sum = 0.0;
    for (const DecisionOutcome& d : run.decisions) {
      sum += d.config.est_examples_per_s;
    }
    return {{"sim_examples_per_s", Ratio(sum, static_cast<double>(run.decisions.size()))},
            {"sim_uptime_frac", 1.0},
            {"sim_goodput_frac", 1.0}};
  }
  double examples = 0.0, horizon = 0.0, stalled = 0.0, done = 0.0, attempted = 0.0;
  for (size_t i = 0; i < run.sessions.size(); ++i) {
    const SessionStats& stats = run.sessions[i].stats;
    examples += stats.examples_processed;
    horizon += setups[i].campaign.horizon_s;
    stalled += stats.stalled_s;
    done += static_cast<double>(stats.minibatches_done);
    attempted += static_cast<double>(stats.minibatches_attempted);
  }
  return {{"sim_examples_per_s", Ratio(examples, horizon)},
          {"sim_uptime_frac", 1.0 - Ratio(stalled, horizon)},
          {"sim_goodput_frac", Ratio(done, attempted)}};
}

// Per-layer counts from the measured run's untimed SessionStats /
// ConfigSearchStats.
std::map<std::string, double> LayerCounters(const WorkloadRun& run) {
  if (run.sessions.empty()) {
    const ConfigSearchStats& s = run.search_stats;
    const double sweeps = static_cast<double>(s.sweep_cache_hits + s.sweep_cache_misses);
    const double probes = static_cast<double>(s.candidate_memo_hits + s.candidate_memo_misses);
    return {{"morph.search.sweep_hit_ratio",
             Ratio(static_cast<double>(s.sweep_cache_hits), sweeps)},
            {"morph.search.candidate_hit_ratio",
             Ratio(static_cast<double>(s.candidate_memo_hits), probes)},
            {"morph.search.pruned_ratio", Ratio(static_cast<double>(s.candidates_pruned),
                                                static_cast<double>(s.candidate_memo_misses))},
            {"morph.search.candidates_simulated", static_cast<double>(s.candidates_simulated)}};
  }
  double sweep_hits = 0, sweep_misses = 0, cand_hits = 0, cand_misses = 0, pruned = 0;
  double events = 0, growths = 0, fallbacks = 0, ring_hits = 0, ring_misses = 0;
  double deltas = 0, checkpoints = 0, restore_s = 0, updates = 0, wins = 0;
  for (const SessionOutcome& session : run.sessions) {
    const SessionStats& s = session.stats;
    sweep_hits += static_cast<double>(s.sweep_cache_hits);
    sweep_misses += static_cast<double>(s.sweep_cache_misses);
    cand_hits += static_cast<double>(s.candidate_memo_hits);
    cand_misses += static_cast<double>(s.candidate_memo_misses);
    pruned += static_cast<double>(s.candidates_pruned);
    events += static_cast<double>(s.executor_events);
    growths += static_cast<double>(s.executor_scratch_growths);
    fallbacks += static_cast<double>(s.executor_heap_fallbacks);
    ring_hits += static_cast<double>(s.net_ring_cache_hits);
    ring_misses += static_cast<double>(s.net_ring_cache_misses);
    deltas += static_cast<double>(s.delta_checkpoints);
    checkpoints += s.checkpoints;
    restore_s += s.restore_setup_s + s.restore_ssd_s + s.restore_peer_s + s.restore_cloud_s;
    updates += static_cast<double>(s.predictor_updates);
    wins += static_cast<double>(s.liveput_wins);
  }
  return {{"morph.search.sweep_hit_ratio", Ratio(sweep_hits, sweep_hits + sweep_misses)},
          {"morph.search.candidate_hit_ratio", Ratio(cand_hits, cand_hits + cand_misses)},
          {"morph.search.pruned_ratio", Ratio(pruned, cand_misses)},
          // A pruned candidate is a memo miss that never reaches the simulator.
          {"morph.search.candidates_simulated", cand_misses - pruned},
          {"sim.engine.events", events},
          {"pipeline.executor.scratch_growths", growths},
          {"pipeline.executor.heap_fallbacks", fallbacks},
          {"net.ring.hit_ratio", Ratio(ring_hits, ring_hits + ring_misses)},
          {"manager.checkpoint.delta_ratio", Ratio(deltas, checkpoints)},
          {"manager.checkpoint.restore_sim_s", restore_s},
          {"morph.liveput.predictor_updates", updates},
          {"morph.liveput.wins", wins}};
}

// Outcomes the repository's own benches report, for the record.
std::map<std::string, double> ReferenceOutcomes(Workload workload, const WorkloadRun& run) {
  std::map<std::string, double> out;
  if (workload == Workload::kMorphDecisions) {
    out["sweep_misses"] = static_cast<double>(run.search_stats.sweep_cache_misses);
    out["schedule_generations"] = static_cast<double>(run.schedule_stats.misses);
    out["candidates_simulated"] = static_cast<double>(run.search_stats.candidates_simulated);
    return out;
  }
  const char* const kPolicies[] = {"reactive", "proactive", "oracle"};
  const std::vector<SessionSetup> setups = WorkloadSessions(workload);
  for (size_t i = 0; i < run.sessions.size(); ++i) {
    const double done = static_cast<double>(run.sessions[i].stats.minibatches_done);
    out["minibatches_done"] += done;
    if (workload == Workload::kStormH2h) {
      const int policy = static_cast<int>(setups[i].campaign.options.morph_policy);
      out[std::string(kPolicies[policy]) + "_minibatches_done"] += done;
    }
  }
  return out;
}

int Run(Workload workload, int argc, char** argv) {
  const uint64_t seed = std::strtoull(StringArg(argc, argv, "--seed").c_str(), nullptr, 10);
  const bool check = FlagInArgs(argc, argv, "--check");
  const std::string dump = StringArg(argc, argv, "--dump");

  const WorkloadRun run = RunWorkload(workload, seed);
  std::vector<std::string> notes;
  const int64_t failed = CheckWorkload(workload, run, seed, check, &notes);
  if (!dump.empty() && !WriteReplayInputs(dump, run)) {
    return 1;
  }

  std::vector<std::string> fingerprints;
  char hex[24];
  for (const SessionOutcome& session : run.sessions) {
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, session.fingerprint);
    fingerprints.push_back(hex);
  }
  for (const DecisionOutcome& decision : run.decisions) {
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, DecisionFingerprint(decision));
    fingerprints.push_back(hex);
  }

  std::string out = "{\"first_timed_call_s\": " + Number(run.first_timed_call_s) +
                    ", \"wall_s\": " + Number(run.wall_s) +
                    ", \"peak_rss_kb\": " + std::to_string(run.peak_rss_kb) + ", \"op_ms\": [";
  for (size_t i = 0; i < run.op_ms.size(); ++i) {
    out += (i ? ", " : "") + Number(run.op_ms[i]);
  }
  out += "], \"failed_ops\": " + std::to_string(failed) + ", \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    out += (i ? ", " : "") + Quoted(notes[i]);
  }
  out += "], \"fingerprints\": [";
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    out += (i ? ", " : "") + Quoted(fingerprints[i]);
  }
  out += "], \"sim\": " + Object(SimOutcomes(run, WorkloadSessions(workload))) +
         ", \"counters\": " + Object(LayerCounters(run)) +
         ", \"reference\": " + Object(ReferenceOutcomes(workload, run)) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int Replay(Workload workload, int argc, char** argv) {
  const std::string inputs = StringArg(argc, argv, "--inputs");
  const std::string spans_path = StringArg(argc, argv, "--spans");
  ReplayResult result;
  if (!ReplayLayers(inputs, workload, &result)) {
    return 1;
  }
  if (!spans_path.empty() && !WriteSpans(spans_path, result.spans)) {
    return 1;
  }
  std::printf("{\"busy_ms\": %s, \"counts\": %s, \"spans\": %zu}\n",
              Object(result.busy_ms).c_str(), Object(result.counts).c_str(),
              result.spans.size());
  return 0;
}

int Main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "metadata" && argc > 2) {
    BenchJsonWriter json("e2e_bench");
    AddBuildMetadata(&json);
    return json.WriteTo(argv[2]) ? 0 : 1;
  }
  const std::optional<Workload> workload =
      argc > 2 ? ParseWorkload(argv[2]) : std::optional<Workload>();
  if ((mode == "run" || mode == "replay") && workload.has_value()) {
    return mode == "run" ? Run(*workload, argc, argv) : Replay(*workload, argc, argv);
  }
  std::fprintf(stderr,
               "usage: e2e_bench metadata <path>\n"
               "       e2e_bench run <workload> --seed <n> [--check] [--dump <path>]\n"
               "       e2e_bench replay <workload> --inputs <path> [--spans <path>]\n"
               "workloads: fig8-session chaos-sweep storm-h2h morph-decisions\n");
  return 2;
}

}  // namespace
}  // namespace varuna::e2e

int main(int argc, char** argv) { return varuna::e2e::Main(argc, argv); }
