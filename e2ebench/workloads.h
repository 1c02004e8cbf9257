// The four canonical workloads of the end-to-end benchmark, driven only
// through the simulator's public entry points (RunChaosCampaign,
// ElasticTrainer + SimEngine::RunUntil, ConfigSearch::Best). One call of
// RunWorkload is one workload run; the harness starts a fresh process for
// each, because GenerateSchedule's process-global schedule map would carry
// warm schedules from one run into the next.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/manager/elastic_trainer.h"
#include "src/morph/config_search.h"
#include "src/varuna/determinism.h"

namespace varuna::e2e {

enum class Workload { kFig8Session, kChaosSweep, kStormH2h, kMorphDecisions };

std::optional<Workload> ParseWorkload(const std::string& name);

// Everything needed to rebuild one elastic session: the fig8 setup or a chaos
// campaign spec (model, trainer options, horizon, fault plan).
struct SessionSetup {
  bool fig8 = false;
  ChaosCampaignSpec campaign;  // fig8: only spec, options and horizon_s are used.
};

// The session list of a workload in canonical order (empty for
// morph-decisions). Campaign seeds and policies are fixed by the workload.
std::vector<SessionSetup> WorkloadSessions(Workload workload);

struct SessionOutcome {
  ElasticTrace trace;
  uint64_t fingerprint = 0;
  SessionStats stats;
};

SessionOutcome RunSession(const SessionSetup& setup);

// The morph-decisions model: GPT-2 8.3B, sections and a calibration taken on a
// 42-VM NC6 sample with Rng(99), exactly as bench_config_search prepares it.
struct DecisionModel {
  TransformerSpec spec;
  ModelSections sections;
  Calibration calibration;
  SearchConstraints constraints;
};

DecisionModel PrepareDecisionModel();

// The G of each of the 1000 decisions: start 128, step uniform in [-12, 12],
// clamped to [16, 160], walk Rng 0xC0FFEE.
std::vector<int> DecisionWalk();

struct DecisionOutcome {
  int gpus = 0;
  JobConfig config;
};

struct WorkloadRun {
  // steady_clock reading (seconds) just before the first timed call.
  double first_timed_call_s = 0.0;
  double wall_s = 0.0;
  // One entry per timed operation: a simulated hour of the fig8 session, a
  // campaign, or a morph decision.
  std::vector<double> op_ms;
  // Per session in canonical order (the execution order may be shuffled).
  std::vector<SessionOutcome> sessions;
  std::vector<DecisionOutcome> decisions;
  ConfigSearchStats search_stats;  // morph-decisions only.
  ScheduleCacheStats schedule_stats;  // morph-decisions only.
  int64_t peak_rss_kb = 0;
};

// Runs the workload once. `seed` fixes the order in which the campaign
// workloads execute their sessions; the sessions themselves are canonical.
WorkloadRun RunWorkload(Workload workload, uint64_t seed);

// Correctness gate, outside the timed phase. Every session must conserve
// mini-batches and every decision must be a well-formed configuration. With
// `replay`, a sample drawn from `seed` is re-run from scratch and must match:
// sessions by ElasticTrace and fingerprint, decisions by a cold ConfigSearch
// oracle (operator==). Returns the number of failed operations; `notes`
// receives one line per failure.
int64_t CheckWorkload(Workload workload, const WorkloadRun& run, uint64_t seed, bool replay,
                      std::vector<std::string>* notes);

// 64-bit FNV-1a over a decision's configuration (doubles by their bits).
uint64_t DecisionFingerprint(const DecisionOutcome& decision);

}  // namespace varuna::e2e

#endif  // E2EBENCH_WORKLOADS_H_
