// Traced replay of a workload's layer calls. The measured run's public
// outputs (each session's timeline events and counters, or each decision's G
// and chosen configuration) are written to a text file; a fresh process reads
// them back and calls each layer's public function with a span (name, start,
// end, parent) around the call:
//
//   morph.calibration   Calibrate
//   morph.search        one decision: the sweep's enumeration and memo logic
//     pipeline.schedule   GenerateSchedule (first request of a shape)
//       pipeline.validate   ValidateSchedule
//     morph.fastsim       FastSimulator::LowerBoundMinibatch / EstimateMinibatch
//     morph.liveput       LiveputObjective::Score (proactive policies)
//   pipeline.executor   PlaceJob + PipelineExecutor::Run
//     net.ring            Network::SampleAllReduceTime
//   manager.checkpoint  CheckpointStore::BeginCheckpoint / RestoreSeconds
//
// Spans stay in memory and are written out when the replay ends. The replay
// never feeds the end-to-end numbers; it attributes a measured run's time to
// layers, and the harness books what it cannot attribute to the session.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/workloads.h"

namespace varuna::e2e {

// Writes the replay inputs of a measured run.
bool WriteReplayInputs(const std::string& path, const WorkloadRun& run);

struct Span {
  const char* name = "";  // A string literal: spans are recorded in hot loops.
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // Index into the span list, -1 for a root.
};

struct ReplayResult {
  std::vector<Span> spans;
  // Self time per layer in ms, scaled to the measured run's call counts
  // where the replay samples a layer (see replay.cc).
  std::map<std::string, double> busy_ms;
  // Replay-side counts: schedule generations and requests, executor events,
  // decisions replayed and how many picked a different winner than the run.
  std::map<std::string, double> counts;
};

// Reads `inputs_path` and replays the layer calls. Returns false (with a
// message on stderr) when the inputs cannot be read.
bool ReplayLayers(const std::string& inputs_path, Workload workload, ReplayResult* result);

// Writes spans as JSON lines {"name","start_ms","end_ms","parent"}.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace varuna::e2e

#endif  // E2EBENCH_REPLAY_H_
