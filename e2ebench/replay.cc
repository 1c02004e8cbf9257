#include "e2ebench/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/cluster/placement.h"
#include "src/common/units.h"
#include "src/manager/checkpoint.h"
#include "src/model/op_graph.h"
#include "src/model/tracer.h"
#include "src/morph/fast_sim.h"
#include "src/morph/liveput.h"
#include "src/pipeline/executor.h"
#include "src/pipeline/memory.h"
#include "src/pipeline/stage_timing.h"
#include "src/pipeline/validate.h"

namespace varuna::e2e {
namespace {

// ConfigSearch simulates memo misses in rounds of this many candidates and
// re-prunes against the incumbent between rounds.
constexpr size_t kSimulationRound = 16;
constexpr const char* kSessionSpan = "manager.session";

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  int Begin(const char* name) {
    spans_.push_back(Span{name, NowSeconds(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_s = NowSeconds();
    current_ = span.parent;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

struct EventInput {
  double time_s = 0.0;
  std::string kind;
  int gpus = 0;
  int depth = 0;
  int replicas = 0;
};

struct SampleInput {
  double time_s = 0.0;
  int gpus = 0;
};

struct SessionInput {
  size_t index = 0;
  int64_t checkpoints = 0;
  int64_t restarts = 0;
  double executor_events = 0.0;
  double ring_calls = 0.0;
  std::vector<EventInput> events;
  std::vector<SampleInput> samples;  // Only where the available GPU count changed.
};

struct ReplayInputs {
  double run_ms = 0.0;
  std::vector<SessionInput> sessions;
  std::vector<DecisionOutcome> decisions;
};

bool ReadInputs(const std::string& path, ReplayInputs* inputs) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "run_ms") {
      fields >> inputs->run_ms;
    } else if (tag == "session") {
      SessionInput session;
      fields >> session.index >> session.checkpoints >> session.restarts >>
          session.executor_events >> session.ring_calls;
      inputs->sessions.push_back(session);
    } else if (tag == "e" && !inputs->sessions.empty()) {
      EventInput event;
      fields >> event.time_s >> event.kind >> event.gpus >> event.depth >> event.replicas;
      inputs->sessions.back().events.push_back(event);
    } else if (tag == "s" && !inputs->sessions.empty()) {
      SampleInput sample;
      fields >> sample.time_s >> sample.gpus;
      inputs->sessions.back().samples.push_back(sample);
    } else if (tag == "decision") {
      DecisionOutcome decision;
      JobConfig& c = decision.config;
      fields >> decision.gpus >> c.pipeline_depth >> c.data_parallel >> c.microbatch_size >>
          c.num_microbatches;
      inputs->decisions.push_back(decision);
    }
    if (fields.fail()) {
      return false;
    }
  }
  return true;
}

// Everything one replay process accumulates across its sessions.
struct ReplayState {
  Tracer tracer;
  // (P, Nm) shapes generated so far: mirrors GenerateSchedule's own
  // process-wide schedule map.
  std::set<std::pair<int, int>> generated;
  std::map<std::string, double> counts;
  double executor_events_real = 0.0;
  double executor_events_replay = 0.0;
  double ring_calls_real = 0.0;
  double ring_calls_replay = 0.0;
};

// The layer calls of ConfigSearch::Sweep, made through public functions:
// candidate enumeration with the memory-feasibility filter, the candidate and
// whole-sweep memos, bound pruning, and per-search schedule reuse.
class ShadowSearch {
 public:
  ShadowSearch(const TransformerSpec* spec, const ModelSections* sections,
               const Calibration* calibration, ReplayState* state)
      : spec_(spec),
        sections_(sections),
        picker_(spec, sections, calibration),
        simulator_(calibration),
        tracer_(&state->tracer),
        generated_(&state->generated),
        counts_(&state->counts) {}

  // One decision. `fresh_context` stands for a rotated memo context (the
  // liveput policy folds every predictor learning step into it).
  std::vector<JobConfig> Sweep(int gpus, const SearchConstraints& constraints,
                               bool fresh_context) {
    ScopedSpan span(tracer_, "morph.search");
    ++(*counts_)["replay_sweeps"];
    const auto sweep_key = std::make_pair(gpus, constraints.cpu_offload_optimizer);
    if (!fresh_context) {
      const auto it = sweeps_.find(sweep_key);
      if (it != sweeps_.end()) {
        return it->second;
      }
    }
    if (fresh_context || constraints.cpu_offload_optimizer != memo_offload_) {
      memo_.clear();
      memo_offload_ = constraints.cpu_offload_optimizer;
    }

    struct Candidate {
      int depth, replicas, microbatch, num_microbatches;
      const Partition* partition;
      FastSimResult sim;
      double lower_bound_s = 0.0;
      bool resolved = false;
    };
    const auto batch = [](const Candidate& c) {
      return static_cast<double>(c.microbatch) * c.num_microbatches * c.replicas;
    };
    const auto sim_config = [&](const Candidate& c) {
      FastSimConfig config;
      config.sections = sections_;
      config.partition = c.partition;
      config.data_parallel = c.replicas;
      config.microbatch_size = c.microbatch;
      config.gpus_per_node = constraints.gpus_per_node;
      config.shared_sync_bytes = constraints.shared_sync_bytes;
      return config;
    };

    const std::vector<int> ms = picker_.PickMicrobatchCandidates(
        constraints.microbatch_tolerance, constraints.microbatch_candidates);
    std::vector<Candidate> candidates;
    std::vector<size_t> pending;
    const int max_depth = std::min(gpus, sections_->num_sections());
    for (int depth = 1; depth <= max_depth; ++depth) {
      const Partition* partition = PartitionFor(depth);
      const int replicas = gpus / depth;
      if (partition == nullptr || replicas < 1) {
        continue;
      }
      for (const int m : ms) {
        const int num_microbatches = static_cast<int>(
            std::ceil(constraints.total_batch / (static_cast<double>(m) * replicas)));
        if (!StageMemoryFits(*partition, m, num_microbatches, constraints)) {
          continue;
        }
        Candidate candidate{depth, replicas, m, num_microbatches, partition, {}, 0.0, false};
        const auto hit = memo_.find(std::make_tuple(depth, replicas, m, num_microbatches));
        if (hit != memo_.end()) {
          candidate.sim = hit->second;
          candidate.resolved = true;
        } else {
          pending.push_back(candidates.size());
        }
        candidates.push_back(candidate);
      }
    }
    double incumbent = 0.0;
    for (const Candidate& c : candidates) {
      if (c.resolved) {
        incumbent = std::max(incumbent, batch(c) / c.sim.minibatch_s);
      }
    }
    for (const size_t index : pending) {
      Candidate& c = candidates[index];
      ScopedSpan bound(tracer_, "morph.fastsim");
      c.lower_bound_s = simulator_.LowerBoundMinibatch(sim_config(c), c.num_microbatches);
    }
    size_t next = 0;
    std::vector<size_t> round;
    while (next < pending.size()) {
      round.clear();
      while (next < pending.size() && round.size() < kSimulationRound) {
        const size_t index = pending[next++];
        const Candidate& c = candidates[index];
        if (constraints.prune && incumbent > 0.0 && c.lower_bound_s > 0.0 &&
            batch(c) / c.lower_bound_s < incumbent) {
          continue;
        }
        round.push_back(index);
      }
      for (const size_t index : round) {
        Candidate& c = candidates[index];
        const Schedule& schedule = ScheduleFor(c.depth, c.num_microbatches);
        ScopedSpan simulate(tracer_, "morph.fastsim");
        c.sim = simulator_.EstimateMinibatch(schedule, sim_config(c));
      }
      for (const size_t index : round) {
        Candidate& c = candidates[index];
        c.resolved = true;
        memo_[std::make_tuple(c.depth, c.replicas, c.microbatch, c.num_microbatches)] = c.sim;
        incumbent = std::max(incumbent, batch(c) / c.sim.minibatch_s);
      }
    }

    std::vector<JobConfig> feasible;
    for (const Candidate& c : candidates) {
      if (!c.resolved) {
        continue;
      }
      JobConfig config;
      config.pipeline_depth = c.depth;
      config.data_parallel = c.replicas;
      config.microbatch_size = c.microbatch;
      config.num_microbatches = c.num_microbatches;
      config.est_minibatch_s = c.sim.minibatch_s;
      config.est_examples_per_s = config.ActualBatch() / c.sim.minibatch_s;
      config.gpus_used = c.depth * c.replicas;
      feasible.push_back(config);
    }
    if (!fresh_context) {
      sweeps_[sweep_key] = feasible;
    }
    return feasible;
  }

  // This search's schedule cache; a shape new to the process is generated
  // (and validated inside GenerateSchedule), then re-validated in a child
  // span so the validation share can be booked to its own layer.
  const Schedule& ScheduleFor(int depth, int num_microbatches) {
    ++(*counts_)["schedule_requests"];
    const auto key = std::make_pair(depth, num_microbatches);
    const auto it = schedules_.find(key);
    if (it != schedules_.end()) {
      return it->second;
    }
    const bool fresh = generated_->insert(key).second;
    ScopedSpan span(tracer_, "pipeline.schedule");
    Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, depth, num_microbatches);
    if (fresh) {
      ++(*counts_)["schedule_generations"];
      ScopedSpan validate(tracer_, "pipeline.validate");
      VARUNA_CHECK(ValidateSchedule(schedule).ok());
    }
    return schedules_.emplace(key, std::move(schedule)).first->second;
  }

  const Partition* PartitionFor(int depth) {
    const auto it = partitions_.find(depth);
    if (it != partitions_.end()) {
      return it->second.get();
    }
    Result<Partition> partition = PartitionModel(*sections_, depth);
    std::unique_ptr<Partition> owned;
    if (partition.ok()) {
      owned = std::make_unique<Partition>(std::move(partition).value());
    }
    return partitions_.emplace(depth, std::move(owned)).first->second.get();
  }

  int SaturatingMicrobatch(const SearchConstraints& constraints) const {
    return picker_.PickMicrobatchSize(constraints.microbatch_tolerance);
  }

 private:
  bool StageMemoryFits(const Partition& partition, int m, int num_microbatches,
                       const SearchConstraints& constraints) const {
    const double block_full_act = BlockFullActivationBytes(*spec_);
    const double blocks_per_section =
        static_cast<double>(spec_->num_layers) / sections_->num_sections();
    for (int stage = 0; stage < partition.depth(); ++stage) {
      const int begin = partition.stage_begin[static_cast<size_t>(stage)];
      const int end = partition.stage_begin[static_cast<size_t>(stage) + 1];
      MemoryModelInputs inputs;
      inputs.stage_params = partition.stage_params[static_cast<size_t>(stage)];
      inputs.input_activation_bytes_per_example =
          stage == 0 ? 4.0 * spec_->seq_len : spec_->BoundaryActivationBytes();
      inputs.full_activation_bytes_per_example =
          block_full_act * blocks_per_section * (end - begin);
      inputs.microbatch_size = m;
      inputs.num_microbatches = num_microbatches;
      inputs.pipeline_depth = partition.depth();
      inputs.stage_index = stage;
      inputs.cpu_offload_optimizer = constraints.cpu_offload_optimizer;
      if (!Fits(EstimateStageMemory(ScheduleKind::kVaruna, inputs), constraints.budget)) {
        return false;
      }
    }
    return true;
  }

  const TransformerSpec* spec_;
  const ModelSections* sections_;
  ConfigSearch picker_;  // Only for PickMicrobatchCandidates/PickMicrobatchSize.
  FastSimulator simulator_;
  Tracer* tracer_;
  std::set<std::pair<int, int>>* generated_;
  std::map<std::string, double>* counts_;
  std::map<std::tuple<int, int, int, int>, FastSimResult> memo_;
  bool memo_offload_ = false;
  std::map<std::pair<int, bool>, std::vector<JobConfig>> sweeps_;
  std::map<int, std::unique_ptr<Partition>> partitions_;
  std::map<std::pair<int, int>, Schedule> schedules_;
};

const JobConfig* Winner(const std::vector<JobConfig>& sweep) {
  const JobConfig* best = nullptr;
  for (const JobConfig& config : sweep) {
    if (best == nullptr || config.est_examples_per_s > best->est_examples_per_s) {
      best = &config;
    }
  }
  return best;
}

struct Decision {
  double time_s = 0.0;
  int gpus = 0;
  const EventInput* event = nullptr;  // Null for a provision-tick sweep.
  bool offload = false;
};

// The sweeps a session made: one per reconfiguration event, plus the growth
// checks of the provision tick, which ElasticTrainer re-runs only when the
// available GPU count moved by max(4, G/12) since the last evaluation (every
// tick under the liveput policy, and one normal-mode probe per tick while
// degraded).
std::vector<Decision> SessionDecisions(const SessionInput& session, double interval_s,
                                       double horizon_s, bool proactive) {
  std::vector<Decision> decisions;
  size_t next_event = 0;
  size_t next_sample = 0;
  int available = 0;
  int last_check = 0;
  bool degraded = false;
  bool started = false;
  const auto advance_to = [&](double t) {
    while (next_event < session.events.size() && session.events[next_event].time_s <= t) {
      const EventInput& event = session.events[next_event++];
      if (event.kind == "degraded" || event.kind == "recover") {
        degraded = event.kind == "degraded";
        continue;
      }
      if (event.depth > 0) {
        decisions.push_back(Decision{event.time_s, event.gpus, &event, degraded});
        last_check = event.gpus;
        started = true;
      }
    }
    while (next_sample < session.samples.size() && session.samples[next_sample].time_s <= t) {
      available = session.samples[next_sample++].gpus;
    }
  };
  for (double tick = interval_s; tick <= horizon_s; tick += interval_s) {
    advance_to(tick);
    if (!started || available <= 0) {
      continue;
    }
    if (degraded) {
      decisions.push_back(Decision{tick, available, nullptr, false});
    }
    if (proactive || std::abs(available - last_check) >= std::max(4, last_check / 12)) {
      last_check = available;
      decisions.push_back(Decision{tick, available, nullptr, degraded});
    }
  }
  advance_to(horizon_s);
  std::stable_sort(decisions.begin(), decisions.end(),
                   [](const Decision& a, const Decision& b) { return a.time_s < b.time_s; });
  return decisions;
}

void ReplaySession(const SessionSetup& setup, const SessionInput& input, ReplayState* state) {
  Tracer* tracer = &state->tracer;
  ScopedSpan session_span(tracer, kSessionSpan);
  const ChaosCampaignSpec& campaign = setup.campaign;
  const TrainerOptions& options = campaign.options;
  const VmType vm = Nc6V3();
  const bool proactive = options.morph_policy != MorphPolicy::kReactive;

  const OpGraph graph = BuildTransformerOpGraph(campaign.spec);
  const ModelSections sections = IdentifyCutPoints(graph, campaign.spec.num_layers).value();
  const double shared_sync_bytes = TraceCrossPartitionState(graph, sections).TotalSyncBytes();

  int max_gpus = 4;
  for (const EventInput& event : input.events) {
    max_gpus = std::max(max_gpus, event.gpus);
  }
  for (const SampleInput& sample : input.samples) {
    max_gpus = std::max(max_gpus, sample.gpus);
  }
  Cluster cluster(CommodityFabric());
  cluster.AddVms(vm, max_gpus);
  Rng rng(options.seed);

  Rng calibration_rng = rng.Fork();
  Calibration calibration;
  {
    ScopedSpan span(tracer, "morph.calibration");
    calibration = Calibrate(sections, cluster, options.calibration, &calibration_rng).value();
  }

  SearchConstraints base;
  base.total_batch = options.total_batch;
  base.budget = options.budget;
  if (base.budget.gpu_memory_bytes <= 0.0) {
    base.budget.gpu_memory_bytes = vm.gpu.memory_bytes;
  }
  base.gpus_per_node = vm.node.num_gpus;
  base.shared_sync_bytes = shared_sync_bytes;
  base.prune = !proactive;

  ShadowSearch search(&campaign.spec, &sections, &calibration, state);
  PipelineExecutor executor(&cluster, &rng);
  AvailabilityPredictor predictor(options.predictor);
  std::vector<int> replicas_history;

  for (const Decision& decision :
       SessionDecisions(input, options.provision_check_interval_s, campaign.horizon_s, proactive)) {
    SearchConstraints constraints = base;
    constraints.cpu_offload_optimizer = decision.offload;
    const std::vector<JobConfig> sweep = search.Sweep(decision.gpus, constraints, proactive);
    if (proactive && !sweep.empty()) {
      ScopedSpan span(tracer, "morph.liveput");
      const LiveputObjective objective(&predictor, options.liveput_horizon_s, vm.node.num_gpus);
      (void)objective.BestLiveput(sweep);
    }
    if (decision.event == nullptr) {
      continue;
    }
    // A reconfiguration measures the new placement on the DES testbed.
    ++state->counts["replay_reconfigurations"];
    const int depth = decision.event->depth;
    const int replicas = decision.event->replicas;
    replicas_history.push_back(replicas);
    const JobConfig* winner = Winner(sweep);
    int m = search.SaturatingMicrobatch(constraints);
    if (winner != nullptr && winner->pipeline_depth == depth && winner->data_parallel == replicas) {
      m = winner->microbatch_size;
    } else {
      ++state->counts["replay_winner_mismatches"];
    }
    const Partition* partition = search.PartitionFor(depth);
    if (partition == nullptr) {
      continue;
    }
    const int num_microbatches =
        static_cast<int>(std::ceil(options.total_batch / (static_cast<double>(m) * replicas)));
    const Schedule& schedule = search.ScheduleFor(depth, num_microbatches);
    const std::vector<StageTiming> timings =
        ComputeStageTimings(sections, *partition, vm.gpu, m);
    ExecutorOptions exec_options;
    exec_options.shared_state_sync_bytes = shared_sync_bytes;
    exec_options.cpu_offload_optimizer = decision.offload;
    if (decision.offload) {
      exec_options.cpu_offload_bytes_per_stage = 12.0 * campaign.spec.TotalParams() / depth;
    }
    const uint64_t events_before = executor.events_processed();
    Placement placement;
    {
      ScopedSpan span(tracer, "pipeline.executor");
      placement = PlaceJob(cluster, depth, replicas).value();
      (void)executor.Run(schedule, placement, timings, m, exec_options);
    }
    state->executor_events_replay +=
        static_cast<double>(executor.events_processed() - events_before);
    for (int stage = 0; stage < depth; ++stage) {
      ScopedSpan span(tracer, "net.ring");
      (void)cluster.network().SampleAllReduceTime(
          placement.StageRing(stage), timings[static_cast<size_t>(stage)].grad_allreduce_bytes,
          1, &rng);
      state->ring_calls_replay += 1.0;
    }
  }
  state->executor_events_real += input.executor_events;
  state->ring_calls_real += input.ring_calls;

  // Checkpoint and restore pricing, at the session's real call counts.
  if (replicas_history.empty()) {
    return;
  }
  SimEngine engine;
  CheckpointStore store(&engine, options.checkpoint, &cluster);
  const double params = campaign.spec.TotalParams();
  const auto replicas_at = [&](int64_t i, int64_t n) {
    return replicas_history[static_cast<size_t>(i * static_cast<int64_t>(replicas_history.size()) /
                                                std::max<int64_t>(1, n))];
  };
  for (int64_t i = 0; i < input.checkpoints; ++i) {
    {
      ScopedSpan span(tracer, "manager.checkpoint");
      (void)store.BeginCheckpoint(i * options.checkpoint_every_minibatches, params,
                                  replicas_at(i, input.checkpoints));
    }
    engine.RunUntil(engine.now() + 60.0);
  }
  for (int64_t i = 0; i < input.restarts; ++i) {
    const int replicas = replicas_at(i, input.restarts);
    std::vector<VmId> target(static_cast<size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
      target[static_cast<size_t>(r)] = r;
    }
    ScopedSpan span(tracer, "manager.checkpoint");
    (void)store.RestoreSeconds(store.LatestUsable(), params, replicas, target, replicas / 2);
  }
}

void ReplayDecisions(const ReplayInputs& inputs, ReplayState* state) {
  // Calibration belongs to the workload's set-up, outside the measured phase.
  const DecisionModel model = PrepareDecisionModel();
  ScopedSpan session_span(&state->tracer, kSessionSpan);
  ShadowSearch search(&model.spec, &model.sections, &model.calibration, state);
  for (const DecisionOutcome& decision : inputs.decisions) {
    const std::vector<JobConfig> sweep = search.Sweep(decision.gpus, model.constraints, false);
    const JobConfig* winner = Winner(sweep);
    const JobConfig& chosen = decision.config;
    if (winner == nullptr || winner->pipeline_depth != chosen.pipeline_depth ||
        winner->data_parallel != chosen.data_parallel ||
        winner->microbatch_size != chosen.microbatch_size ||
        winner->num_microbatches != chosen.num_microbatches) {
      ++state->counts["replay_winner_mismatches"];
    }
  }
}

}  // namespace

bool WriteReplayInputs(const std::string& path, const WorkloadRun& run) {
  std::ofstream out(path);
  out.precision(17);
  out << "run_ms " << 1e3 * run.wall_s << "\n";
  for (size_t i = 0; i < run.sessions.size(); ++i) {
    const SessionStats& stats = run.sessions[i].stats;
    out << "session " << i << ' ' << stats.checkpoints << ' ' << stats.restarts << ' '
        << stats.executor_events << ' ' << stats.net_ring_cache_hits + stats.net_ring_cache_misses
        << "\n";
    for (const TimelineEvent& event : stats.events) {
      out << "e " << event.time_s << ' ' << event.kind << ' ' << event.gpus_available << ' '
          << event.pipeline_depth << ' ' << event.data_parallel << "\n";
    }
    int last = -1;
    for (const TimelineSample& sample : stats.samples) {
      if (sample.gpus_available != last) {
        out << "s " << sample.time_s << ' ' << sample.gpus_available << "\n";
        last = sample.gpus_available;
      }
    }
  }
  for (const DecisionOutcome& d : run.decisions) {
    out << "decision " << d.gpus << ' ' << d.config.pipeline_depth << ' '
        << d.config.data_parallel << ' ' << d.config.microbatch_size << ' '
        << d.config.num_microbatches << "\n";
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool ReplayLayers(const std::string& inputs_path, Workload workload, ReplayResult* result) {
  ReplayInputs inputs;
  if (!ReadInputs(inputs_path, &inputs)) {
    std::fprintf(stderr, "e2e_bench: cannot read replay inputs %s\n", inputs_path.c_str());
    return false;
  }
  ReplayState state;
  state.counts["replay_winner_mismatches"] = 0.0;
  if (workload == Workload::kMorphDecisions) {
    ReplayDecisions(inputs, &state);
  } else {
    const std::vector<SessionSetup> setups = WorkloadSessions(workload);
    for (const SessionInput& session : inputs.sessions) {
      if (session.index >= setups.size()) {
        std::fprintf(stderr, "e2e_bench: replay input names an unknown session\n");
        return false;
      }
      ReplaySession(setups[session.index], session, &state);
    }
  }
  result->spans = std::move(state.tracer.spans());
  result->counts = std::move(state.counts);

  // Self time per layer: a span's duration minus what its children cover.
  std::vector<double> child_s(result->spans.size(), 0.0);
  for (const Span& span : result->spans) {
    if (span.parent >= 0) {
      child_s[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double>& busy = result->busy_ms;
  for (const char* layer : {"morph.search", "pipeline.schedule", "pipeline.validate",
                            "morph.fastsim", "morph.calibration", "pipeline.executor", "net.ring",
                            "manager.checkpoint", "morph.liveput"}) {
    busy[layer] = 0.0;
  }
  for (size_t i = 0; i < result->spans.size(); ++i) {
    const Span& span = result->spans[i];
    if (std::strcmp(span.name, kSessionSpan) != 0) {
      busy[span.name] += 1e3 * (span.end_s - span.start_s - child_s[i]);
    }
  }
  // GenerateSchedule validated each fresh shape itself; the child span timed
  // that share, so take it out of the generator once more.
  busy["pipeline.schedule"] -= busy["pipeline.validate"];
  // The trainer re-measures its placement whenever a member's slow factor
  // changes, which the timeline does not record. Scale the replayed executor
  // and ring costs to the measured run's event and ring-pricing counts; ring
  // pricing runs inside the executor, so it is taken out of the executor.
  result->counts["executor_replay_ms"] = busy["pipeline.executor"];
  result->counts["executor_replay_events"] = state.executor_events_replay;
  const double ring_ms = state.ring_calls_replay > 0.0
                             ? busy["net.ring"] * state.ring_calls_real / state.ring_calls_replay
                             : 0.0;
  const double executor_ms =
      state.executor_events_replay > 0.0
          ? busy["pipeline.executor"] * state.executor_events_real / state.executor_events_replay
          : 0.0;
  busy["net.ring"] = ring_ms;
  busy["pipeline.executor"] = std::max(0.0, executor_ms - ring_ms);
  result->counts["run_ms"] = inputs.run_ms;
  return true;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
    return false;
  }
  const double origin = spans.empty() ? 0.0 : spans.front().start_s;
  for (const Span& span : spans) {
    std::fprintf(file, "{\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %d}\n",
                 span.name, 1e3 * (span.start_s - origin), 1e3 * (span.end_s - origin),
                 span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace varuna::e2e
