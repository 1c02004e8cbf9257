#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/varuna/determinism.h"
#include "tests/seeded_session.h"

namespace varuna {
namespace {

ElasticTrace RunSession(const ChaosCampaignSpec& session) {
  const ChaosReport report = RunChaosCampaign(session);
  // An empty plan fires nothing, so the trace is the plain session's.
  EXPECT_EQ(report.vms_killed_by_chaos, 0);
  EXPECT_EQ(report.shards_corrupted_by_chaos, 0);
  EXPECT_EQ(report.fingerprint, report.trace.Fingerprint());
  return report.trace;
}

TEST(DeterminismTest, SameSeedBitIdenticalTrace) {
  const ChaosCampaignSpec session = SeededSession(/*seed=*/11);
  const ElasticTrace first = RunSession(session);
  const ElasticTrace second = RunSession(session);

  // The session must actually exercise the interesting paths, otherwise the
  // bit-identity claim is vacuous.
  EXPECT_GT(first.events_processed, 100u);
  EXPECT_GT(first.minibatches_done, 0);
  EXPECT_FALSE(first.events.empty());
  EXPECT_FALSE(first.samples.empty());

  EXPECT_EQ(first, second);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

TEST(DeterminismTest, SameSeedBitIdenticalUnderChurn) {
  // Aggressive preemption hazard: the trace must stay bit-identical through
  // preemption handling, checkpoint restores and morphs.
  ChaosCampaignSpec session = SeededSession(/*seed=*/23);
  session.preemption_hazard_per_s = 1.0 / (1.5 * 3600.0);
  session.horizon_s = 4.0 * 3600.0;
  const ElasticTrace first = RunSession(session);
  const ElasticTrace second = RunSession(session);
  EXPECT_GT(first.preemptions_hit + first.morphs, 0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint has discriminating power: different
  // seeds drive different market draws, so the traces must differ.
  const ElasticTrace a = RunSession(SeededSession(/*seed=*/11));
  const ElasticTrace b = RunSession(SeededSession(/*seed=*/12));
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

// ReplayRecord is the replay contract: perturbing any one of its scalars, or
// any event/sample field the hash reads, must break equality and move the
// fingerprint.
double NextUp(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }

struct Perturbation {
  const char* field;
  void (*apply)(ElasticTrace* trace);
};

const Perturbation kRecordPerturbations[] = {
    {"minibatches_done", [](ElasticTrace* t) { ++t->minibatches_done; }},
    {"morphs", [](ElasticTrace* t) { ++t->morphs; }},
    {"preemptions_hit", [](ElasticTrace* t) { ++t->preemptions_hit; }},
    {"checkpoints", [](ElasticTrace* t) { ++t->checkpoints; }},
    {"examples_processed",
     [](ElasticTrace* t) { t->examples_processed = NextUp(t->examples_processed); }},
    {"preemptions_survived", [](ElasticTrace* t) { ++t->preemptions_survived; }},
    {"restarts", [](ElasticTrace* t) { ++t->restarts; }},
    {"heartbeat_timeouts", [](ElasticTrace* t) { ++t->heartbeat_timeouts; }},
    {"morph_retries", [](ElasticTrace* t) { ++t->morph_retries; }},
    {"reprovision_retries", [](ElasticTrace* t) { ++t->reprovision_retries; }},
    {"degraded_intervals", [](ElasticTrace* t) { ++t->degraded_intervals; }},
    {"shards_lost", [](ElasticTrace* t) { ++t->shards_lost; }},
    {"minibatches_rolled_back", [](ElasticTrace* t) { ++t->minibatches_rolled_back; }},
    {"examples_rolled_back",
     [](ElasticTrace* t) { t->examples_rolled_back = NextUp(t->examples_rolled_back); }},
    {"last_restore_step", [](ElasticTrace* t) { ++t->last_restore_step; }},
    {"proactive_morphs", [](ElasticTrace* t) { ++t->proactive_morphs; }},
    {"premigrated_shards", [](ElasticTrace* t) { ++t->premigrated_shards; }},
    {"events[0].time_s",
     [](ElasticTrace* t) { t->events[0].time_s = NextUp(t->events[0].time_s); }},
    // The session opens with a configure; a kind of another name must move
    // the hash (the three morph kinds share one name).
    {"events[0].kind", [](ElasticTrace* t) { t->events[0].kind = DecisionKind::kReplace; }},
    {"samples[0].time_s",
     [](ElasticTrace* t) { t->samples[0].time_s = NextUp(t->samples[0].time_s); }},
    {"samples[0].examples_per_s",
     [](ElasticTrace* t) { t->samples[0].examples_per_s = NextUp(t->samples[0].examples_per_s); }},
};

const ElasticTrace& SeedElevenTrace() {
  static const ElasticTrace trace = RunSession(SeededSession(/*seed=*/11));
  return trace;
}

TEST(ReplayRecordTest, EveryRecordFieldMovesTheFingerprint) {
  const ElasticTrace& base = SeedElevenTrace();
  ASSERT_FALSE(base.events.empty());
  ASSERT_FALSE(base.samples.empty());
  for (const Perturbation& perturbation : kRecordPerturbations) {
    ElasticTrace perturbed = base;
    perturbation.apply(&perturbed);
    EXPECT_FALSE(perturbed == base) << perturbation.field;
    EXPECT_NE(perturbed.Fingerprint(), base.Fingerprint()) << perturbation.field;
  }
}

TEST(ReplayRecordTest, ObservabilityFieldsStayOutOfTheTrace) {
  const ElasticTrace& base = SeedElevenTrace();
  SessionStats quiet;
  static_cast<ReplayRecord&>(quiet) = base;
  SessionStats noisy = quiet;
  noisy.stutters_detected += 3;
  noisy.stalled_s += 1.5;
  noisy.minibatches_attempted += 2;
  noisy.sweep_cache_hits += 7;
  noisy.candidate_memo_misses += 5;
  noisy.executor_events += 11;
  noisy.net_ring_cache_hits += 13;
  noisy.premigrated_bytes += 1e9;
  noisy.liveput_wins += 2;
  noisy.restore_cloud_s += 4.0;
  noisy.checkpoint_records_pruned += 1;

  const ElasticTrace a{quiet, base.events_processed, base.final_now_s};
  const ElasticTrace b{noisy, base.events_processed, base.final_now_s};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), base.Fingerprint());
}

}  // namespace
}  // namespace varuna
