// Property test for the slot-pool event engine (PR-5 fast-sim core): drives
// seeded random Schedule/Cancel/RunUntil sequences against a naive reference
// model (a flat list of entries sorted on demand) and requires the fired-token
// stream to match exactly, with CheckInvariants() holding throughout.
//
// The reference model replicates the engine's documented edge semantics:
//  * cancelled events leave tombstone entries behind until popped;
//  * RunUntil gates on the earliest *entry* (tombstones included), so it may
//    fire one live event past `until` when a tombstone sorts earlier — the
//    historical lazy-cancel behaviour the engine preserves for bit-identical
//    replay;
//  * after RunUntil, now() == until regardless of what fired.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

struct ModelEntry {
  double when = 0.0;
  uint64_t order = 0;  // Insertion order: the engine's (when, seq) tie-break.
  int token = 0;
  SimEngine::EventId id = 0;
  bool cancelled = false;
};

class ReferenceModel {
 public:
  void Schedule(double when, uint64_t order, int token, SimEngine::EventId id) {
    entries_.push_back({when, order, token, id, false});
  }

  // Marks the entry cancelled (tombstone): it keeps gating RunUntil until a
  // Step pops past it, exactly like the engine's lazy cancel.
  void Cancel(SimEngine::EventId id) {
    for (ModelEntry& entry : entries_) {
      if (entry.id == id && !entry.cancelled) {
        entry.cancelled = true;
        return;
      }
    }
  }

  // Appends the tokens a RunUntil(until) fires, in order.
  void RunUntil(double until, std::vector<int>* fired) {
    for (;;) {
      const int earliest = EarliestIndex();
      if (earliest < 0 || entries_[earliest].when > until) {
        break;
      }
      // One engine Step(): pop entries in (when, order) order until a live
      // one fires — even if that live event lies past `until`.
      bool fired_one = false;
      while (!fired_one) {
        const int next = EarliestIndex();
        if (next < 0) {
          break;
        }
        const ModelEntry entry = entries_[next];
        entries_.erase(entries_.begin() + next);
        if (!entry.cancelled) {
          fired->push_back(entry.token);
          fired_one = true;
        }
      }
      if (!fired_one) {
        break;
      }
    }
  }

  void Drain(std::vector<int>* fired) {
    std::sort(entries_.begin(), entries_.end(), [](const ModelEntry& a, const ModelEntry& b) {
      return a.when != b.when ? a.when < b.when : a.order < b.order;
    });
    for (const ModelEntry& entry : entries_) {
      if (!entry.cancelled) {
        fired->push_back(entry.token);
      }
    }
    entries_.clear();
  }

  size_t live_count() const {
    size_t live = 0;
    for (const ModelEntry& entry : entries_) {
      live += entry.cancelled ? 0 : 1;
    }
    return live;
  }

 private:
  int EarliestIndex() const {
    int best = -1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (best < 0 || entries_[i].when < entries_[best].when ||
          (entries_[i].when == entries_[best].when && entries_[i].order < entries_[best].order)) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  std::vector<ModelEntry> entries_;
};

TEST(SimEnginePoolTest, RandomScheduleCancelRunMatchesReferenceModel) {
  for (const uint64_t seed : {1ull, 7ull, 1234ull, 987654321ull}) {
    SCOPED_TRACE(seed);
    SimEngine engine;
    ReferenceModel model;
    Rng rng(seed);
    std::vector<int> fired;           // What the engine actually ran.
    std::vector<int> expected_fired;  // What the model says should have run.
    std::vector<SimEngine::EventId> live_ids;
    std::vector<SimEngine::EventId> stale_ids;
    uint64_t order = 0;
    int next_token = 0;

    for (int step = 0; step < 4000; ++step) {
      const double r = rng.NextDouble();
      if (r < 0.55) {
        const double when = engine.now() + rng.Uniform(0.0, 10.0);
        const int token = next_token++;
        const SimEngine::EventId id =
            engine.ScheduleAt(when, [&fired, token] { fired.push_back(token); });
        model.Schedule(when, order++, token, id);
        live_ids.push_back(id);
      } else if (r < 0.72 && !live_ids.empty()) {
        const size_t victim = static_cast<size_t>(rng.NextUint64() % live_ids.size());
        engine.Cancel(live_ids[victim]);
        model.Cancel(live_ids[victim]);
        stale_ids.push_back(live_ids[victim]);
        live_ids.erase(live_ids.begin() + victim);
      } else if (r < 0.82 && !stale_ids.empty()) {
        // Double-cancel / cancel-after-fire: generation tags must make any
        // stale id a no-op even after its slot was reused.
        engine.Cancel(stale_ids[rng.NextUint64() % stale_ids.size()]);
      } else {
        const double until = engine.now() + rng.Uniform(0.0, 4.0);
        model.RunUntil(until, &expected_fired);
        engine.RunUntil(until);
        EXPECT_DOUBLE_EQ(engine.now(), until);
        ASSERT_EQ(fired, expected_fired);
        // live_ids now contains ids that already fired; cancelling one is a
        // no-op on both sides (the model's entry is gone, the engine's
        // generation tag is stale), so the cancel arms stay consistent.
      }
      if (step % 128 == 0) {
        engine.CheckInvariants();
      }
    }

    EXPECT_EQ(engine.pending_events(), model.live_count());
    engine.CheckInvariants();
    engine.Run();
    model.Drain(&expected_fired);
    EXPECT_EQ(fired, expected_fired);
    EXPECT_EQ(engine.pending_events(), 0u);
    engine.CheckInvariants();
  }
}

TEST(SimEnginePoolTest, RunUntilFiresPastGateWhenTombstoneSortsEarlier) {
  // Pin the lazy-cancel quirk the reference model encodes: a cancelled entry
  // before `until` opens the gate, and the Step it admits runs the next LIVE
  // event even though that event lies past `until`.
  SimEngine engine;
  bool late_fired = false;
  const auto doomed = engine.Schedule(1.0, [] {});
  engine.Schedule(5.0, [&] { late_fired = true; });
  engine.Cancel(doomed);
  engine.RunUntil(2.0);
  EXPECT_TRUE(late_fired);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.CheckInvariants();
}

TEST(SimEnginePoolTest, StressedQueueKeepsInvariantsUnderChurn) {
  // Heavy interleaved churn at a single timestamp cluster: exercises slot
  // reuse, tombstone accumulation and 4-ary sift paths, with the full
  // invariant sweep after every phase.
  SimEngine engine;
  int fired = 0;
  std::vector<SimEngine::EventId> ids;
  for (int round = 0; round < 50; ++round) {
    ids.clear();
    for (int i = 0; i < 100; ++i) {
      ids.push_back(engine.Schedule(0.5 + 0.001 * (i % 7), [&] { ++fired; }));
    }
    for (size_t i = 0; i < ids.size(); i += 3) {
      engine.Cancel(ids[i]);
    }
    engine.CheckInvariants();
    engine.RunUntil(engine.now() + 1.0);
    engine.CheckInvariants();
    EXPECT_EQ(engine.pending_events(), 0u);
  }
  EXPECT_EQ(fired, 50 * (100 - 34));
}

}  // namespace
}  // namespace varuna
