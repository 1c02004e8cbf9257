// The canned seeded session the determinism tests replay: GPT-2 2.5B on a
// churning 30-VM pool for 2 h, run through the chaos campaign runner with an
// empty plan (a plain elastic session).
#ifndef TESTS_SEEDED_SESSION_H_
#define TESTS_SEEDED_SESSION_H_

#include <cstdint>

#include "src/chaos/chaos.h"

namespace varuna {

inline ChaosCampaignSpec SeededSession(uint64_t seed) {
  ChaosCampaignSpec session;
  session.spec = Gpt2_2_5B();
  session.max_vms = 30;
  session.horizon_s = 2.0 * 3600.0;
  session.options.total_batch = 2400;
  session.options.demand_vms = 30;
  session.options.checkpoint_every_minibatches = 5;
  session.options.seed = seed;
  return session;
}

}  // namespace varuna

#endif  // TESTS_SEEDED_SESSION_H_
