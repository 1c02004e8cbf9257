// A const Network is read-only: pool workers price allreduce rings on one
// shared instance and must get exactly what a serial pass gets. Runs under
// the `threaded` ctest label so TSan checks that pricing writes nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/net/network.h"
#include "src/net/topology.h"

namespace varuna {
namespace {

struct RingPrices {
  double mean = 0.0;
  double sampled = 0.0;
};

// Prices one seeded random ring over NC6 and NC24 GPUs; a pure function of
// `item`, so any worker may run it.
RingPrices PriceItem(const Network& network, int num_gpus, int item) {
  Rng rng(1000 + static_cast<uint64_t>(item));
  const int members = 2 + static_cast<int>(rng.NextUint64() % 15);
  std::vector<GpuId> ring;
  for (int i = 0; i < members; ++i) {
    ring.push_back(static_cast<GpuId>(rng.NextUint64() % static_cast<uint64_t>(num_gpus)));
  }
  const int rings = 1 + static_cast<int>(rng.NextUint64() % 4);
  const double bytes = 1e6 * static_cast<double>(1 + rng.NextUint64() % 500);
  RingPrices prices;
  prices.mean = network.MeanAllReduceTime(ring, bytes, rings);
  prices.sampled = network.SampleAllReduceTime(ring, bytes, rings, &rng);
  return prices;
}

TEST(NetworkTest, SharedNetworkPricesRingsConcurrently) {
  Topology topology(CommodityFabric());
  for (int i = 0; i < 6; ++i) {
    topology.AddNode(i % 3 == 0 ? Nc24V3().node : Nc6V3().node);
  }
  const Network network(&topology);
  constexpr int kItems = 256;

  std::vector<RingPrices> serial(kItems);
  for (int item = 0; item < kItems; ++item) {
    serial[static_cast<size_t>(item)] = PriceItem(network, topology.num_gpus(), item);
  }

  // A fresh instance, so the pooled pass is the first to price any ring on it.
  const Network shared(&topology);
  std::vector<RingPrices> pooled(kItems);
  ThreadPool pool(4);
  pool.ParallelFor(kItems, [&](int item, int /*worker*/) {
    pooled[static_cast<size_t>(item)] = PriceItem(shared, topology.num_gpus(), item);
  });

  for (int item = 0; item < kItems; ++item) {
    const size_t i = static_cast<size_t>(item);
    EXPECT_EQ(pooled[i].mean, serial[i].mean) << "item " << item;
    EXPECT_EQ(pooled[i].sampled, serial[i].sampled) << "item " << item;
  }
}

}  // namespace
}  // namespace varuna
