#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/net/network.h"
#include "src/net/topology.h"

namespace varuna {
namespace {

Topology TwoNodeTopology(int gpus_per_node) {
  FabricSpec fabric;
  fabric.per_flow_bandwidth_bps = GbpsToBytesPerSec(5.0);
  fabric.base_latency_s = 300e-6;
  Topology topology(fabric);
  NodeSpec node;
  node.num_gpus = gpus_per_node;
  node.intra_bandwidth_bps = GbpsToBytesPerSec(96.0);
  node.intra_latency_s = 10e-6;
  node.nic_bandwidth_bps = GbpsToBytesPerSec(10.0);
  topology.AddNode(node);
  topology.AddNode(node);
  return topology;
}

TEST(TopologyTest, GpuToNodeMapping) {
  Topology topology = TwoNodeTopology(4);
  EXPECT_EQ(topology.num_nodes(), 2);
  EXPECT_EQ(topology.num_gpus(), 8);
  EXPECT_EQ(topology.NodeOf(0), 0);
  EXPECT_EQ(topology.NodeOf(3), 0);
  EXPECT_EQ(topology.NodeOf(4), 1);
  EXPECT_TRUE(topology.SameNode(0, 3));
  EXPECT_FALSE(topology.SameNode(3, 4));
  EXPECT_EQ(topology.GpusOfNode(1), (std::vector<GpuId>{4, 5, 6, 7}));
}

TEST(NetworkTest, IntraNodeUsesFastLink) {
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  const double intra = network.MeanTransferTime(0, 1, 1e9, 1);
  const double inter = network.MeanTransferTime(0, 4, 1e9, 1);
  EXPECT_LT(intra, inter);
  // 1 GB over 12 GB/s PCIe ~= 83 ms.
  EXPECT_NEAR(intra, 1e9 / GbpsToBytesPerSec(96.0) + 10e-6, 1e-3);
  // Cross-node is capped by the 5 Gbps fabric, not the 10 Gbps NIC.
  EXPECT_NEAR(inter, 1e9 / GbpsToBytesPerSec(5.0) + 300e-6, 1e-2);
}

TEST(NetworkTest, ConcurrentFlowsShareNic) {
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  // With 4 flows the NIC share (10/4 = 2.5 Gbps) is below the fabric cap.
  const double shared = network.FlowBandwidth(0, 4, 4);
  EXPECT_NEAR(shared, GbpsToBytesPerSec(2.5), 1.0);
  EXPECT_LT(shared, network.FlowBandwidth(0, 4, 1));
}

TEST(NetworkTest, SelfTransferIsFree) {
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  EXPECT_DOUBLE_EQ(network.MeanTransferTime(2, 2, 1e9, 1), 0.0);
}

TEST(NetworkTest, JitterSamplesCenterOnBaseLatency) {
  Topology topology(CommodityFabric());
  NodeSpec node = Nc6V3().node;
  topology.AddNode(node);
  topology.AddNode(node);
  Network network(&topology);
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(network.SampleTransferTime(0, 1, 0.0, 1, &rng));
  }
  // Median of log-normal jitter is the base latency; tail stalls push p99 up.
  EXPECT_NEAR(Percentile(samples, 0.5), CommodityFabric().base_latency_s, 50e-6);
  EXPECT_GT(Percentile(samples, 0.995), 2.0 * CommodityFabric().base_latency_s);
}

// The batched call is SampleTransferTime in a loop, bit for bit, and leaves
// the Rng (including a cached Gaussian) exactly where the loop would.
TEST(NetworkTest, SampleTransferTimesMatchesSingleDraws) {
  Topology topology(CommodityFabric());
  topology.AddNode(Nc24V3().node);
  topology.AddNode(Nc24V3().node);
  Network network(&topology);
  const std::pair<GpuId, GpuId> pairs[] = {{0, 4}, {0, 1}, {2, 2}};
  for (const auto& [src, dst] : pairs) {
    for (const int count : {1, 7, 200}) {
      Rng batched(31);
      Rng single(31);
      std::vector<double> times(static_cast<size_t>(count), -1.0);
      network.SampleTransferTimes(src, dst, 3e6, 4, &batched, times);
      for (const double time : times) {
        EXPECT_EQ(time, network.SampleTransferTime(src, dst, 3e6, 4, &single))
            << src << "->" << dst;
      }
      EXPECT_EQ(batched.Gaussian(), single.Gaussian());
      EXPECT_EQ(batched.NextUint64(), single.NextUint64());
    }
  }
}

TEST(NetworkTest, SampleTransferRequiresAFlow) {
  Topology topology = TwoNodeTopology(1);
  Network network(&topology);
  Rng rng(1);
  EXPECT_DEATH(network.SampleTransferTime(0, 1, 1e6, 0, &rng), "concurrent_flows");
  double time = 0.0;
  EXPECT_DEATH(network.SampleTransferTimes(0, 1, 1e6, -2, &rng, std::span<double>(&time, 1)),
               "concurrent_flows");
}

TEST(NetworkTest, AllReduceSingleMemberIsFree) {
  Topology topology = TwoNodeTopology(1);
  Network network(&topology);
  EXPECT_DOUBLE_EQ(network.MeanAllReduceTime({0}, 1e9, 1), 0.0);
}

TEST(NetworkTest, AllReduceScalesWithRingSteps) {
  // Ring allreduce: 2(D-1) steps of S/D bytes -> total ~ 2S(D-1)/D / bw.
  FabricSpec fabric;
  fabric.per_flow_bandwidth_bps = 1e9;
  fabric.base_latency_s = 0.0;
  Topology topology(fabric);
  NodeSpec node;
  node.num_gpus = 1;
  node.intra_bandwidth_bps = 1e12;
  node.nic_bandwidth_bps = 1e9;
  for (int i = 0; i < 8; ++i) {
    topology.AddNode(node);
  }
  Network network(&topology);
  const double bytes = 8e9;
  const double d4 = network.MeanAllReduceTime({0, 1, 2, 3}, bytes, 1);
  const double d8 = network.MeanAllReduceTime({0, 1, 2, 3, 4, 5, 6, 7}, bytes, 1);
  EXPECT_NEAR(d4, 2.0 * 3.0 * (bytes / 4.0 / 1e9), 1e-6);
  EXPECT_NEAR(d8, 2.0 * 7.0 * (bytes / 8.0 / 1e9), 1e-6);
  // Asymptotically bandwidth-optimal: time approaches 2S/bw from below.
  EXPECT_LT(d4, 2.0 * bytes / 1e9);
  EXPECT_LT(d8, 2.0 * bytes / 1e9);
  EXPECT_GT(d8, d4);
}

TEST(NetworkTest, AllReduceSlowestHopDominates) {
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  // Ring within one node vs ring spanning nodes.
  const double intra_ring = network.MeanAllReduceTime({0, 1, 2, 3}, 1e9, 1);
  const double inter_ring = network.MeanAllReduceTime({0, 1, 4, 5}, 1e9, 1);
  EXPECT_LT(intra_ring, inter_ring);
}

TEST(NetworkTest, RingTailAmplifiesWithSize) {
  // Observation 2's mechanism: every ring step waits on the slowest of D
  // concurrent hops, so the per-step latency share of the total grows with D
  // on a stall-prone fabric.
  Topology topology(CommodityFabric());
  NodeSpec node = Nc6V3().node;
  for (int i = 0; i < 32; ++i) {
    topology.AddNode(node);
  }
  Network network(&topology);
  auto per_step_latency = [&](int d) {
    std::vector<GpuId> ring;
    for (int i = 0; i < d; ++i) {
      ring.push_back(i);
    }
    const double bytes = 1e6;  // Small payload: latency-dominated.
    return network.MeanAllReduceTime(ring, bytes, 1) / (2.0 * (d - 1));
  };
  EXPECT_GT(per_step_latency(16), 2.0 * per_step_latency(2));
  EXPECT_GT(per_step_latency(32), per_step_latency(16));
}

TEST(NetworkTest, SampledAllReduceNearMean) {
  Topology topology(CommodityFabric());
  NodeSpec node = Nc6V3().node;
  for (int i = 0; i < 8; ++i) {
    topology.AddNode(node);
  }
  Network network(&topology);
  std::vector<GpuId> ring = {0, 1, 2, 3, 4, 5, 6, 7};
  const double bytes = 500e6;
  const double mean = network.MeanAllReduceTime(ring, bytes, 1);
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 300; ++i) {
    stats.Add(network.SampleAllReduceTime(ring, bytes, 1, &rng));
  }
  EXPECT_NEAR(stats.mean() / mean, 1.0, 0.15);
}

TEST(NetworkTest, IntraNodeRingHasNoTail) {
  // NVLink rings inside a DGX-2 see no fabric stalls.
  Topology topology(CommodityFabric());
  topology.AddNode(Dgx2().node);
  Network network(&topology);
  std::vector<GpuId> ring = {0, 1, 2, 3};
  Rng rng(5);
  const double a = network.SampleAllReduceTime(ring, 100e6, 1, &rng);
  const double b = network.SampleAllReduceTime(ring, 100e6, 1, &rng);
  EXPECT_DOUBLE_EQ(a, b);  // Deterministic: no jitter on NVLink hops.
}

TEST(NetworkTest, SlowestHopIgnoresUnusedIntraLink) {
  // Regression: SlowestHop used to seed its running minimum from members[0]'s
  // intra-node link parameters. On a ring whose hops are ALL cross-node, an
  // intra link slower than the fabric share would win the min and the ring
  // would be costed as intra-node (no jitter amplification, wrong bandwidth)
  // even though no intra hop exists. Two topologies differing only in the
  // (unused) intra link speed must now price the ring identically.
  FabricSpec fabric;
  fabric.per_flow_bandwidth_bps = GbpsToBytesPerSec(5.0);
  fabric.base_latency_s = 300e-6;
  const auto one_gpu_nodes = [&](double intra_gbps) {
    Topology topology(fabric);
    NodeSpec node;
    node.num_gpus = 1;
    node.intra_bandwidth_bps = GbpsToBytesPerSec(intra_gbps);
    node.intra_latency_s = 10e-6;
    node.nic_bandwidth_bps = GbpsToBytesPerSec(10.0);
    topology.AddNode(node);
    topology.AddNode(node);
    return topology;
  };
  // Pathological: intra (1 Gbps) is slower than the cross-node fabric share
  // (5 Gbps) — the configuration that tripped the old seeding.
  Topology slow_intra = one_gpu_nodes(1.0);
  Topology fast_intra = one_gpu_nodes(96.0);
  Network slow_net(&slow_intra);
  Network fast_net(&fast_intra);
  const double bytes = 1e9;
  const double slow_time = slow_net.MeanAllReduceTime({0, 1}, bytes, 1);
  const double fast_time = fast_net.MeanAllReduceTime({0, 1}, bytes, 1);
  EXPECT_DOUBLE_EQ(slow_time, fast_time);
  // The true bottleneck is the 5 Gbps fabric: 2(D-1) steps of bytes/D each,
  // plus the cross-node per-step latency.
  EXPECT_NEAR(slow_time, 2.0 * (bytes / 2.0 / GbpsToBytesPerSec(5.0) + 300e-6), 1e-6);
  // And emphatically NOT the 1 Gbps intra seed the old code reported.
  EXPECT_LT(slow_time, 2.0 * (bytes / 2.0) / GbpsToBytesPerSec(1.0));
}

TEST(NetworkTest, DegenerateSingleGpuRingUsesIntraLink) {
  // A ring where every member is the same GPU has no real hop; it falls back
  // to the member's intra-node parameters (the only defensible default).
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  const double bytes = 1e9;
  const double time = network.MeanAllReduceTime({2, 2}, bytes, 1);
  EXPECT_NEAR(time, 2.0 * (bytes / 2.0 / GbpsToBytesPerSec(96.0) + 10e-6), 1e-9);
}

TEST(NetworkTest, LargeRingSamplingConsumesNoRngDraws) {
  // Pin the documented contract: SampleAllReduceTime on rings with more than
  // 64 members falls back to the analytic mean and consumes ZERO draws.
  Topology topology(CommodityFabric());
  NodeSpec node;
  node.num_gpus = 1;
  node.intra_bandwidth_bps = GbpsToBytesPerSec(96.0);
  node.intra_latency_s = 10e-6;
  node.nic_bandwidth_bps = GbpsToBytesPerSec(10.0);
  for (int i = 0; i < 65; ++i) {
    topology.AddNode(node);
  }
  Network network(&topology);
  std::vector<GpuId> ring;
  for (int i = 0; i < 65; ++i) {
    ring.push_back(i);
  }
  const double bytes = 500e6;
  Rng sampled(7);
  Rng untouched(7);
  const double time = network.SampleAllReduceTime(ring, bytes, 1, &sampled);
  EXPECT_DOUBLE_EQ(time, network.MeanAllReduceTime(ring, bytes, 1));
  // Both rngs must still be at the same position in the stream.
  EXPECT_EQ(sampled.NextUint64(), untouched.NextUint64());

  // Straddle the threshold: at exactly 64 members the explicit per-step max
  // IS sampled, so the stream advances.
  ring.pop_back();
  Rng sampled64(7);
  Rng untouched64(7);
  (void)network.SampleAllReduceTime(ring, bytes, 1, &sampled64);
  EXPECT_NE(sampled64.NextUint64(), untouched64.NextUint64());
}

TEST(NetworkTest, RingCostMemoCountsHitsAndStaysConsistent) {
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  const double bytes = 1e9;
  const std::vector<GpuId> ring = {0, 1, 4, 5};
  EXPECT_EQ(network.ring_cache_hits(), 0u);
  EXPECT_EQ(network.ring_cache_misses(), 0u);
  const double first = network.MeanAllReduceTime(ring, bytes, 1);
  EXPECT_EQ(network.ring_cache_misses(), 1u);
  const double second = network.MeanAllReduceTime(ring, bytes, 1);
  EXPECT_EQ(network.ring_cache_hits(), 1u);
  EXPECT_DOUBLE_EQ(first, second);
  // The key includes concurrent_rings: a different ring count is a miss, and
  // the shared-NIC price differs.
  const double shared = network.MeanAllReduceTime(ring, bytes, 4);
  EXPECT_EQ(network.ring_cache_misses(), 2u);
  EXPECT_GT(shared, first);
  // The key is the canonical ring *shape*: this reordering changes the hop
  // multiset (2 intra + 2 cross -> 4 cross), so it is a genuinely different
  // ring and a distinct entry even over the same GPUs.
  const std::vector<GpuId> reordered = {0, 4, 1, 5};
  (void)network.MeanAllReduceTime(reordered, bytes, 1);
  EXPECT_EQ(network.ring_cache_misses(), 3u);
  // Memoized values match a fresh (cold-cache) Network exactly.
  Network cold(&topology);
  EXPECT_DOUBLE_EQ(network.MeanAllReduceTime(ring, bytes, 1),
                   cold.MeanAllReduceTime(ring, bytes, 1));
  EXPECT_DOUBLE_EQ(network.MeanAllReduceTime(reordered, bytes, 1),
                   cold.MeanAllReduceTime(reordered, bytes, 1));
}

TEST(NetworkTest, RingShapeMemoHitsOnEquivalentRings) {
  // The memo keys on ring shape, not member sequence: rotations, reversals,
  // and substitutions of same-link-class GPUs are one entry. This is what
  // lets morphed rings (same pattern, shuffled membership) re-hit.
  Topology topology = TwoNodeTopology(4);
  Network network(&topology);
  const double bytes = 1e9;
  const double base = network.MeanAllReduceTime({0, 1, 4, 5}, bytes, 1);
  EXPECT_EQ(network.ring_cache_misses(), 1u);
  EXPECT_EQ(network.ring_cache_hits(), 0u);
  const std::vector<std::vector<GpuId>> equivalent = {
      {1, 4, 5, 0},  // rotation
      {5, 4, 1, 0},  // reversal
      {2, 3, 6, 7},  // same-class GPU substitution
      {6, 7, 2, 3},  // substitution across the node boundary (classes match)
  };
  for (const auto& ring : equivalent) {
    EXPECT_DOUBLE_EQ(network.MeanAllReduceTime(ring, bytes, 1), base);
  }
  EXPECT_EQ(network.ring_cache_misses(), 1u);
  EXPECT_EQ(network.ring_cache_hits(), equivalent.size());
}

TEST(NetworkTest, ShapeEquivalentRingsPriceBitIdenticallyColdCache) {
  // Property: for seeded random rings, any rotation/reversal must produce
  // bit-identical RingCosts even on a COLD cache (i.e. the shape computation
  // itself is walk-order canonical, not just the memo lookup).
  Topology topology(CommodityFabric());
  NodeSpec small = Nc6V3().node;
  NodeSpec big = Nc24V3().node;
  for (int i = 0; i < 4; ++i) {
    topology.AddNode(i % 2 == 0 ? small : big);
  }
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 2 + static_cast<int>(rng.NextUint64() % 7);
    std::vector<GpuId> ring;
    for (int i = 0; i < d; ++i) {
      ring.push_back(static_cast<GpuId>(rng.NextUint64() %
                                        static_cast<uint64_t>(topology.num_gpus())));
    }
    std::vector<GpuId> rotated = ring;
    const size_t shift = rng.NextUint64() % ring.size();
    std::rotate(rotated.begin(), rotated.begin() + static_cast<long>(shift), rotated.end());
    if (rng.NextUint64() % 2 == 0) {
      std::reverse(rotated.begin(), rotated.end());
    }
    const int rings = 1 + static_cast<int>(rng.NextUint64() % 3);
    const double bytes = 1e8;
    Network cold_a(&topology);
    Network cold_b(&topology);
    ASSERT_DOUBLE_EQ(cold_a.MeanAllReduceTime(ring, bytes, rings),
                     cold_b.MeanAllReduceTime(rotated, bytes, rings))
        << "trial " << trial;
    // And the warm path agrees: the rotated ring hits the original's entry.
    const uint64_t hits_before = cold_a.ring_cache_hits();
    ASSERT_DOUBLE_EQ(cold_a.MeanAllReduceTime(rotated, bytes, rings),
                     cold_a.MeanAllReduceTime(ring, bytes, rings))
        << "trial " << trial;
    ASSERT_EQ(cold_a.ring_cache_hits(), hits_before + 2) << "trial " << trial;
  }
}

TEST(TopologyTest, LinkClassesDedupeOnLinkFields) {
  FabricSpec fabric;
  fabric.per_flow_bandwidth_bps = GbpsToBytesPerSec(5.0);
  Topology topology(fabric);
  NodeSpec a;
  a.num_gpus = 4;
  a.intra_bandwidth_bps = GbpsToBytesPerSec(96.0);
  a.intra_latency_s = 10e-6;
  a.nic_bandwidth_bps = GbpsToBytesPerSec(10.0);
  NodeSpec b = a;
  b.nic_bandwidth_bps = GbpsToBytesPerSec(40.0);
  // Same link fields but a different GPU count must still share the class.
  NodeSpec a_fat = a;
  a_fat.num_gpus = 8;
  topology.AddNode(a);
  topology.AddNode(b);
  topology.AddNode(a_fat);
  topology.AddNode(b);
  EXPECT_EQ(topology.num_link_classes(), 2);
  EXPECT_EQ(topology.LinkClassOf(0), 0);
  EXPECT_EQ(topology.LinkClassOf(1), 1);
  EXPECT_EQ(topology.LinkClassOf(2), 0);
  EXPECT_EQ(topology.LinkClassOf(3), 1);
  EXPECT_DOUBLE_EQ(topology.LinkClassSpec(1).nic_bandwidth_bps, GbpsToBytesPerSec(40.0));
}

TEST(NetworkTest, HyperclusterFasterThanCommodity) {
  Topology commodity(CommodityFabric());
  commodity.AddNode(Nc24V3().node);
  commodity.AddNode(Nc24V3().node);
  Network commodity_net(&commodity);

  Topology hyper(HyperclusterFabric());
  hyper.AddNode(Dgx2().node);
  hyper.AddNode(Dgx2().node);
  Network hyper_net(&hyper);

  const double bytes = 100e6;
  EXPECT_LT(hyper_net.MeanTransferTime(0, 16, bytes, 1),
            commodity_net.MeanTransferTime(0, 4, bytes, 1) / 10.0);
}

}  // namespace
}  // namespace varuna
