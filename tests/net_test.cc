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

TEST(NetworkTest, ShapeEquivalentRingsPriceBitIdenticallyColdCache) {
  // Property: a ring's price depends only on its shape, so any rotation or
  // reversal — and any substitution of GPUs with the same link specs — prices
  // bit-identically, both analytically and sampled from equal seeds. The
  // slowest-hop walk's value-canonical tie-break is what makes this hold.
  const auto expect_same_price = [](const Network& network, const std::vector<GpuId>& ring,
                                    const std::vector<GpuId>& equivalent, int rings,
                                    uint64_t seed) {
    const double bytes = 1e8;
    EXPECT_EQ(network.MeanAllReduceTime(ring, bytes, rings),
              network.MeanAllReduceTime(equivalent, bytes, rings));
    Rng rng_a(seed);
    Rng rng_b(seed);
    EXPECT_EQ(network.SampleAllReduceTime(ring, bytes, rings, &rng_a),
              network.SampleAllReduceTime(equivalent, bytes, rings, &rng_b));
  };

  // Rotation, reversal and two same-spec substitutions of one mixed ring.
  {
    Topology topology = TwoNodeTopology(4);
    const Network network(&topology);
    const std::vector<GpuId> base = {0, 1, 4, 5};
    for (const std::vector<GpuId>& ring : std::vector<std::vector<GpuId>>{
             {1, 4, 5, 0},  // rotation
             {5, 4, 1, 0},  // reversal
             {2, 3, 6, 7},  // same-spec GPU substitution
             {6, 7, 2, 3},  // substitution across the node boundary
         }) {
      expect_same_price(network, base, ring, 1, 11);
    }
    // Rings sharing NICs are not equivalent: each gets a smaller NIC share.
    EXPECT_GT(network.MeanAllReduceTime(base, 1e9, 4), network.MeanAllReduceTime(base, 1e9, 1));
  }

  Topology topology(CommodityFabric());
  NodeSpec small = Nc6V3().node;
  NodeSpec big = Nc24V3().node;
  for (int i = 0; i < 4; ++i) {
    topology.AddNode(i % 2 == 0 ? small : big);
  }
  const Network network(&topology);
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
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_same_price(network, ring, rotated, rings, 100 + static_cast<uint64_t>(trial));
  }
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
