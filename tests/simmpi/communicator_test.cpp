// Simulated-MPI tests: phase timing (one scan of the loads, priced as the
// two-scan path did), butterfly flows from the rank map (bit-exact against
// an ordered-map aggregation of the rank messages), and the grouped
// all-to-all pattern (the CAPS building block).
#include "simmpi/communicator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/graph_network.hpp"
#include "topo/dragonfly.hpp"

namespace npac::simmpi {
namespace {

simnet::TorusNetwork unit_network(topo::Dims dims) {
  simnet::NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  return simnet::TorusNetwork(topo::Torus(std::move(dims)), options);
}

TEST(TimelineTest, AccumulatesPhaseSeconds) {
  Timeline timeline;
  timeline.add({"a", 1.5, 0.0, 0.0});
  timeline.add({"b", 2.5, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(timeline.total_seconds(), 4.0);
  EXPECT_EQ(timeline.records().size(), 2u);
}

TEST(CommunicatorTest, RequiresMatchingNodeCount) {
  const auto net = unit_network({4});
  EXPECT_THROW(Communicator(&net, RankMap(4, 8)), std::invalid_argument);
  EXPECT_THROW(Communicator(nullptr, RankMap(4, 4)), std::invalid_argument);
}

TEST(CommunicatorTest, RunPhaseRecordsAndReturnsSeconds) {
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(4, 4));
  Timeline timeline;
  const double seconds =
      comm.run_phase("test", {{0, 1, 10.0}}, timeline);
  EXPECT_DOUBLE_EQ(seconds, 10.0);
  ASSERT_EQ(timeline.records().size(), 1u);
  EXPECT_EQ(timeline.records()[0].label, "test");
  EXPECT_DOUBLE_EQ(timeline.records()[0].total_bytes, 10.0);
}

TEST(CommunicatorTest, ButterflyAggregatesByNodePair) {
  const auto net = unit_network({4});
  // 2 ranks per node. Mask 1 pairs the two ranks of each node: no flows.
  // Mask 2 pairs ranks 0,1 (node 0) with 2,3 (node 1), and so on.
  const Communicator comm(&net, RankMap(8, 4));
  std::vector<simnet::Flow> flows = {{3, 2, 1.0}};  // cleared first
  comm.butterfly(1, 5.0, flows);
  EXPECT_TRUE(flows.empty());
  comm.butterfly(2, 5.0, flows);
  ASSERT_EQ(flows.size(), 4u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].src, static_cast<topo::VertexId>(i));
    EXPECT_EQ(flows[i].dst, static_cast<topo::VertexId>(i ^ 1));
    EXPECT_EQ(flows[i].bytes, 10.0);
  }
}

// The ordered-map aggregation of the FFT's rank messages (r, r ^ mask,
// bytes), in rank order, that butterfly must reproduce bit for bit: flows
// in (src, dst) order, each pair's bytes summed from 0.0 in message order.
std::vector<simnet::Flow> map_butterfly(const RankMap& map, std::int64_t mask,
                                        double bytes) {
  std::map<std::pair<topo::VertexId, topo::VertexId>, double> aggregated;
  for (std::int64_t rank = 0; rank < map.num_ranks(); ++rank) {
    const topo::VertexId src = map.node_of(rank);
    const topo::VertexId dst = map.node_of(rank ^ mask);
    if (src == dst) continue;
    aggregated[{src, dst}] += bytes;
  }
  std::vector<simnet::Flow> flows;
  for (const auto& [key, bytes_sum] : aggregated) {
    flows.push_back({key.first, key.second, bytes_sum});
  }
  return flows;
}

TEST(CommunicatorTest, ButterflyMatchesOrderedMapBitForBit) {
  // 24 nodes (odd, even and length-2 dimensions) and 16 nodes; fewer
  // ranks than nodes, equal, an even multiple and uneven counts; every
  // mapping strategy and every mask. The bytes are not dyadic, so a flow
  // carrying k rank messages shows a wrong k in its low bits. One output
  // buffer serves every call, as the FFT uses it.
  const auto net24 = unit_network({4, 3, 2});
  const auto net16 = unit_network({4, 2, 2});
  struct Case {
    const simnet::TorusNetwork* net;
    std::int64_t ranks;
  };
  std::vector<simnet::Flow> got;
  std::size_t compared = 0;
  for (const Case& c : {Case{&net24, 16}, Case{&net24, 32}, Case{&net24, 128},
                        Case{&net16, 16}, Case{&net16, 64}, Case{&net16, 8}}) {
    for (const MappingStrategy strategy :
         {MappingStrategy::kBlocked, MappingStrategy::kStrided,
          MappingStrategy::kRandom}) {
      const RankMap map =
          RankMap::with_mapping(c.ranks, c.net->num_nodes(), strategy, 5);
      const Communicator comm(c.net, map);
      for (std::int64_t mask = 1; mask < c.ranks; ++mask) {
        const double bytes = 1.0 / static_cast<double>(3 + mask % 5);
        comm.butterfly(mask, bytes, got);
        const auto want = map_butterfly(map, mask, bytes);
        ASSERT_EQ(got.size(), want.size())
            << c.ranks << " ranks, mask " << mask;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].src, want[i].src) << "flow " << i;
          EXPECT_EQ(got[i].dst, want[i].dst) << "flow " << i;
          EXPECT_EQ(
              std::memcmp(&got[i].bytes, &want[i].bytes, sizeof(double)), 0)
              << "flow " << i << ": " << got[i].bytes << " vs "
              << want[i].bytes;
        }
        compared += want.size();
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST(CommunicatorTest, ButterflySumsFromPositiveZero) {
  // As the map's value-initialised entry: a pair that only ever carries
  // -0.0 bytes gets a +0.0 flow.
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  std::vector<simnet::Flow> flows;
  comm.butterfly(2, -0.0, flows);
  ASSERT_EQ(flows.size(), 4u);
  for (const simnet::Flow& flow : flows) {
    EXPECT_FALSE(std::signbit(flow.bytes));
  }
}

TEST(CommunicatorTest, ButterflyRejectsBadMasksAndRankCounts) {
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  std::vector<simnet::Flow> flows;
  EXPECT_THROW(comm.butterfly(0, 1.0, flows), std::invalid_argument);
  EXPECT_THROW(comm.butterfly(-1, 1.0, flows), std::invalid_argument);
  EXPECT_THROW(comm.butterfly(8, 1.0, flows), std::invalid_argument);
  EXPECT_THROW(comm.butterfly(9, 1.0, flows), std::invalid_argument);
  comm.butterfly(7, 1.0, flows);
  EXPECT_EQ(flows.size(), 4u);
  const Communicator six(&net, RankMap(6, 4));
  EXPECT_THROW(six.butterfly(1, 1.0, flows), std::invalid_argument);
  const Communicator one(&net, RankMap(1, 4));
  EXPECT_THROW(one.butterfly(1, 1.0, flows), std::invalid_argument);
}

TEST(CommunicatorTest, GroupAllToAllRequiresDivisibility) {
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  EXPECT_THROW(comm.group_alltoall(3, 1.0), std::invalid_argument);
  EXPECT_THROW(comm.group_alltoall(0, 1.0), std::invalid_argument);
}

TEST(CommunicatorTest, AllToAllGroupOfOneIsFree) {
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(4, 4));
  EXPECT_TRUE(comm.group_alltoall(1, 1.0).flows().empty());
}

TEST(CommunicatorTest, AllToAllWithinNodeIsFree) {
  // 4 ranks on 1 node: all exchange is intra-node.
  const auto net = unit_network({1});
  const Communicator comm(&net, RankMap(4, 1));
  EXPECT_TRUE(comm.group_alltoall(4, 1.0).flows().empty());
}

TEST(CommunicatorTest, AllToAllVolumeConservation) {
  // One rank per node, one group spanning all 4 nodes: each rank spreads
  // 9 bytes over 3 peers -> total inter-node bytes = 4 * 9.
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(4, 4));
  const auto exchange = comm.group_alltoall(4, 9.0);
  const auto flows = exchange.flows();
  double total = 0.0;
  for (const auto& flow : flows) total += flow.bytes;
  EXPECT_DOUBLE_EQ(total, 36.0);
  EXPECT_DOUBLE_EQ(exchange.total_bytes(), 36.0);
  EXPECT_EQ(flows.size(), 12u);  // 4 * 3 ordered node pairs
  EXPECT_EQ(exchange.node_pairs(), 12);
}

TEST(CommunicatorTest, AllToAllMultiRankWeighting) {
  // 2 ranks per node, groups of 4 ranks = 2 nodes: flow between the two
  // nodes of a group carries 2 * 2 * per_peer bytes in each direction
  // (per_peer = bytes / 3).
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  const auto flows = comm.group_alltoall(4, 3.0).flows();
  ASSERT_EQ(flows.size(), 4u);  // 2 groups x 2 directions
  for (const auto& flow : flows) {
    EXPECT_DOUBLE_EQ(flow.bytes, 4.0);  // 2 ranks x 2 ranks x 1.0
  }
}

TEST(CommunicatorTest, GroupsNeverCrossGroupBoundaries) {
  const auto net = unit_network({8});
  const Communicator comm(&net, RankMap(8, 8));
  const auto flows = comm.group_alltoall(4, 1.0).flows();
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.src / 4, flow.dst / 4) << flow.src << " -> " << flow.dst;
  }
}

TEST(CommunicatorTest, PhaseTimeUsesContentionModel) {
  // 4-node ring, one group all-to-all: the most-loaded channel determines
  // the phase time.
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(4, 4));
  Timeline timeline;
  const double seconds =
      comm.run_phase("a2a", comm.group_alltoall(4, 3.0), timeline);
  // Each ordered pair carries 1 byte. Distance-1 pairs load their channel
  // with 1; distance-2 (antipodal) pairs split 0.5 + 0.5 over two-hop
  // paths. Channel (v,+): 1 (from v->v+1) + 0.5 (v->v+2 forward half) +
  // 0.5 (relay of (v-1)->(v+1)) = 2.
  EXPECT_DOUBLE_EQ(seconds, 2.0);
  EXPECT_DOUBLE_EQ(timeline.records()[0].max_channel_bytes, 2.0);
  EXPECT_DOUBLE_EQ(timeline.records()[0].total_bytes, 12.0);
}

// Networks whose drain time is and is not max load / bandwidth: a unit
// torus, a weighted torus (per-dimension scan), a torus with an injection
// cap, and a dragonfly graph with 1x/3x/4x capacities.
struct PricingNetworks {
  PricingNetworks()
      : unit(topo::Torus({4, 3, 2})),
        weighted(topo::Torus({4, 3, 2}), {1.0, 2.0, 0.5}),
        capped(topo::Torus({4, 3, 2}), capped_options()),
        graph(topo::make_dragonfly(dragonfly_config())) {}

  static topo::DragonflyConfig dragonfly_config() {
    topo::DragonflyConfig config;  // 1x/3x/4x capacities
    config.a = 2;
    config.h = 2;
    config.groups = 3;
    config.global_ports = 1;
    return config;
  }

  static simnet::NetworkOptions capped_options() {
    simnet::NetworkOptions options;
    options.link_bytes_per_second = 3.0;
    options.injection_bytes_per_second = 0.25;
    return options;
  }

  std::vector<const simnet::Network*> all() const {
    return {&unit, &weighted, &capped, &graph};
  }

  simnet::TorusNetwork unit;
  simnet::TorusNetwork weighted;
  simnet::TorusNetwork capped;
  simnet::GraphNetwork graph;
};

TEST(CommunicatorTest, FlowPhaseRecordsTheTwoScanPricingBitForBit) {
  // run_phase scans the loads once; the record's max channel and the phase
  // time must equal max_load() and completion_seconds(loads, flows), which
  // each scan them.
  const PricingNetworks networks;
  for (const simnet::Network* net : networks.all()) {
    const std::int64_t nodes = net->num_nodes();
    const Communicator comm(net, RankMap(2 * nodes, nodes));
    std::vector<simnet::Flow> flows = net->halo_flows(1.0 / 3.0);
    flows.push_back({0, nodes - 1, 7.0});
    Timeline timeline;
    const double seconds = comm.run_phase("p", flows, timeline);
    const simnet::LinkLoads loads = net->route_all(flows);
    ASSERT_EQ(timeline.records().size(), 1u);
    EXPECT_EQ(seconds, net->completion_seconds(loads, flows));
    EXPECT_EQ(timeline.records()[0].seconds, seconds);
    EXPECT_EQ(timeline.records()[0].max_channel_bytes, loads.max_load());
  }
  // The weighted torus prices differently from the bare max, so a drain
  // time taken from the max alone would fail above.
  const simnet::TorusNetwork& weighted = networks.weighted;
  const auto flows = weighted.halo_flows(1.0);
  const auto loads = weighted.route_all(flows);
  EXPECT_NE(weighted.completion_seconds(loads, flows),
            loads.max_load() / weighted.options().link_bytes_per_second);
}

TEST(CommunicatorTest, ExchangePhaseRecordsTheTwoScanPricingBitForBit) {
  const PricingNetworks networks;
  for (const simnet::Network* net : networks.all()) {
    const std::int64_t nodes = net->num_nodes();
    const Communicator comm(net, RankMap(3 * nodes, nodes));
    const simnet::GroupExchange exchange = comm.group_alltoall(nodes, 5.0);
    Timeline timeline;
    const double seconds = comm.run_phase("x", exchange, timeline);
    const simnet::LinkLoads loads = net->route_exchange(exchange);
    // completion_seconds with no flows is the bare drain time; the
    // exchange's injection floor is applied as exchange_seconds did.
    double want = net->completion_seconds(loads, {});
    const double cap = net->options().injection_bytes_per_second;
    if (cap > 0.0) {
      want = std::max(want, exchange.peak_injection_bytes(nodes) / cap);
    }
    ASSERT_EQ(timeline.records().size(), 1u);
    EXPECT_EQ(seconds, want);
    EXPECT_EQ(timeline.records()[0].max_channel_bytes, loads.max_load());
    EXPECT_EQ(timeline.records()[0].total_bytes, exchange.total_bytes());
  }
}

}  // namespace
}  // namespace npac::simmpi
