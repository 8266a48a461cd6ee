// Simulated-MPI tests: phase timing, node aggregation of rank messages
// (bit-exact against an ordered-map reference), and the grouped
// all-to-all pattern (the CAPS building block).
#include "simmpi/communicator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sweep/pool.hpp"

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

TEST(CommunicatorTest, RankMessagesAggregateByNodePair) {
  const auto net = unit_network({4});
  // 2 ranks per node.
  const Communicator comm(&net, RankMap(8, 4));
  const auto flows = comm.rank_messages({{0, 2, 5.0},   // node 0 -> node 1
                                         {1, 3, 7.0},   // node 0 -> node 1
                                         {0, 1, 99.0},  // intra-node: free
                                         {4, 0, 2.0}}); // node 2 -> node 0
  ASSERT_EQ(flows.size(), 2u);
  double node0_to_node1 = 0.0;
  for (const auto& flow : flows) {
    if (flow.src == 0 && flow.dst == 1) node0_to_node1 = flow.bytes;
  }
  EXPECT_DOUBLE_EQ(node0_to_node1, 12.0);
}

// The ordered-map aggregation rank_messages must reproduce bit for bit:
// flows in (src, dst) order, each pair's bytes summed from 0.0 in message
// order.
std::vector<simnet::Flow> map_rank_messages(
    const RankMap& map, const std::vector<Communicator::RankMessage>& messages) {
  std::map<std::pair<topo::VertexId, topo::VertexId>, double> aggregated;
  for (const Communicator::RankMessage& message : messages) {
    const topo::VertexId src = map.node_of(message.src);
    const topo::VertexId dst = map.node_of(message.dst);
    if (src == dst) continue;
    aggregated[{src, dst}] += message.bytes;
  }
  std::vector<simnet::Flow> flows;
  for (const auto& [key, bytes] : aggregated) {
    flows.push_back({key.first, key.second, bytes});
  }
  return flows;
}

TEST(CommunicatorTest, RankMessagesMatchOrderedMapBitForBit) {
  // 24 nodes with odd, even and length-2 dimensions; more ranks than nodes
  // (uneven), fewer ranks than nodes, and one rank per node; every mapping
  // strategy. The messages repeat pairs many times with bytes that are not
  // dyadic and span nine orders of magnitude, so any change in summation
  // order moves low bits; self-sends and intra-node messages are mixed in.
  const auto net = unit_network({4, 3, 2});
  for (const std::int64_t ranks : {100, 16, 24}) {
    for (const MappingStrategy strategy :
         {MappingStrategy::kBlocked, MappingStrategy::kStrided,
          MappingStrategy::kRandom}) {
      const RankMap map = RankMap::with_mapping(ranks, 24, strategy, 5);
      const Communicator comm(&net, map);
      std::vector<Communicator::RankMessage> messages;
      for (std::int64_t i = 0; i < 3000; ++i) {
        const std::uint64_t draw = sweep::task_seed(ranks, i);
        const auto src = static_cast<std::int64_t>(
            draw % static_cast<std::uint64_t>(ranks));
        const auto dst =
            i % 11 == 0 ? src
                        : static_cast<std::int64_t>(
                              (draw >> 20) % static_cast<std::uint64_t>(ranks));
        const double bytes = 1.0 / static_cast<double>(1 + (draw >> 40) % 7) +
                             (i % 97 == 0 ? 1.0e9 : 0.0);
        messages.push_back({src, dst, i % 31 == 0 ? 0.0 : bytes});
      }
      const auto got = comm.rank_messages(messages);
      const auto want = map_rank_messages(map, messages);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_GT(want.size(), 10u);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].src, want[i].src) << "flow " << i;
        EXPECT_EQ(got[i].dst, want[i].dst) << "flow " << i;
        EXPECT_EQ(std::memcmp(&got[i].bytes, &want[i].bytes, sizeof(double)), 0)
            << "flow " << i << ": " << got[i].bytes << " vs " << want[i].bytes;
      }
    }
  }
}

TEST(CommunicatorTest, RankMessagesSumFromPositiveZero) {
  // As the map's value-initialised entry: a pair that only ever carries
  // -0.0 bytes gets a +0.0 flow.
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  const auto flows = comm.rank_messages({{0, 2, -0.0}, {1, 3, -0.0}});
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_FALSE(std::signbit(flows[0].bytes));
}

TEST(CommunicatorTest, RankMessagesRejectOutOfRangeRanks) {
  const auto net = unit_network({4});
  const Communicator comm(&net, RankMap(8, 4));
  EXPECT_THROW(comm.rank_messages({{0, 8, 1.0}}), std::out_of_range);
  EXPECT_THROW(comm.rank_messages({{-1, 0, 1.0}}), std::out_of_range);
  EXPECT_TRUE(comm.rank_messages({}).empty());
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

}  // namespace
}  // namespace npac::simmpi
