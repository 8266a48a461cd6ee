// Simulated-MPI tests: phase timing, node aggregation of rank messages,
// and the grouped all-to-all pattern (the CAPS building block).
#include "simmpi/communicator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
