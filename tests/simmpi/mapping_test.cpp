// Task-mapping strategy tests (Related Work [10]): permuted placements
// keep the RankMap invariants, and locality-destroying mappings measurably
// hurt the grouped communication the CAPS schedule relies on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "simmpi/communicator.hpp"
#include "strassen/caps.hpp"

namespace npac::simmpi {
namespace {

class MappingSweep : public ::testing::TestWithParam<MappingStrategy> {};

TEST_P(MappingSweep, PlacementInvariantsHold) {
  const auto map = RankMap::with_mapping(100, 16, GetParam(), 7);
  // Every rank lands on a valid node consistent with that node's range.
  std::vector<std::int64_t> seen(16, 0);
  for (std::int64_t rank = 0; rank < 100; ++rank) {
    const topo::VertexId node = map.node_of(rank);
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 16);
    EXPECT_GE(rank, map.first_rank_on(node));
    EXPECT_LT(rank, map.first_rank_on(node) + map.ranks_on(node));
    ++seen[static_cast<std::size_t>(node)];
  }
  // Per-node totals match ranks_on, and the distribution stays balanced.
  for (topo::VertexId node = 0; node < 16; ++node) {
    EXPECT_EQ(seen[static_cast<std::size_t>(node)], map.ranks_on(node));
    EXPECT_GE(map.ranks_on(node), 6);
    EXPECT_LE(map.ranks_on(node), 7);
  }
  EXPECT_EQ(map.max_ranks_per_node(), 7);
}

INSTANTIATE_TEST_SUITE_P(Strategies, MappingSweep,
                         ::testing::Values(MappingStrategy::kBlocked,
                                           MappingStrategy::kStrided,
                                           MappingStrategy::kRandom));

TEST(MappingTest, BlockedFactoryEqualsPlainConstructor) {
  const RankMap plain(37, 8);
  const auto blocked =
      RankMap::with_mapping(37, 8, MappingStrategy::kBlocked);
  for (std::int64_t rank = 0; rank < 37; ++rank) {
    EXPECT_EQ(plain.node_of(rank), blocked.node_of(rank));
  }
}

TEST(MappingTest, StridedScattersNeighbours) {
  // One rank per node: consecutive ranks land on distant node ids.
  const auto map = RankMap::with_mapping(64, 64, MappingStrategy::kStrided);
  std::set<topo::VertexId> nodes;
  for (std::int64_t rank = 0; rank < 64; ++rank) {
    nodes.insert(map.node_of(rank));
  }
  EXPECT_EQ(nodes.size(), 64u);  // still a bijection
  EXPECT_NE(map.node_of(1), map.node_of(0) + 1);
}

TEST(MappingTest, RandomIsSeededAndBijective) {
  const auto a = RankMap::with_mapping(64, 64, MappingStrategy::kRandom, 5);
  const auto b = RankMap::with_mapping(64, 64, MappingStrategy::kRandom, 5);
  const auto c = RankMap::with_mapping(64, 64, MappingStrategy::kRandom, 6);
  std::set<topo::VertexId> nodes;
  bool differs = false;
  for (std::int64_t rank = 0; rank < 64; ++rank) {
    EXPECT_EQ(a.node_of(rank), b.node_of(rank));
    nodes.insert(a.node_of(rank));
    differs = differs || a.node_of(rank) != c.node_of(rank);
  }
  EXPECT_EQ(nodes.size(), 64u);
  EXPECT_TRUE(differs);
}

TEST(MappingTest, RandomPermutationIsPinned) {
  // Fisher-Yates over sweep::task_seed(5, i): the permutation is a pure
  // function of the seed, the same under every standard library.
  const auto map = RankMap::with_mapping(8, 8, MappingStrategy::kRandom, 5);
  const std::vector<topo::VertexId> expected = {7, 0, 2, 5, 6, 4, 1, 3};
  for (std::int64_t rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(map.node_of(rank), expected[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

TEST(MappingTest, GroupedAllToAllConservesVolumeUnderAnyMapping) {
  const simnet::TorusNetwork net(topo::Torus({4, 4}));
  for (const auto strategy :
       {MappingStrategy::kBlocked, MappingStrategy::kStrided,
        MappingStrategy::kRandom}) {
    const Communicator comm(
        &net, RankMap::with_mapping(32, 16, strategy, 11));
    const auto exchange = comm.group_alltoall(8, 7.0);
    double total = 0.0;
    for (const auto& flow : exchange.flows()) total += flow.bytes;
    // Each group of 8 ranks (on 4 nodes, 2 per node) exchanges
    // 8 * 7 bytes, of which the intra-node 1/7 stays local:
    // per group inter-node volume = 8 * 7 - 8 * 1 = 48; 4 groups.
    EXPECT_NEAR(total, 4.0 * 48.0, 1e-9)
        << "strategy " << static_cast<int>(strategy);
    EXPECT_DOUBLE_EQ(exchange.total_bytes(), 4.0 * 48.0)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(MappingTest, ScatteredMappingSlowsDeepCapsSteps) {
  // CAPS's deep BFS steps exchange within small rank groups. Blocked
  // mapping keeps those groups on adjacent nodes; a random mapping spreads
  // them across the machine, inflating the contention cost — the
  // task-mapping effect of Related Work [10], orthogonal to geometry.
  const bgq::Geometry geometry(2, 1, 1, 1);
  const simnet::TorusNetwork net(geometry.node_torus());
  const strassen::CapsParams params{9408, 2401, 4};
  double seconds[2] = {0.0, 0.0};
  int index = 0;
  for (const auto strategy :
       {MappingStrategy::kBlocked, MappingStrategy::kRandom}) {
    const Communicator comm(
        &net, RankMap::with_mapping(params.ranks,
                                    net.torus().num_vertices(), strategy,
                                    3));
    seconds[index++] = strassen::simulate_caps_communication(comm, params);
  }
  EXPECT_GT(seconds[1], seconds[0]);
}

}  // namespace
}  // namespace npac::simmpi
