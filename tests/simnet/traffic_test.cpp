// Traffic-pattern generator tests: furthest-node pairing (Experiment A's
// driver), permutations, all-to-all, and halo exchange (flow for flow
// against a coordinate-vector reference).
#include "simnet/traffic.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

namespace npac::simnet {
namespace {

TEST(FurthestNodePairingTest, EveryNodeSendsToItsAntipode) {
  const topo::Torus torus({4, 4, 2});
  const auto flows = furthest_node_pairing(torus, 7.0);
  ASSERT_EQ(flows.size(), static_cast<std::size_t>(torus.num_vertices()));
  for (const Flow& flow : flows) {
    EXPECT_EQ(flow.dst,
              torus.index_of(torus.antipode(torus.coord_of(flow.src))));
    EXPECT_DOUBLE_EQ(flow.bytes, 7.0);
  }
}

TEST(FurthestNodePairingTest, PairingIsSymmetric) {
  // On even dimensions the antipode map is an involution, so the flow set
  // contains both directions of every unordered pair.
  const topo::Torus torus({8, 4});
  const auto flows = furthest_node_pairing(torus, 1.0);
  std::set<std::pair<topo::VertexId, topo::VertexId>> seen;
  for (const Flow& flow : flows) seen.insert({flow.src, flow.dst});
  for (const Flow& flow : flows) {
    EXPECT_TRUE(seen.contains({flow.dst, flow.src}))
        << flow.src << " -> " << flow.dst;
  }
}

TEST(FurthestNodePairingTest, SingletonTorusHasNoFlows) {
  EXPECT_TRUE(furthest_node_pairing(topo::Torus({1, 1}), 1.0).empty());
}

TEST(FurthestNodePairingTest, DistanceIsMaximal) {
  const topo::Torus torus({6, 4, 2});
  const std::int64_t diameter = 3 + 2 + 1;
  for (const Flow& flow : furthest_node_pairing(torus, 1.0)) {
    EXPECT_EQ(torus.distance(torus.coord_of(flow.src),
                             torus.coord_of(flow.dst)),
              diameter);
  }
}

TEST(RandomPermutationTest, IsAPermutation) {
  const topo::Torus torus({4, 4});
  const auto flows = random_permutation(torus, 1.0, 42);
  std::set<topo::VertexId> destinations;
  for (const Flow& flow : flows) {
    EXPECT_NE(flow.src, flow.dst);
    destinations.insert(flow.dst);
  }
  // All destinations distinct.
  EXPECT_EQ(destinations.size(), flows.size());
}

TEST(RandomPermutationTest, DeterministicInSeed) {
  const topo::Torus torus({4, 4});
  const auto a = random_permutation(torus, 1.0, 7);
  const auto b = random_permutation(torus, 1.0, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
  const auto c = random_permutation(torus, 1.0, 8);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].dst != c[i].dst;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomPermutationTest, PinnedOutput) {
  // A Fisher-Yates shuffle over sweep::task_seed draws: the same
  // permutation on every standard library. Node 1 is a fixed point and
  // sends nothing.
  const auto flows = random_permutation(topo::Torus({4, 2}), 1.0, 42);
  std::vector<std::pair<topo::VertexId, topo::VertexId>> pairs;
  for (const Flow& flow : flows) pairs.emplace_back(flow.src, flow.dst);
  const std::vector<std::pair<topo::VertexId, topo::VertexId>> pinned = {
      {0, 6}, {2, 3}, {3, 7}, {4, 5}, {5, 0}, {6, 2}, {7, 4}};
  EXPECT_EQ(pairs, pinned);
}

TEST(UniformAllToAllTest, VolumeAndFanout) {
  // One group holding one rank on every node; its flows are every ordered
  // pair of distinct nodes, source by source in vertex order.
  const topo::Torus torus({4, 2});
  const GroupExchange exchange = uniform_all_to_all(torus, 14.0);
  EXPECT_EQ(exchange.bytes_per_pair, 2.0);  // 14 / 7 peers
  ASSERT_EQ(exchange.group_ends, std::vector<std::size_t>{8});
  for (std::size_t i = 0; i < exchange.members.size(); ++i) {
    EXPECT_EQ(exchange.members[i].node, static_cast<topo::VertexId>(i));
    EXPECT_EQ(exchange.members[i].ranks, 1);
  }
  const auto flows = exchange.flows();
  ASSERT_EQ(flows.size(), 8u * 7u);
  std::size_t i = 0;
  for (topo::VertexId u = 0; u < 8; ++u) {
    for (topo::VertexId v = 0; v < 8; ++v) {
      if (u == v) continue;
      EXPECT_EQ(flows[i].src, u);
      EXPECT_EQ(flows[i].dst, v);
      EXPECT_EQ(flows[i].bytes, 2.0);
      ++i;
    }
  }
}

TEST(UniformAllToAllTest, TrivialTorus) {
  const GroupExchange exchange = uniform_all_to_all(topo::Torus({1}), 1.0);
  EXPECT_TRUE(exchange.members.empty());
  EXPECT_TRUE(exchange.group_ends.empty());
  EXPECT_TRUE(exchange.flows().empty());
}

TEST(HaloTest, NeighborCountMatchesDegree) {
  const topo::Torus torus({4, 3, 2});
  const auto flows = nearest_neighbor_halo(torus, 1.0);
  EXPECT_EQ(flows.size(), static_cast<std::size_t>(torus.num_vertices()) *
                              torus.degree());
  for (const Flow& flow : flows) {
    EXPECT_EQ(torus.distance(torus.coord_of(flow.src),
                             torus.coord_of(flow.dst)),
              1);
  }
}

TEST(HaloTest, LengthTwoDimSendsOnce) {
  // In a length-2 dimension forward and backward name the same neighbor;
  // the halo sends only one flow to it.
  const topo::Torus torus({2});
  const auto flows = nearest_neighbor_halo(torus, 1.0);
  EXPECT_EQ(flows.size(), 2u);  // one per node
}

// The halo as the per-neighbour coordinate walk it replaces: coord_of per
// vertex, index_of per neighbour.
std::vector<Flow> coordinate_halo(const topo::Torus& torus, double bytes) {
  std::vector<Flow> flows;
  for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
    const topo::Coord c = torus.coord_of(v);
    for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
      const std::int64_t a = torus.dims()[dim];
      if (a == 1) continue;
      topo::Coord fwd = c;
      fwd[dim] = (c[dim] + 1) % a;
      flows.push_back({v, torus.index_of(fwd), bytes});
      if (a > 2) {
        topo::Coord back = c;
        back[dim] = (c[dim] - 1 + a) % a;
        flows.push_back({v, torus.index_of(back), bytes});
      }
    }
  }
  return flows;
}

TEST(HaloTest, MatchesCoordinateWalkFlowForFlow) {
  for (const topo::Dims& dims :
       std::vector<topo::Dims>{{1},
                               {2},
                               {3},
                               {1, 1},
                               {4, 1, 3},
                               {2, 5, 2},
                               {6, 4, 1, 2},
                               {3, 2, 7, 1, 4}}) {
    const topo::Torus torus(dims);
    const auto got = nearest_neighbor_halo(torus, 0.1);
    const auto want = coordinate_halo(torus, 0.1);
    ASSERT_EQ(got.size(), want.size()) << torus.to_string();
    EXPECT_EQ(got.size(),
              static_cast<std::size_t>(torus.num_vertices()) * torus.degree());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src) << torus.to_string() << " flow " << i;
      EXPECT_EQ(got[i].dst, want[i].dst) << torus.to_string() << " flow " << i;
      EXPECT_EQ(std::memcmp(&got[i].bytes, &want[i].bytes, sizeof(double)), 0);
    }
  }
}

// The coordinate formula furthest_node_pairing's odometer replaces: the
// antipode of coord_of(v), mapped back by index_of, self-pairs dropped.
std::vector<Flow> coordinate_furthest_pairing(const topo::Torus& torus,
                                              double bytes) {
  std::vector<Flow> flows;
  for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
    const topo::VertexId peer =
        torus.index_of(torus.antipode(torus.coord_of(v)));
    if (peer != v) flows.push_back({v, peer, bytes});
  }
  return flows;
}

TEST(FurthestPairingTest, MatchesCoordinateFormulaFlowForFlow) {
  for (const topo::Dims& dims :
       std::vector<topo::Dims>{{1},
                               {2},
                               {3},
                               {1, 1},
                               {4, 1, 3},
                               {2, 5, 2},
                               {6, 4, 1, 2},
                               {3, 2, 7, 1, 4},
                               {1, 3, 1, 5}}) {
    const topo::Torus torus(dims);
    const auto got = furthest_node_pairing(torus, 0.1);
    const auto want = coordinate_furthest_pairing(torus, 0.1);
    ASSERT_EQ(got.size(), want.size()) << torus.to_string();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src) << torus.to_string() << " flow " << i;
      EXPECT_EQ(got[i].dst, want[i].dst) << torus.to_string() << " flow " << i;
      EXPECT_EQ(std::memcmp(&got[i].bytes, &want[i].bytes, sizeof(double)), 0);
    }
  }
}

}  // namespace
}  // namespace npac::simnet
