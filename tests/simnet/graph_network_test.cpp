// GraphNetwork tests: the ECMP routing convention on small graphs, the
// capacity-aware completion model, and the headline equivalence regression
// — GraphNetwork over Torus::build_graph() reproduces TorusNetwork
// per-channel loads and completion times to 1e-9 on every paper geometry
// (Mira/JUQUEEN/Sequoia midplane shapes and a full node-level midplane),
// including length-1 and length-2 degenerate dimensions.
#include "simnet/graph_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "core/experiments.hpp"
#include "obs/metrics.hpp"
#include "simnet/pingpong.hpp"
#include "simnet/traffic.hpp"
#include "sweep/pool.hpp"
#include "topo/dragonfly.hpp"

namespace npac::simnet {
namespace {

NetworkOptions unit_bandwidth(TieBreak tie = TieBreak::kSplit) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  options.tie_break = tie;
  return options;
}

TEST(GraphNetworkTest, RingSplitsAntipodalFlowAcrossBothDirections) {
  const topo::Torus ring({4});
  const GraphNetwork net(ring.build_graph(), unit_bandwidth());
  LinkLoads loads = net.make_loads();
  net.route_flow({0, 2, 8.0}, loads);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(0, 1)], 4.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(0, 3)], 4.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(1, 2)], 4.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(3, 2)], 4.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(1, 0)], 0.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 16.0);
  EXPECT_EQ(net.path_hops({0, 2, 8.0}), 2);
}

TEST(GraphNetworkTest, PositiveTieBreakTakesSingleLowestIdPath) {
  const topo::Torus ring({4});
  const GraphNetwork net(ring.build_graph(),
                         unit_bandwidth(TieBreak::kPositive));
  LinkLoads loads = net.make_loads();
  net.route_flow({0, 2, 8.0}, loads);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(0, 1)], 8.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(1, 2)], 8.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(0, 3)], 0.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 16.0);
}

TEST(GraphNetworkTest, EcmpSplitsAcrossParallelEdges) {
  const topo::Graph multi =
      topo::Graph::from_edges(2, {{0, 1, 1.0}, {0, 1, 1.0}});
  const GraphNetwork net(multi, unit_bandwidth());
  LinkLoads loads = net.make_loads();
  net.route_flow({0, 1, 6.0}, loads);
  const std::size_t first = net.channel_of(0, 1);
  EXPECT_DOUBLE_EQ(loads[first], 3.0);
  EXPECT_DOUBLE_EQ(loads[first + 1], 3.0);
}

TEST(GraphNetworkTest, CompletionHonorsChannelCapacities) {
  // P_2 with a half-capacity link: the drain time doubles.
  const topo::Graph path = topo::Graph::from_edges(2, {{0, 1, 0.5}});
  const GraphNetwork net(path, unit_bandwidth());
  const std::vector<Flow> flows = {{0, 1, 4.0}};
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 8.0);
}

TEST(GraphNetworkTest, InjectionCapFloorsCompletion) {
  NetworkOptions options = unit_bandwidth();
  options.injection_bytes_per_second = 0.25;
  const GraphNetwork net(topo::make_cycle(8), options);
  const std::vector<Flow> flows = {{0, 1, 4.0}};
  // Channel time is 4.0; the injection floor is 4.0 / 0.25 = 16.0.
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 16.0);
}

TEST(GraphNetworkTest, RejectsUnreachableAndInvalidFlows) {
  const topo::Graph two_components =
      topo::Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const GraphNetwork net(two_components, unit_bandwidth());
  LinkLoads loads = net.make_loads();
  EXPECT_THROW(net.route_flow({0, 2, 1.0}, loads), std::invalid_argument);
  EXPECT_THROW(net.route_flow({0, 9, 1.0}, loads), std::out_of_range);
  EXPECT_THROW(net.route_flow({0, 1, -1.0}, loads), std::invalid_argument);
  EXPECT_THROW(net.path_hops({0, 2, 1.0}), std::invalid_argument);
}

TEST(GraphNetworkTest, RouteAllSurfacesInvalidFlowsAcrossManyGroups) {
  // Enough distinct destinations to take the chunked (parallel) route_all
  // path: the unreachable flow must still surface as a catchable
  // exception, not escape the worker loop.
  std::vector<topo::EdgeSpec> edges;
  for (std::int64_t v = 0; v + 1 < 32; ++v) edges.push_back({v, v + 1, 1.0});
  for (std::int64_t v = 32; v + 1 < 64; ++v) {
    edges.push_back({v, v + 1, 1.0});  // second, disconnected path
  }
  const GraphNetwork net(topo::Graph::from_edges(64, edges),
                         unit_bandwidth());
  std::vector<Flow> flows;
  for (topo::VertexId dst = 1; dst < 32; ++dst) flows.push_back({0, dst, 1.0});
  flows.push_back({0, 40, 1.0});  // crosses the component boundary
  EXPECT_THROW(net.route_all(flows), std::invalid_argument);
}

TEST(GraphNetworkTest, HaloFlowsMatchTorusHaloOnTorusBackends) {
  const topo::Torus torus({4, 2, 1});
  const TorusNetwork torus_net(torus, unit_bandwidth());
  const GraphNetwork graph_net(torus.build_graph(), unit_bandwidth());
  // Same multiset either way (length-2 dims contribute one flow per
  // direction, length-1 none), hence identical loads and completion.
  const auto torus_halo = torus_net.halo_flows(8.0);
  const auto graph_halo = graph_net.halo_flows(8.0);
  ASSERT_EQ(torus_halo.size(), graph_halo.size());
  EXPECT_DOUBLE_EQ(torus_net.completion_seconds(torus_halo),
                   graph_net.completion_seconds(graph_halo));
}

TEST(GraphNetworkTest, RouteAllMatchesPerFlowRouting) {
  const topo::Torus torus({4, 3, 2});
  const GraphNetwork net(torus.build_graph(), unit_bandwidth());
  const auto flows = furthest_node_pairing(torus, 16.0);
  const LinkLoads batched = net.route_all(flows);
  LinkLoads individual = net.make_loads();
  for (const Flow& flow : flows) net.route_flow(flow, individual);
  ASSERT_EQ(batched.num_channels(), individual.num_channels());
  for (std::size_t c = 0; c < batched.num_channels(); ++c) {
    EXPECT_NEAR(batched[c], individual[c], 1e-9);
  }
}

TEST(GraphNetworkTest, GraphFurthestPairingMatchesTorusAntipodeOnEvenTorus) {
  const topo::Torus torus({4, 4});
  const auto torus_flows = furthest_node_pairing(torus, 1.0);
  const auto graph_flows = furthest_node_pairing(torus.build_graph(), 1.0);
  // On all-even tori the antipode is the unique furthest vertex.
  ASSERT_EQ(torus_flows.size(), graph_flows.size());
  for (std::size_t i = 0; i < torus_flows.size(); ++i) {
    EXPECT_EQ(torus_flows[i].src, graph_flows[i].src);
    EXPECT_EQ(torus_flows[i].dst, graph_flows[i].dst);
  }
}

// ---------------------------------------------------------------------------
// The equivalence regression (ISSUE 3 acceptance): for the paper's
// geometries, GraphNetwork(torus graph) under kSplit reproduces
// TorusNetwork's per-channel loads and completion times to 1e-9 on the
// translation-invariant patterns the paper measures (furthest-node
// pairing, uniform all-to-all). Channel mapping: torus channel
// (node, dim, +/-) corresponds to the graph arc node -> ring successor /
// predecessor; a length-2 dimension has a single arc per direction of its
// one edge (the sender-side + channel); a length-1 dimension has none.
// ---------------------------------------------------------------------------

topo::VertexId ring_neighbor(const topo::Torus& torus, topo::VertexId v,
                             std::size_t dim, int direction) {
  topo::Coord c = torus.coord_of(v);
  const std::int64_t a = torus.dims()[dim];
  c[dim] = direction == 0 ? (c[dim] + 1) % a : (c[dim] - 1 + a) % a;
  return torus.index_of(c);
}

void expect_equivalent_loads(const topo::Torus& torus,
                             const std::vector<Flow>& flows,
                             const char* context) {
  const TorusNetwork torus_net(torus, unit_bandwidth());
  const GraphNetwork graph_net(torus.build_graph(), unit_bandwidth());

  const LinkLoads torus_loads = torus_net.route_all(flows);
  const LinkLoads graph_loads = graph_net.route_all(flows);

  double mapped_total = 0.0;
  for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
    for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
      const std::int64_t a = torus.dims()[dim];
      if (a == 1) {
        EXPECT_EQ(torus_loads.at(v, dim, 0), 0.0) << context;
        EXPECT_EQ(torus_loads.at(v, dim, 1), 0.0) << context;
        continue;
      }
      const int directions = a == 2 ? 1 : 2;  // C_2: one sender-side channel
      if (a == 2) {
        EXPECT_EQ(torus_loads.at(v, dim, 1), 0.0) << context;
      }
      for (int direction = 0; direction < directions; ++direction) {
        const topo::VertexId peer = ring_neighbor(torus, v, dim, direction);
        const double graph_load =
            graph_loads[graph_net.channel_of(v, peer)];
        EXPECT_NEAR(torus_loads.at(v, dim, direction), graph_load, 1e-9)
            << context << ": node " << v << " dim " << dim << " dir "
            << direction;
        mapped_total += graph_load;
      }
    }
  }
  // The torus channel mapping covers every graph arc exactly once, so the
  // totals agree too (byte-hop conservation).
  EXPECT_NEAR(mapped_total, graph_loads.total_load(), 1e-6) << context;
  EXPECT_NEAR(torus_loads.total_load(), graph_loads.total_load(), 1e-6)
      << context;

  EXPECT_NEAR(torus_net.completion_seconds(torus_loads, flows),
              graph_net.completion_seconds(graph_loads, flows), 1e-9)
      << context;
}

class EquivalenceTest : public ::testing::TestWithParam<topo::Dims> {};

TEST_P(EquivalenceTest, PairingAndAllToAllLoadsMatchToTheNinth) {
  const topo::Torus torus(GetParam());
  expect_equivalent_loads(torus, furthest_node_pairing(torus, 32.0),
                          "pairing");
  if (torus.num_vertices() <= 256) {  // quadratic flow count
    expect_equivalent_loads(torus, uniform_all_to_all(torus, 24.0).flows(),
                            "all-to-all");
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, EquivalenceTest,
    ::testing::Values(
        topo::Dims{4, 4, 3, 2},     // Mira midplane grid
        topo::Dims{7, 2, 2, 2},     // JUQUEEN midplane grid
        topo::Dims{4, 4, 4, 3},     // Sequoia midplane grid
        topo::Dims{4, 4, 4, 4, 2},  // one midplane's node torus
        topo::Dims{1, 4},           // degenerate: length-1 dimension
        topo::Dims{2},              // degenerate: single C_2 edge
        topo::Dims{1, 2, 3},        // degenerate mix
        topo::Dims{2, 2, 2},        // all-C_2 (hypercube Q3)
        topo::Dims{5, 3}));         // odd dimensions (no antipodal ties)

// Weighted-torus backend parity (ROADMAP item): TorusNetwork with
// per-dimension capacities must agree with GraphNetwork over
// make_weighted_torus to 1e-9 — same per-channel loads (routing is
// capacity-blind on both backends) and same capacity-aware completion.
// This is what lets make_network keep Titan-style weighted tori on the
// allocation-free specialized path.

struct WeightedCase {
  topo::Dims dims;
  std::vector<double> capacities;
};

class WeightedEquivalenceTest
    : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedEquivalenceTest, LoadsAndCompletionMatchToTheNinth) {
  const auto& [dims, capacities] = GetParam();
  const topo::Torus torus(dims);
  const TorusNetwork torus_net(torus, capacities, unit_bandwidth());
  const GraphNetwork graph_net(topo::make_weighted_torus(dims, capacities),
                               unit_bandwidth());
  for (const auto& flows :
       {furthest_node_pairing(torus, 32.0),
        uniform_all_to_all(torus, 24.0).flows()}) {
    const LinkLoads torus_loads = torus_net.route_all(flows);
    const LinkLoads graph_loads = graph_net.route_all(flows);
    for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
      for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
        const std::int64_t a = torus.dims()[dim];
        if (a == 1) continue;
        const int directions = a == 2 ? 1 : 2;
        for (int direction = 0; direction < directions; ++direction) {
          const topo::VertexId peer = ring_neighbor(torus, v, dim, direction);
          EXPECT_NEAR(torus_loads.at(v, dim, direction),
                      graph_loads[graph_net.channel_of(v, peer)], 1e-9)
              << "node " << v << " dim " << dim << " dir " << direction;
        }
      }
    }
    EXPECT_NEAR(torus_net.completion_seconds(torus_loads, flows),
                graph_net.completion_seconds(graph_loads, flows), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TitanStyleTori, WeightedEquivalenceTest,
    ::testing::Values(
        // Titan-style 3-D torus with a fast dimension and a slow one.
        WeightedCase{{4, 3, 2}, {2.0, 1.0, 0.5}},
        // JUQUEEN shape with Aries-like 1x/3x/4x class capacities.
        WeightedCase{{7, 2, 2, 2}, {1.0, 3.0, 4.0, 1.0}},
        // Mira shape, mixed capacities including a degenerate-free case.
        WeightedCase{{4, 4, 3, 2}, {2.5, 1.0, 1.0, 2.0}},
        // Degenerate dims: length-1 (no channels) and length-2 (C_2 edge).
        WeightedCase{{1, 2, 3}, {5.0, 2.0, 1.0}}));

TEST(WeightedEquivalenceTest, MakeNetworkKeepsWeightedToriOnTheTorusBackend) {
  const auto spec =
      topo::TopologySpec::weighted_torus({4, 3, 2}, {2.0, 1.0, 0.5});
  const auto network = make_network(spec, unit_bandwidth());
  const auto* torus_backend = dynamic_cast<const TorusNetwork*>(network.get());
  ASSERT_NE(torus_backend, nullptr)
      << "weighted tori must stay on the specialized path";
  EXPECT_EQ(torus_backend->dim_capacities(),
            (std::vector<double>{2.0, 1.0, 0.5}));

  // Uniform non-unit capacity also stays specialized and prices the links.
  const auto uniform = make_network(topo::TopologySpec::torus({4, 4}, 2.0),
                                    unit_bandwidth());
  ASSERT_NE(dynamic_cast<const TorusNetwork*>(uniform.get()), nullptr);
  const GraphNetwork graph_uniform(
      topo::Torus({4, 4}, 2.0).build_graph(), unit_bandwidth());
  const auto flows =
      furthest_node_pairing(topo::Torus({4, 4}), 16.0);
  EXPECT_NEAR(uniform->completion_seconds(flows),
              graph_uniform.completion_seconds(flows), 1e-9);
}

TEST(EquivalenceTest, PositiveTieBreakConservesByteHopsAndMinimality) {
  // Under kPositive the two backends pick different (but equally minimal)
  // single paths, so per-channel equality is not expected; byte-hop totals
  // and hop counts must still agree exactly.
  for (const topo::Dims& dims :
       {topo::Dims{4, 4, 3, 2}, topo::Dims{7, 2, 2, 2},
        topo::Dims{4, 4, 4, 3}}) {
    const topo::Torus torus(dims);
    const TorusNetwork torus_net(torus, unit_bandwidth(TieBreak::kPositive));
    const GraphNetwork graph_net(torus.build_graph(),
                                 unit_bandwidth(TieBreak::kPositive));
    const auto flows = furthest_node_pairing(torus, 16.0);
    EXPECT_NEAR(torus_net.route_all(flows).total_load(),
                graph_net.route_all(flows).total_load(), 1e-9);
    for (const Flow& flow : flows) {
      EXPECT_EQ(torus_net.path_hops(flow), graph_net.path_hops(flow));
    }
  }
}

TEST(EquivalenceTest, PingPongMatchesOnPaperGeometriesThroughTheInterface) {
  // The generic run_pingpong overload prices both backends identically.
  const topo::Torus torus({4, 4, 3, 2});
  const TorusNetwork torus_net(torus, unit_bandwidth());
  const GraphNetwork graph_net(torus.build_graph(), unit_bandwidth());
  const auto pairing = furthest_node_pairing(torus, 0.0);
  PingPongConfig config;
  config.bytes_per_round = 1.0e6;
  const auto torus_result = run_pingpong(torus_net, pairing, config);
  const auto graph_result = run_pingpong(graph_net, pairing, config);
  EXPECT_NEAR(torus_result.measured_seconds, graph_result.measured_seconds,
              1e-9 * torus_result.measured_seconds);
  EXPECT_NEAR(torus_result.max_channel_bytes_per_round,
              graph_result.max_channel_bytes_per_round, 1e-6);
}

// ---------------------------------------------------------------------------
// Allocation-free routing hot path (ISSUE 9): determinism, parity with the
// pre-refactor algorithm, and the channel_of binary-search contract.
// ---------------------------------------------------------------------------

/// Deterministic workload with heavily skewed destination-group sizes:
/// every destination gets at least one flow, most get a handful, every
/// 11th gets a ~30x spike — so route_all's 16-group chunks carry very
/// uneven work and dynamic scheduling actually reorders chunk completion.
/// Byte counts are awkward fractions (1/1, 1/2, 1/3, ...) so any change in
/// floating-point accumulation order shows up at full precision. The final
/// rotation interleaves groups in the input, exercising the counting-sort
/// scatter rather than handing it pre-grouped flows.
std::vector<Flow> skewed_group_flows(std::int64_t n) {
  std::vector<Flow> flows;
  for (topo::VertexId d = 0; d < n; ++d) {
    const int copies =
        1 + static_cast<int>((d * 7) % 5) + (d % 11 == 0 ? 29 : 0);
    for (int c = 0; c < copies; ++c) {
      const topo::VertexId src = (d + 1 + 3 * c) % n;
      if (src == d) continue;
      flows.push_back({src, d, 1.0 / static_cast<double>(1 + c)});
    }
  }
  std::rotate(flows.begin(), flows.begin() + flows.size() / 3, flows.end());
  return flows;
}

/// Reference reimplementation of route_all in the pre-refactor idiom —
/// a std::queue BFS run over the whole graph, per-level push_back buckets,
/// a per-arc dist re-test instead of the advancing-arc overlay, and a
/// dense zeroed partial per chunk of 16 groups added into the total in
/// chunk order. Exact (bitwise) agreement with the production path pins
/// that the counting-sort level build, the fused BFS+overlay, the BFS that
/// stops at the farthest source and the sparse chunk merge preserved the
/// propagation order, not just its limit.
std::vector<double> reference_route_all(const topo::Graph& graph,
                                        TieBreak tie,
                                        std::span<const Flow> flows) {
  const std::size_t n = static_cast<std::size_t>(graph.num_vertices());
  // Stable grouping by destination (what the counting sort computes).
  std::vector<std::vector<Flow>> by_dst(n);
  for (const Flow& flow : flows) {
    by_dst[static_cast<std::size_t>(flow.dst)].push_back(flow);
  }
  std::vector<topo::VertexId> group_dsts;
  for (std::size_t d = 0; d < n; ++d) {
    if (!by_dst[d].empty()) {
      group_dsts.push_back(static_cast<topo::VertexId>(d));
    }
  }

  const auto route_group = [&](topo::VertexId dst, double* loads) {
    std::vector<std::int64_t> dist(n, -1);
    std::queue<topo::VertexId> frontier;
    dist[static_cast<std::size_t>(dst)] = 0;
    frontier.push(dst);
    std::int64_t max_dist = 0;
    while (!frontier.empty()) {
      const topo::VertexId v = frontier.front();
      frontier.pop();
      for (const topo::Arc& arc : graph.neighbors(v)) {
        if (dist[static_cast<std::size_t>(arc.to)] < 0) {
          dist[static_cast<std::size_t>(arc.to)] =
              dist[static_cast<std::size_t>(v)] + 1;
          max_dist = dist[static_cast<std::size_t>(arc.to)];
          frontier.push(arc.to);
        }
      }
    }
    std::vector<std::vector<topo::VertexId>> levels(
        static_cast<std::size_t>(max_dist) + 1);
    for (std::size_t v = 0; v < n; ++v) {
      if (dist[v] >= 1) {
        levels[static_cast<std::size_t>(dist[v])].push_back(
            static_cast<topo::VertexId>(v));
      }
    }
    std::vector<double> weight(n, 0.0);
    std::int64_t flow_max = 0;
    for (const Flow& flow : by_dst[static_cast<std::size_t>(dst)]) {
      if (flow.src == dst || flow.bytes == 0.0) continue;
      const std::int64_t d = dist[static_cast<std::size_t>(flow.src)];
      ASSERT_GE(d, 0) << "reference workload must be reachable";
      weight[static_cast<std::size_t>(flow.src)] += flow.bytes;
      flow_max = std::max(flow_max, d);
    }
    for (std::int64_t d = flow_max; d >= 1; --d) {
      for (const topo::VertexId v : levels[static_cast<std::size_t>(d)]) {
        const double w = weight[static_cast<std::size_t>(v)];
        if (w == 0.0) continue;
        const auto adjacency = graph.neighbors(v);
        const std::size_t base = graph.arc_begin(v);
        if (tie == TieBreak::kPositive) {
          for (std::size_t k = 0; k < adjacency.size(); ++k) {
            if (dist[static_cast<std::size_t>(adjacency[k].to)] == d - 1) {
              loads[base + k] += w;
              weight[static_cast<std::size_t>(adjacency[k].to)] += w;
              break;
            }
          }
          continue;
        }
        std::size_t advancing = 0;
        for (const topo::Arc& arc : adjacency) {
          if (dist[static_cast<std::size_t>(arc.to)] == d - 1) ++advancing;
        }
        const double share = w / static_cast<double>(advancing);
        for (std::size_t k = 0; k < adjacency.size(); ++k) {
          if (dist[static_cast<std::size_t>(adjacency[k].to)] == d - 1) {
            loads[base + k] += share;
            weight[static_cast<std::size_t>(adjacency[k].to)] += share;
          }
        }
      }
    }
  };

  // Same chunk-of-16 accumulate-then-merge structure as route_all (merging
  // a zero-initialized total with chunk partials of non-negative loads is
  // bitwise equal to the single-chunk direct accumulation).
  constexpr std::size_t kGroupsPerChunk = 16;
  std::vector<double> total(graph.num_arcs(), 0.0);
  for (std::size_t first = 0; first < group_dsts.size();
       first += kGroupsPerChunk) {
    std::vector<double> partial(graph.num_arcs(), 0.0);
    const std::size_t last =
        std::min(first + kGroupsPerChunk, group_dsts.size());
    for (std::size_t g = first; g < last; ++g) {
      route_group(group_dsts[g], partial.data());
    }
    for (std::size_t c = 0; c < partial.size(); ++c) total[c] += partial[c];
  }
  return total;
}

TEST(GraphNetworkTest, RouteAllParityWithPreRefactorReference) {
  // A torus graph (48 destinations, 3 chunks) and a hand-built multigraph
  // with parallel edges (single chunk), under both tie-breaks. Bitwise
  // equality, not a tolerance: the refactor must preserve the propagation
  // order exactly.
  const topo::Graph torus_graph = topo::Torus({4, 4, 3}).build_graph();
  const topo::Graph multi = topo::Graph::from_edges(
      6, {{0, 1, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}, {1, 3, 2.0}, {2, 4, 1.0},
          {3, 4, 1.0}, {3, 4, 1.0}, {4, 5, 1.0}, {0, 5, 3.0}});
  for (const topo::Graph* graph : {&torus_graph, &multi}) {
    const auto flows = skewed_group_flows(graph->num_vertices());
    for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
      const GraphNetwork net(*graph, unit_bandwidth(tie));
      const LinkLoads got = net.route_all(flows);
      const std::vector<double> want =
          reference_route_all(*graph, tie, flows);
      ASSERT_EQ(got.num_channels(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c], want[c])
            << "channel " << c << " tie "
            << (tie == TieBreak::kSplit ? "split" : "positive");
      }
    }
  }
}

/// The pairing topology_pairing_seconds routes on a design: furthest-node
/// on a torus, the id shift h -> h + H/2 on every other family.
std::vector<Flow> design_pairing(const topo::TopologySpec& spec) {
  if (spec.kind() == topo::TopologySpec::Kind::kTorus) {
    return furthest_node_pairing(topo::Torus(spec.dims()), 1.0e6);
  }
  std::vector<Flow> flows;
  const std::int64_t hosts = spec.num_hosts();
  for (std::int64_t h = 0; h < hosts; ++h) {
    flows.push_back({h, (h + hosts / 2) % hosts, 1.0e6});
  }
  return flows;
}

TEST(GraphNetworkTest, DesignPairingsMatchTheFullBfsDenseMergeReference) {
  // Every 512-host design of the topology sweep (torus, hypercube,
  // Hamming, dragonfly, fat-tree) under both tie-breaks: the BFS that
  // stops at each destination's farthest source and the sparse chunk
  // merge must give the loads of a full BFS with dense chunk partials,
  // bit for bit. The id-shift flows are 1 hop on the hypercube and the
  // Hamming graph, up to 3 on the dragonfly, and at the diameter on the
  // fat-tree, so the early exit is taken at every depth.
  const auto cases = core::topology_design_cases(/*fast=*/true);
  ASSERT_EQ(cases.size(), 5u);
  for (const core::TopologyDesignCase& design : cases) {
    const topo::Graph graph = design.spec.build();
    const std::vector<Flow> flows = design_pairing(design.spec);
    for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
      const GraphNetwork net(graph, unit_bandwidth(tie));
      const LinkLoads got = net.route_all(flows);
      const std::vector<double> want = reference_route_all(graph, tie, flows);
      ASSERT_EQ(got.num_channels(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c], want[c])
            << design.spec.id() << " channel " << c << " tie "
            << (tie == TieBreak::kSplit ? "split" : "positive");
      }
    }
  }
}

TEST(GraphNetworkTest, ArcsTouchedCountsTheArcsTheBfsScanned) {
  // hypercube:9's pairing sends host h to h + 256 (mod 512), one bit flip
  // away: each destination group has one source, a neighbour. The BFS pops
  // the destination (9 arcs) and labels its 9 neighbours at level 1, the
  // source among them, so the farthest source sits at level 1. Of level 1
  // only the source carries traffic, so only it is scanned (9 more arcs);
  // the next pop past it is skipped or lies at level 2 and stops the
  // search. 512 groups x 18 arcs = 9216, against 512 x 4608 for full
  // searches.
  const topo::TopologySpec spec = topo::TopologySpec::hypercube(9);
  const GraphNetwork net(spec.build(), unit_bandwidth());
  obs::Registry registry;
  {
    obs::ScopedRegistry scoped(registry);
    (void)net.route_all(design_pairing(spec));
  }
  EXPECT_EQ(registry.counter_value("net.graph.bfs_invocations"), 512u);
  EXPECT_EQ(registry.counter_value("net.graph.arcs_touched"), 9216u);
}

TEST(GraphNetworkTest, RouteAllIsByteIdenticalPooledAndInline) {
  // The determinism contract on skewed-group workloads (a torus graph with
  // 120 destinations in 8 chunks, and a dragonfly with 90 in 6): a
  // top-level call fans its chunks out on the shared pool, a call from a
  // task of a 2-worker run routes every chunk inline, and a repeat call
  // runs on warm scratch. Exact == comparison — any schedule-dependent
  // accumulation order would differ in the last ulp long before it
  // differed at 1e-9.
  topo::DragonflyConfig config;
  config.a = 3;
  config.h = 3;
  config.groups = 10;
  config.global_ports = 1;
  const topo::Graph torus_graph = topo::Torus({6, 5, 4}).build_graph();
  const topo::Graph dragonfly = topo::make_dragonfly(config);
  ASSERT_EQ(dragonfly.num_vertices(), 90);
  for (const topo::Graph* graph : {&torus_graph, &dragonfly}) {
    const auto flows = skewed_group_flows(graph->num_vertices());
    for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
      const GraphNetwork net(*graph, unit_bandwidth(tie));
      const LinkLoads pooled = net.route_all(flows);
      std::optional<LinkLoads> inline_loads;
      sweep::ThreadPool pair(2);
      pair.run_indexed(2, [&](std::int64_t i) {
        if (i == 0) inline_loads = net.route_all(flows);
      });
      const LinkLoads repeat = net.route_all(flows);
      ASSERT_TRUE(inline_loads.has_value());
      const LinkLoads& inlined = *inline_loads;
      for (const LinkLoads* got : {&inlined, &repeat}) {
        ASSERT_EQ(got->num_channels(), pooled.num_channels());
        for (std::size_t c = 0; c < pooled.num_channels(); ++c) {
          ASSERT_EQ((*got)[c], pooled[c]) << "channel " << c;
        }
      }
    }
  }
}

TEST(GraphNetworkTest, UnreachableFlowSurfacesFromPooledAndInlineRouting) {
  // Same shape as RouteAllSurfacesInvalidFlowsAcrossManyGroups: the error
  // must cross the shared pool's run (top level) and an inline run (a task
  // of a 2-worker run), and a follow-up call proves the thread-local
  // scratch arenas are not poisoned by the aborted run.
  std::vector<topo::EdgeSpec> edges;
  for (std::int64_t v = 0; v + 1 < 48; ++v) edges.push_back({v, v + 1, 1.0});
  for (std::int64_t v = 48; v + 1 < 64; ++v) {
    edges.push_back({v, v + 1, 1.0});  // second, disconnected path
  }
  const GraphNetwork net(topo::Graph::from_edges(64, edges),
                         unit_bandwidth());
  std::vector<Flow> flows;
  for (topo::VertexId dst = 1; dst < 48; ++dst) flows.push_back({0, dst, 1.0});
  flows.push_back({0, 50, 1.0});  // crosses the component boundary
  EXPECT_THROW(net.route_all(flows), std::invalid_argument);
  sweep::ThreadPool pair(2);
  EXPECT_THROW(pair.run_indexed(2,
                                [&](std::int64_t i) {
                                  if (i == 0) (void)net.route_all(flows);
                                }),
               std::invalid_argument);
  flows.pop_back();
  const LinkLoads after = net.route_all(flows);
  // Every flow leaves vertex 0 along the single path, so the first channel
  // carries all 47 of them.
  EXPECT_DOUBLE_EQ(after[net.channel_of(0, 1)], 47.0);
}

TEST(GraphNetworkTest, ThrowingChunkLeavesNoLoadsForTheNextCallOnItsThread) {
  // On a 1-worker kernel pool every chunk runs on this thread, so a chunk
  // that throws leaves its scratch behind for the next call: chunk 0 routes
  // destinations 1-5 (touching the path's arcs) and then meets destination
  // 6, whose source 30 lies in the other component. The next call routes
  // the same five destinations over the same arcs, plus a flow from 30
  // inside its own component, and must match the reference bit for bit:
  // no load of the aborted chunk and no weight seeded on 30 may leak into
  // it.
  std::vector<topo::EdgeSpec> edges;
  for (std::int64_t v = 0; v + 1 < 24; ++v) edges.push_back({v, v + 1, 1.0});
  for (std::int64_t v = 24; v + 1 < 32; ++v) edges.push_back({v, v + 1, 1.0});
  const topo::Graph graph = topo::Graph::from_edges(32, edges);
  const GraphNetwork net(graph, unit_bandwidth());
  std::vector<Flow> good;
  for (topo::VertexId dst = 1; dst <= 5; ++dst) {
    good.push_back({0, dst, 1.0 / 3.0});
    good.push_back({20, dst, 1.0 / static_cast<double>(dst)});
  }
  good.push_back({30, 26, 0.5});
  std::vector<Flow> bad = good;
  bad.push_back({30, 6, 1.0});

  sweep::ThreadPool one(1);
  sweep::ScopedKernelPool kernel_pool(one);
  EXPECT_THROW((void)net.route_all(bad), std::invalid_argument);
  const LinkLoads after = net.route_all(good);
  const std::vector<double> want =
      reference_route_all(graph, TieBreak::kSplit, good);
  ASSERT_EQ(after.num_channels(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(after[c], want[c]) << "channel " << c;
  }
  // route_flow shares the scratch: one flow after the throw is still exact.
  EXPECT_THROW((void)net.route_all(bad), std::invalid_argument);
  LinkLoads single = net.make_loads();
  net.route_flow({0, 3, 2.0}, single);
  EXPECT_EQ(single.total_load(), 6.0);
  EXPECT_EQ(single[net.channel_of(2, 3)], 2.0);
}

TEST(GraphNetworkTest, ChannelOfReturnsFirstOfParallelRunAndRejectsNonEdges) {
  // Vertex 0's sorted adjacency is [1, 1, 1, 2, 4, 4]: the binary search
  // must return the FIRST arc of each parallel run (the contract routing
  // and the torus-equivalence channel mapping rely on) and throw for pairs
  // with no edge.
  const topo::Graph graph = topo::Graph::from_edges(
      5, {{0, 4, 1.0}, {0, 1, 2.0}, {0, 1, 3.0}, {0, 2, 1.0}, {0, 4, 2.0},
          {0, 1, 4.0}, {2, 3, 1.0}});
  const GraphNetwork net(graph, unit_bandwidth());
  const std::size_t base = graph.arc_begin(0);
  EXPECT_EQ(net.channel_of(0, 1), base);
  EXPECT_EQ(net.channel_of(0, 2), base + 3);
  EXPECT_EQ(net.channel_of(0, 4), base + 4);
  // First-of-run means the predecessor arc (if any) heads elsewhere while
  // the run itself is contiguous.
  EXPECT_EQ(graph.arc_at(net.channel_of(0, 4) - 1).to, 2);
  EXPECT_EQ(graph.arc_at(net.channel_of(0, 4) + 1).to, 4);
  EXPECT_THROW(net.channel_of(0, 3), std::invalid_argument);  // below a gap
  EXPECT_THROW(net.channel_of(1, 4), std::invalid_argument);  // past the end
  EXPECT_THROW(net.channel_of(2, 2), std::invalid_argument);  // no self-loop
  EXPECT_THROW(net.channel_of(9, 0), std::out_of_range);

  // An ECMP split over the three parallel 0->1 arcs lands on exactly the
  // slots the lookup names, regardless of their (distinct) capacities.
  LinkLoads loads = net.make_loads();
  net.route_flow({0, 1, 9.0}, loads);
  EXPECT_DOUBLE_EQ(loads[base], 3.0);
  EXPECT_DOUBLE_EQ(loads[base + 1], 3.0);
  EXPECT_DOUBLE_EQ(loads[base + 2], 3.0);
  EXPECT_DOUBLE_EQ(loads[net.channel_of(0, 2)], 0.0);
}

}  // namespace
}  // namespace npac::simnet
