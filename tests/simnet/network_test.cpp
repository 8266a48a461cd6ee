// Flow-level simulator tests: per-channel routing, minimal ring paths,
// antipodal tie splitting, flow conservation, and the max-congestion
// completion-time model.
#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "sweep/pool.hpp"

namespace npac::simnet {
namespace {

TorusNetwork ring(std::int64_t n, TieBreak tie = TieBreak::kSplit) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;  // seconds == bytes
  options.tie_break = tie;
  return TorusNetwork(topo::Torus({n}), options);
}

TEST(LinkLoadsTest, ChannelIndexingIsDisjoint) {
  LinkLoads loads(4, 2);
  loads.at(0, 0, 0) = 1.0;
  loads.at(0, 0, 1) = 2.0;
  loads.at(0, 1, 0) = 3.0;
  loads.at(3, 1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 1, 0), 3.0);
  EXPECT_DOUBLE_EQ(loads.at(3, 1, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.max_load(), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 10.0);
}

TEST(LinkLoadsTest, MaxLoadInDim) {
  LinkLoads loads(2, 2);
  loads.at(0, 0, 0) = 5.0;
  loads.at(1, 1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(loads.max_load_in_dim(0), 5.0);
  EXPECT_DOUBLE_EQ(loads.max_load_in_dim(1), 7.0);
}

TEST(NetworkTest, ShortWayAroundTheRing) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 2, 10.0}, loads);
  // Forward distance 2 < backward 6: hops 0->1->2 on + channels.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(loads.at(1, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(loads.at(2, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 20.0);
}

TEST(NetworkTest, WrapsBackwardWhenShorter) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 6, 4.0}, loads);
  // Backward distance 2: 0->7->6 on - channels.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(7, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 8.0);
}

TEST(NetworkTest, AntipodalTieSplitsEvenly) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 4, 8.0}, loads);
  // Distance 4 both ways: 4 bytes forward over 4 hops, 4 backward.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 8.0 * 4.0);
}

TEST(NetworkTest, PositiveTieBreakUsesOneDirection) {
  const auto net = ring(8, TieBreak::kPositive);
  LinkLoads loads(8, 1);
  net.route_flow({0, 4, 8.0}, loads);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 8.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 0.0);
}

TEST(NetworkTest, LengthTwoDimensionChargesSenderPlusChannel) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  const TorusNetwork net(topo::Torus({2}), options);
  LinkLoads loads(2, 1);
  net.route_flow({0, 1, 3.0}, loads);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 0.0);
  LinkLoads reverse(2, 1);
  net.route_flow({1, 0, 3.0}, reverse);
  // The reverse flow charges node 1's + channel: same physical link,
  // opposite direction.
  EXPECT_DOUBLE_EQ(reverse.at(1, 0, 0), 3.0);
}

TEST(NetworkTest, DimensionOrderedMultiDimRoute) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  const TorusNetwork net(topo::Torus({4, 4}), options);
  LinkLoads loads(16, 2);
  net.route_flow({net.torus().index_of({0, 0}), net.torus().index_of({1, 1}),
                  5.0},
                 loads);
  // Dim 0 first at row 0, then dim 1 at column 1.
  EXPECT_DOUBLE_EQ(loads.at(net.torus().index_of({0, 0}), 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(loads.at(net.torus().index_of({1, 0}), 1, 0), 5.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 10.0);
}

TEST(NetworkTest, SelfFlowAndZeroBytesAreFree) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({3, 3, 100.0}, loads);
  net.route_flow({0, 1, 0.0}, loads);
  EXPECT_DOUBLE_EQ(loads.total_load(), 0.0);
}

TEST(NetworkTest, NegativeBytesRejected) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  EXPECT_THROW(net.route_flow({0, 1, -1.0}, loads), std::invalid_argument);
}

TEST(NetworkTest, FlowConservationByteHops) {
  // Total load (byte-hops) equals sum over flows of bytes * minimal
  // distance, independent of tie-break splitting.
  const topo::Torus torus({6, 4, 2});
  for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie;
    const TorusNetwork net(torus, options);
    std::vector<Flow> flows;
    double expected = 0.0;
    for (topo::VertexId v = 0; v < torus.num_vertices(); v += 3) {
      const Flow flow{v, (v * 7 + 5) % torus.num_vertices(), 2.0};
      if (flow.src == flow.dst) continue;
      flows.push_back(flow);
      expected += flow.bytes * static_cast<double>(net.path_hops(flow));
    }
    const LinkLoads loads = net.route_all(flows);
    EXPECT_NEAR(loads.total_load(), expected, 1e-9);
  }
}

TEST(NetworkTest, RouteAllMatchesSequentialRouting) {
  const topo::Torus torus({4, 4, 4});
  const TorusNetwork net(torus);
  // Enough flows to trigger the parallel path.
  std::vector<Flow> flows;
  for (topo::VertexId u = 0; u < torus.num_vertices(); ++u) {
    for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
      if (u != v) flows.push_back({u, v, 1.0});
    }
  }
  ASSERT_GT(flows.size(), 1024u);
  const LinkLoads parallel = net.route_all(flows);
  LinkLoads sequential(torus.num_vertices(), torus.num_dims());
  for (const Flow& flow : flows) net.route_flow(flow, sequential);
  ASSERT_EQ(parallel.raw().size(), sequential.raw().size());
  for (std::size_t i = 0; i < parallel.raw().size(); ++i) {
    EXPECT_NEAR(parallel.raw()[i], sequential.raw()[i], 1e-6) << "channel " << i;
  }
}

TEST(NetworkTest, RouteAllIsByteIdenticalPooledAndInline) {
  // 6000 flows on a 720-channel torus route as 5 chunks. Byte sizes span
  // six orders of magnitude and are not dyadic, so any schedule-dependent
  // merge order would change low bits. A top-level call fans the chunks out
  // on the shared pool, a call from a task of a 2-worker run routes them
  // inline, and a repeat call runs on the warm partials arena: all three
  // must agree exactly, under both tie-breaks (even dimensions, so
  // antipodal ties occur).
  const topo::Torus torus({6, 5, 4});
  std::vector<Flow> flows;
  for (std::int64_t i = 0; i < 6000; ++i) {
    flows.push_back({(i * 37) % 120, (i * i + 11 * i) % 120,
                     1.0 / static_cast<double>(1 + i % 13) +
                         (i % 7 == 0 ? 1.0e6 : 0.0)});
  }
  for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie;
    const TorusNetwork net(torus, options);
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
      ASSERT_EQ(got->raw().size(), pooled.raw().size());
      for (std::size_t c = 0; c < pooled.raw().size(); ++c) {
        ASSERT_EQ(got->raw()[c], pooled.raw()[c]) << "channel " << c;
      }
    }
  }
}

TEST(NetworkTest, CompletionTimeIsMaxLoadOverBandwidth) {
  NetworkOptions options;
  options.link_bytes_per_second = 4.0;
  const TorusNetwork net(topo::Torus({8}), options);
  const std::vector<Flow> flows = {{0, 1, 12.0}};
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 3.0);
}

TEST(NetworkTest, InjectionCapFloorsCompletionTime) {
  NetworkOptions options;
  options.link_bytes_per_second = 1e12;  // links effectively infinite
  options.injection_bytes_per_second = 2.0;
  const TorusNetwork net(topo::Torus({8}), options);
  const std::vector<Flow> flows = {{0, 1, 10.0}, {0, 2, 10.0}};
  // Node 0 injects 20 bytes at 2 B/s.
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 10.0);
}

TEST(NetworkTest, RejectsNonPositiveBandwidth) {
  NetworkOptions options;
  options.link_bytes_per_second = 0.0;
  EXPECT_THROW(TorusNetwork(topo::Torus({4}), options), std::invalid_argument);
}

TEST(NetworkTest, PathHops) {
  const TorusNetwork net(topo::Torus({8, 4}));
  EXPECT_EQ(net.path_hops({net.torus().index_of({0, 0}),
                           net.torus().index_of({4, 2}), 1.0}),
            4 + 2);
}

}  // namespace
}  // namespace npac::simnet
