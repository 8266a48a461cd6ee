// Flow-level simulator tests: per-channel routing (bit for bit against a
// per-hop coordinate walker), minimal ring paths, antipodal tie splitting,
// flow conservation, the size guard, and the max-congestion
// completion-time model.
#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

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

TEST(LinkLoadsTest, MaxLoadMatchesMaxElementAtEveryLaneAndTail) {
  // max_load scans in four lanes plus a tail of up to three channels. For
  // every length 0-9, place the largest load on each channel in turn (so
  // it lands in every lane and every tail slot), among distinct smaller
  // loads, and compare with std::max_element.
  for (std::size_t size = 0; size <= 9; ++size) {
    LinkLoads empty(size);
    EXPECT_EQ(empty.max_load(), 0.0) << "size " << size;
    for (std::size_t peak = 0; peak < size; ++peak) {
      LinkLoads loads(size);
      for (std::size_t c = 0; c < size; ++c) {
        loads[c] = 1.0 + static_cast<double>((c * 7) % 11) / 16.0;
      }
      loads[peak] = 3.25;
      const auto raw = loads.raw();
      EXPECT_EQ(loads.max_load(), *std::max_element(raw.begin(), raw.end()))
          << "size " << size << " peak " << peak;
      EXPECT_EQ(loads.max_load(), 3.25);
    }
  }
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

TEST(NetworkTest, RouteAllAddsFlowsInInputOrder) {
  // 6000 flows on a 720-channel torus. Byte sizes span six orders of
  // magnitude and are not dyadic, so any other summation order (a chunked
  // merge, say) would change low bits: route_all must equal a route_flow
  // loop into one LinkLoads bit for bit, under both tie-breaks (even
  // dimensions, so antipodal ties occur).
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
    LinkLoads want = net.make_loads();
    for (const Flow& flow : flows) net.route_flow(flow, want);
    const LinkLoads got = net.route_all(flows);
    ASSERT_EQ(got.num_channels(), want.num_channels());
    std::size_t differing = 0;
    for (std::size_t c = 0; c < want.num_channels(); ++c) {
      if (std::memcmp(&got.raw()[c], &want.raw()[c], sizeof(double)) != 0) {
        ++differing;
      }
    }
    EXPECT_EQ(differing, 0u) << (tie == TieBreak::kSplit ? "split" : "positive");
  }
}

TEST(NetworkTest, RouteFlowRejectsLoadsOfAnotherShape) {
  // Routing writes, and the weighted drain time reads, at the network's
  // own channel layout: loads of another shape must be refused before they
  // are touched. Flow 0 -> 63 on {8, 8} would write far past the 4
  // channels of a {2} network's loads.
  const TorusNetwork net(topo::Torus({8, 8}));
  for (LinkLoads loads : {TorusNetwork(topo::Torus({2})).make_loads(),
                          LinkLoads(128, 1), LinkLoads(256)}) {
    EXPECT_THROW(net.route_flow({0, 63, 1.0}, loads), std::invalid_argument);
    for (const double load : loads.raw()) EXPECT_EQ(load, 0.0);
  }
  // Same channel count, one dimension fewer: the per-dimension scan of a
  // weighted torus would read dimension 1 past the end.
  const TorusNetwork weighted(topo::Torus({4, 4}), {1.0, 2.0});
  EXPECT_THROW(weighted.completion_seconds(LinkLoads(32, 1), {}),
               std::invalid_argument);
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

// Dimension-ordered minimal routing as a per-hop walk over coordinate
// vectors: coord_of per flow and index_of per hop, the reference the
// incremental-index router must reproduce bit for bit.
LinkLoads coordinate_route_all(const topo::Torus& torus, TieBreak tie,
                               std::span<const Flow> flows) {
  LinkLoads loads(torus.num_vertices(), torus.num_dims());
  for (const Flow& flow : flows) {
    if (flow.src == flow.dst || flow.bytes == 0.0) continue;
    topo::Coord at = torus.coord_of(flow.src);
    const topo::Coord to = torus.coord_of(flow.dst);
    for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
      const std::int64_t a = torus.dims()[dim];
      if (at[dim] == to[dim]) continue;
      const std::int64_t forward = ((to[dim] - at[dim]) % a + a) % a;
      const std::int64_t backward = a - forward;
      const auto walk = [&](int direction, std::int64_t hops, double weight) {
        topo::Coord c = at;
        for (std::int64_t step = 0; step < hops; ++step) {
          loads.at(torus.index_of(c), dim, direction) += weight;
          c[dim] = direction == 0 ? (c[dim] + 1) % a : (c[dim] - 1 + a) % a;
        }
      };
      if (a == 2) {
        walk(0, 1, flow.bytes);
      } else if (forward < backward) {
        walk(0, forward, flow.bytes);
      } else if (backward < forward) {
        walk(1, backward, flow.bytes);
      } else if (tie == TieBreak::kSplit) {
        walk(0, forward, flow.bytes / 2.0);
        walk(1, backward, flow.bytes / 2.0);
      } else {
        walk(0, forward, flow.bytes);
      }
      at[dim] = to[dim];
    }
  }
  return loads;
}

TEST(NetworkTest, RouteAllMatchesCoordinateWalkerBitForBit) {
  // Every ordered pair, plus self and zero-byte flows, on tori with
  // length-1, length-2, odd and even dimensions (even ones make antipodal
  // ties), under both tie-breaks. Both routers add in flow order, so
  // non-dyadic bytes must match exactly.
  for (const topo::Dims& dims :
       std::vector<topo::Dims>{{2},
                               {5},
                               {6},
                               {4, 1, 3},
                               {2, 2, 2},
                               {6, 2, 3},
                               {1, 4, 1, 4},
                               {7, 1, 6},
                               {4, 4, 2, 2}}) {
    const topo::Torus torus(dims);
    std::vector<Flow> flows;
    for (topo::VertexId u = 0; u < torus.num_vertices(); ++u) {
      for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
        flows.push_back({u, v, (u * 7 + v) % 5 == 0 ? 0.0 : 1.0});
      }
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].bytes != 0.0) {
        flows[i].bytes = 1.0 / static_cast<double>(3 + i % 11);
      }
    }
    for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
      NetworkOptions options;
      options.tie_break = tie;
      const TorusNetwork net(torus, options);
      const LinkLoads got = net.route_all(flows);
      const LinkLoads want = coordinate_route_all(torus, tie, flows);
      ASSERT_EQ(got.raw().size(), want.raw().size());
      EXPECT_EQ(std::memcmp(got.raw().data(), want.raw().data(),
                            want.raw().size() * sizeof(double)),
                0)
          << torus.to_string() << (tie == TieBreak::kSplit ? " split" : " positive");
    }
  }
}

TEST(NetworkTest, RejectsToriWithMoreThanUint32Vertices) {
  // 65536 x 65537 vertices is past 2^32 - 1: vertex ids no longer fit the
  // router's 32-bit decomposition. route_flow must refuse before it
  // touches the (here one-node) loads; the test never sizes loads for the
  // whole torus.
  const TorusNetwork net(topo::Torus({65536, 65537}));
  LinkLoads one_node(1, 2);
  EXPECT_THROW(net.route_flow({0, 1, 1.0}, one_node), std::invalid_argument);
  for (const double load : one_node.raw()) EXPECT_EQ(load, 0.0);
}

}  // namespace
}  // namespace npac::simnet
