// Property sweeps over the flow simulator: conservation, symmetry,
// linearity in volume, and the bisection-limit law that links the
// simulator to the isoperimetric analysis.
#include <gtest/gtest.h>

#include <random>

#include "simnet/network.hpp"
#include "simnet/traffic.hpp"

namespace npac::simnet {
namespace {

using topo::Dims;

class NetworkFamily : public ::testing::TestWithParam<Dims> {
 protected:
  TorusNetwork network_{topo::Torus(GetParam())};
};

// Byte-hop conservation: total channel load equals sum over flows of
// bytes * minimal hop distance, for every traffic pattern.
TEST_P(NetworkFamily, ByteHopConservationAcrossPatterns) {
  const topo::Torus& torus = network_.torus();
  const auto patterns = {
      furthest_node_pairing(torus, 3.0),
      random_permutation(torus, 2.0, 7),
      uniform_all_to_all(torus, 5.0).flows(),
      nearest_neighbor_halo(torus, 1.0),
  };
  for (const auto& flows : patterns) {
    double expected = 0.0;
    for (const Flow& flow : flows) {
      expected += flow.bytes * static_cast<double>(network_.path_hops(flow));
    }
    EXPECT_NEAR(network_.route_all(flows).total_load(), expected,
                expected * 1e-9 + 1e-9);
  }
}

// Completion time is linear in volume: scaling all flows by c scales the
// time by c.
TEST_P(NetworkFamily, CompletionTimeIsLinearInVolume) {
  const topo::Torus& torus = network_.torus();
  auto flows = random_permutation(torus, 4.0, 11);
  if (flows.empty()) return;
  const double base = network_.completion_seconds(flows);
  for (Flow& flow : flows) flow.bytes *= 3.0;
  EXPECT_NEAR(network_.completion_seconds(flows), 3.0 * base, base * 1e-9);
}

// Symmetric patterns load symmetric channels equally: in the furthest-node
// pairing, max load equals the load in the longest dimension, and every
// ring of the longest dimension is loaded identically.
TEST_P(NetworkFamily, PairingLoadsLongestDimensionUniformly) {
  const topo::Torus& torus = network_.torus();
  if (torus.num_vertices() < 2) return;
  const auto flows = furthest_node_pairing(torus, 2.0);
  const LinkLoads loads = network_.route_all(flows);
  // Find the (first) longest dimension.
  std::size_t longest = 0;
  for (std::size_t dim = 1; dim < torus.num_dims(); ++dim) {
    if (torus.dims()[dim] > torus.dims()[longest]) longest = dim;
  }
  EXPECT_NEAR(loads.max_load(), loads.max_load_in_dim(longest), 1e-12);
  if (torus.dims()[longest] >= 3) {
    // Every + channel in the longest dimension carries the same load.
    const double reference = loads.at(0, longest, 0);
    for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
      EXPECT_NEAR(loads.at(v, longest, 0), reference, 1e-12) << "node " << v;
    }
  }
}

// Reversing every flow preserves total byte-hops (minimal distances are
// symmetric) even though per-channel placement differs under XY routing.
TEST_P(NetworkFamily, ReversedFlowsConserveByteHops) {
  const topo::Torus& torus = network_.torus();
  auto flows = random_permutation(torus, 2.0, 13);
  const LinkLoads forward = network_.route_all(flows);
  for (Flow& flow : flows) std::swap(flow.src, flow.dst);
  const LinkLoads reverse = network_.route_all(flows);
  EXPECT_NEAR(forward.total_load(), reverse.total_load(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NetworkFamily,
                         ::testing::Values(Dims{8}, Dims{5}, Dims{4, 4},
                                           Dims{8, 4}, Dims{6, 3, 2},
                                           Dims{4, 4, 4, 4, 2}));

// The bisection law: for the furthest-node pairing on an even-length
// leading dimension, the max channel load equals
// volume-crossing-per-direction / bisection links.
TEST(BisectionLawTest, PairingSaturatesTheBisection) {
  for (const Dims& dims : {Dims{8, 4, 2}, Dims{16, 4, 4, 4, 2}}) {
    const topo::Torus torus(dims);
    const TorusNetwork network{topo::Torus(dims)};
    const double bytes = 2.0;
    const auto flows = furthest_node_pairing(torus, bytes);
    const LinkLoads loads = network.route_all(flows);
    const double n = static_cast<double>(torus.num_vertices());
    const double bisection_links = 2.0 * n / static_cast<double>(dims[0]);
    EXPECT_NEAR(loads.max_load(), n * bytes / 2.0 / bisection_links, 1e-9)
        << torus.to_string();
  }
}

// Tie-break ablation: static single-direction routing doubles the load of
// antipodal traffic in even rings (the bench_ablation_routing story).
TEST(TieBreakAblationTest, SplitHalvesAntipodalLoad) {
  const topo::Torus torus({8, 8});
  NetworkOptions split_options;
  split_options.tie_break = TieBreak::kSplit;
  NetworkOptions positive_options;
  positive_options.tie_break = TieBreak::kPositive;
  const TorusNetwork split_net(torus, split_options);
  const TorusNetwork positive_net(torus, positive_options);
  const auto flows = furthest_node_pairing(torus, 2.0);
  EXPECT_NEAR(positive_net.route_all(flows).max_load(),
              2.0 * split_net.route_all(flows).max_load(), 1e-9);
}

// Injection cap: with a finite per-node injection rate, all-to-all volume
// can become node-limited instead of link-limited.
TEST(InjectionCapTest, CapBindsWhenLinksAreFast) {
  const topo::Torus torus({4, 4});
  NetworkOptions options;
  options.link_bytes_per_second = 1e15;
  options.injection_bytes_per_second = 1.0;
  const TorusNetwork network(torus, options);
  const auto flows = uniform_all_to_all(torus, 10.0).flows();
  EXPECT_NEAR(network.completion_seconds(flows), 10.0, 1e-9);
}

}  // namespace
}  // namespace npac::simnet
