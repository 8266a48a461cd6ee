// Integration across layers: the isoperimetric theory (iso), the machine
// model (bgq), and the contention simulator (simnet/simmpi) must tell one
// consistent story.
#include <gtest/gtest.h>

#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "iso/cuboid_search.hpp"
#include "iso/sse.hpp"
#include "iso/torus_bound.hpp"
#include "simnet/pingpong.hpp"

namespace npac {
namespace {

TEST(CrossModuleTest, TheoremBoundMatchesBisectionClosedForm) {
  // For every Mira scheduler geometry, the Theorem 3.1 lower bound at
  // t = N/2 on the node torus equals the 2N/L closed form — the bound is
  // tight at the bisection.
  for (const auto& entry : bgq::mira_scheduler_partitions()) {
    const topo::Dims dims = entry.geometry.node_dims();
    std::int64_t volume = 1;
    for (const auto a : dims) volume *= a;
    const auto bound = iso::torus_isoperimetric_lower_bound(dims, volume / 2);
    EXPECT_NEAR(bound.value,
                static_cast<double>(bgq::normalized_bisection(entry.geometry)),
                1e-6)
        << entry.geometry.to_string();
  }
}

TEST(CrossModuleTest, MinCutCuboidAtHalfEqualsBisection) {
  // Lemma 3.3's cuboid search on the node torus reproduces the bisection
  // for small geometries.
  for (const bgq::Geometry& g :
       {bgq::Geometry(2, 1, 1, 1), bgq::Geometry(2, 2, 1, 1),
        bgq::Geometry(3, 1, 1, 1)}) {
    const topo::Dims dims = g.node_dims();
    const auto cut = iso::min_cut_cuboid(dims, g.nodes() / 2);
    ASSERT_TRUE(cut.has_value()) << g.to_string();
    EXPECT_EQ(cut->cut, bgq::normalized_bisection(g)) << g.to_string();
  }
}

TEST(CrossModuleTest, PingPongTimeEqualsVolumeOverBisectionBandwidth) {
  // In the furthest-node pairing every byte crosses the bisection once, so
  // round time = (N * bytes / 2 directions) / bisection-bandwidth when the
  // longest dimension dominates. Verify on the 4-midplane geometries.
  simnet::PingPongConfig config;
  config.total_rounds = 1;
  config.warmup_rounds = 0;
  config.bytes_per_round = 1.0e9;
  for (const bgq::Geometry& g :
       {bgq::Geometry(4, 1, 1, 1), bgq::Geometry(2, 2, 1, 1)}) {
    const auto result = simnet::run_pingpong(g, config);
    const double volume_per_direction =
        static_cast<double>(g.nodes()) * config.bytes_per_round / 2.0;
    const double bisection_bytes_per_second =
        bgq::bisection_bytes_per_second(g, simnet::kBgqLinkBytesPerSecond);
    EXPECT_NEAR(result.measured_seconds,
                volume_per_direction / bisection_bytes_per_second,
                result.measured_seconds * 1e-9)
        << g.to_string();
  }
}

TEST(CrossModuleTest, AdvisorSpeedupIsRealizedByTheSimulator) {
  // End-to-end: the advisor predicts a speedup from the bisection ratio;
  // running the pairing benchmark on both geometries realizes it.
  const auto advisor = core::PartitionAdvisor::for_juqueen();
  const auto rec = advisor.advise(8);
  ASSERT_TRUE(rec && rec->improvable);
  simnet::PingPongConfig config;
  config.total_rounds = 5;
  config.warmup_rounds = 1;
  config.bytes_per_round = 1.0e6;
  const auto assigned = simnet::run_pingpong(rec->assigned, config);
  const auto best = simnet::run_pingpong(rec->best, config);
  EXPECT_NEAR(assigned.measured_seconds / best.measured_seconds,
              rec->predicted_speedup, 1e-9);
}

TEST(CrossModuleTest, SmallSetExpansionRanksGeometriesLikeBisection) {
  // The SSE ordering of equal-sized partitions matches the bisection
  // ordering (Section 2: SSE is attained by the bisection here).
  const topo::Torus worse(bgq::Geometry(4, 1, 1, 1).node_dims());
  const topo::Torus better(bgq::Geometry(2, 2, 1, 1).node_dims());
  EXPECT_LT(iso::torus_bisection_expansion(worse),
            iso::torus_bisection_expansion(better));
}

TEST(CrossModuleTest, ExtremalCuboidRealizesBisectionOnNodeTorus) {
  // Lemma 3.2's S_r at t = N/2 exists for Blue Gene/Q node tori (halving
  // the longest dimension) and its closed-form cut equals the bisection.
  const bgq::Geometry g(4, 2, 1, 1);
  const topo::Dims dims = g.node_dims();
  const auto best = iso::best_extremal_cuboid(dims, g.nodes() / 2);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(iso::cuboid_cut(dims, *best), bgq::normalized_bisection(g));
}

TEST(CrossModuleTest, WorstGeometrySaturatesEarlier) {
  // The worst geometry's max-channel load exceeds the best geometry's for
  // the same all-to-all volume (the contention mechanism itself).
  const auto worst = *bgq::worst_geometry(bgq::juqueen(), 4);
  const auto best = *bgq::best_geometry(bgq::juqueen(), 4);
  for (const auto* g : {&worst, &best}) {
    SCOPED_TRACE(g->to_string());
  }
  const simnet::TorusNetwork worst_net(worst.node_torus());
  const simnet::TorusNetwork best_net(best.node_torus());
  const auto worst_exchange =
      simnet::uniform_all_to_all(worst_net.torus(), 1.0e6);
  const auto best_exchange =
      simnet::uniform_all_to_all(best_net.torus(), 1.0e6);
  EXPECT_GT(worst_net.route_exchange(worst_exchange).max_load(),
            best_net.route_exchange(best_exchange).max_load());
}

}  // namespace
}  // namespace npac
