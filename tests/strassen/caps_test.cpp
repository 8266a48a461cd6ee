// CAPS communication-model tests: rank factorization (f * 7^k), the
// implementation's dimension constraint, per-step volumes, and the
// simulated schedule on small partitions.
#include "strassen/caps.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "simmpi/communicator.hpp"

namespace npac::strassen {
namespace {

TEST(FactorRanksTest, PureSeventhPowers) {
  const auto f = factor_ranks(2401);  // 7^4
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->f, 1);
  EXPECT_EQ(f->k, 4);
}

TEST(FactorRanksTest, WithLeftoverFactor) {
  const auto f = factor_ranks(4802);  // 2 * 7^4
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->f, 2);
  EXPECT_EQ(f->k, 4);
}

TEST(FactorRanksTest, PaperRankCounts) {
  // 31213 = 13 * 7^4 exceeds the f <= 6 constraint quoted in Section 4.2;
  // the paper used it anyway (Table 3), so the cap is a parameter.
  EXPECT_FALSE(factor_ranks(31213).has_value());
  const auto f = factor_ranks(31213, 13);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->f, 13);
  EXPECT_EQ(f->k, 4);
  const auto g = factor_ranks(117649);  // 7^6
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->f, 1);
  EXPECT_EQ(g->k, 6);
}

TEST(FactorRanksTest, InvalidInputs) {
  EXPECT_FALSE(factor_ranks(0).has_value());
  EXPECT_FALSE(factor_ranks(7, 0).has_value());
}

TEST(CapsDimensionTest, GranuleArithmetic) {
  // Granule = f * 2^r * 7^ceil(k/2).
  EXPECT_TRUE(caps_dimension_ok(637, 13, 3, 0));    // 13 * 7^2
  EXPECT_TRUE(caps_dimension_ok(1274, 13, 3, 1));   // 13 * 2 * 49
  EXPECT_FALSE(caps_dimension_ok(638, 13, 3, 0));
  EXPECT_FALSE(caps_dimension_ok(637, 13, 4, 1));   // needs factor 2
}

TEST(CapsDimensionTest, PaperStrongScalingSize) {
  // n = 9408 = 2^5 * 3 * 7^2 with pure 7^4 ranks (ceil(4/2) = 2): the
  // paper's Table 4 configuration admits r up to 6 (9408 / (2^6 * 49) = 3).
  EXPECT_TRUE(caps_dimension_ok(9408, 1, 4, 6));
  EXPECT_FALSE(caps_dimension_ok(9408, 1, 4, 7));
  EXPECT_FALSE(caps_dimension_ok(9409, 1, 4, 0));
  EXPECT_FALSE(caps_dimension_ok(0, 1, 1, 1));
  // Granules of 2^70 and 7^35 do not fit in int64: the check must say no
  // without building them.
  EXPECT_FALSE(caps_dimension_ok(9408, 1, 4, 70));
  EXPECT_FALSE(caps_dimension_ok(9408, 1, 70, 0));
}

TEST(CapsVolumeTest, ScatterShrinksGeometrically) {
  const CapsParams params{1024, 2401, 4};
  double previous = caps_scatter_bytes_per_rank(params, 0);
  for (int step = 1; step < params.bfs_steps; ++step) {
    const double current = caps_scatter_bytes_per_rank(params, step);
    // Each step multiplies the per-rank volume by 7/4.
    EXPECT_NEAR(current / previous, 7.0 / 4.0, 1e-9) << "step " << step;
    previous = current;
  }
}

TEST(CapsVolumeTest, ScatterFormula) {
  // Step 0: 2 * (n/2)^2 * 7 / P elements * 8 bytes.
  const CapsParams params{64, 49, 2};
  const double expected = 2.0 * 32.0 * 32.0 * 7.0 / 49.0 * 8.0;
  EXPECT_NEAR(caps_scatter_bytes_per_rank(params, 0), expected, 1e-9);
}

TEST(CapsVolumeTest, GatherIsHalfOfScatter) {
  const CapsParams params{512, 343, 3};
  for (int step = 0; step < 3; ++step) {
    EXPECT_DOUBLE_EQ(caps_gather_bytes_per_rank(params, step),
                     0.5 * caps_scatter_bytes_per_rank(params, step));
  }
}

TEST(CapsVolumeTest, StepOutOfRangeThrows) {
  const CapsParams params{64, 49, 2};
  EXPECT_THROW(caps_scatter_bytes_per_rank(params, -1), std::invalid_argument);
  EXPECT_THROW(caps_scatter_bytes_per_rank(params, 2), std::invalid_argument);
}

TEST(CapsMemoryTest, MatchesSectionFourThree) {
  // Paper Section 4.3: 3 * (7/4)^4 * 8 * 9408^2 bytes ~= 18.55 GB... the
  // paper quotes that figure for n = 9408 with 4 BFS steps.
  const CapsParams params{9408, 2401, 4};
  EXPECT_NEAR(caps_total_memory_bytes(params) / 1e9, 19.9, 0.1);
}

TEST(CapsSimulationTest, ZeroBfsStepsIsFree) {
  const simnet::TorusNetwork net(topo::Torus({4, 4}));
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  const CapsParams params{64, 16, 0};
  EXPECT_DOUBLE_EQ(simulate_caps_communication(comm, params), 0.0);
}

TEST(CapsSimulationTest, RecordsTwoPhasesPerStep) {
  const simnet::TorusNetwork net(topo::Torus({7, 7}));
  const simmpi::Communicator comm(&net, simmpi::RankMap(49, 49));
  const CapsParams params{112, 49, 2};
  simmpi::Timeline timeline;
  const double seconds = simulate_caps_communication(comm, params, &timeline);
  EXPECT_EQ(timeline.records().size(), 4u);  // 2 scatters + 2 gathers
  EXPECT_NEAR(seconds, timeline.total_seconds(), 1e-12);
  EXPECT_GT(seconds, 0.0);
}

TEST(CapsSimulationTest, RanksMustMatchCommunicator) {
  const simnet::TorusNetwork net(topo::Torus({4, 4}));
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  const CapsParams params{64, 49, 1};
  EXPECT_THROW(simulate_caps_communication(comm, params),
               std::invalid_argument);
}

TEST(CapsSimulationTest, RanksMustBeDivisibleBySevenPowers) {
  const simnet::TorusNetwork net(topo::Torus({4, 4}));
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  const CapsParams params{64, 16, 1};  // 16 not divisible by 7
  EXPECT_THROW(simulate_caps_communication(comm, params),
               std::invalid_argument);
  // 49 = 7^2 ranks admit two BFS steps, not forty. 7^40 does not fit in
  // int64, so the check must not build it.
  const simmpi::Communicator comm49(&net, simmpi::RankMap(49, 16));
  const CapsParams deep{112, 49, 40};
  EXPECT_THROW(simulate_caps_communication(comm49, deep),
               std::invalid_argument);
}

TEST(CapsSimulationTest, BetterGeometryIsFaster) {
  // The core claim at the smallest scale where it is visible: a 4x1x1x1
  // midplane partition vs 2x2x1x1 running the same CAPS schedule.
  const bgq::Geometry worse(4, 1, 1, 1);
  const bgq::Geometry better(2, 2, 1, 1);
  const CapsParams params{1024, 2401, 4};
  double seconds[2] = {0.0, 0.0};
  int i = 0;
  for (const bgq::Geometry& g : {worse, better}) {
    const simnet::TorusNetwork net(g.node_torus());
    const simmpi::Communicator comm(
        &net, simmpi::RankMap(params.ranks, net.torus().num_vertices()));
    seconds[i++] = simulate_caps_communication(comm, params);
  }
  EXPECT_GT(seconds[0], seconds[1]);
}

TEST(CapsTablesTest, TableThreeRows) {
  const auto rows = table3_parameters();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].nodes, 2048);
  EXPECT_EQ(rows[0].mpi_ranks, 31213);
  EXPECT_EQ(rows[0].matrix_dimension, 32928);
  EXPECT_EQ(rows[3].midplanes, 24);
  EXPECT_EQ(rows[3].mpi_ranks, 117649);
  EXPECT_EQ(rows[3].matrix_dimension, 21952);
  EXPECT_NEAR(rows[3].avg_cores_per_proc, 9.57, 1e-9);
}

TEST(CapsTablesTest, TableFourRows) {
  const auto rows = table4_parameters();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.nodes, row.midplanes * 512);
    // 2401 ranks per 1024 nodes, scaling linearly.
    EXPECT_EQ(row.mpi_ranks, 2401 * (row.midplanes / 2));
  }
  EXPECT_EQ(rows[0].current_bw, rows[0].proposed_bw);  // only one geometry
  EXPECT_EQ(rows[2].proposed_bw, 2 * rows[2].current_bw);
}

}  // namespace
}  // namespace npac::strassen
