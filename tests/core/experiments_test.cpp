// Experiment-driver tests on the fast analytical paths (figures 1/2/7 and
// all tables). The simulator-backed figures 3-6 are covered at full paper
// scale by the integration suite; here we validate their structure on the
// smallest configurations.
//
// Every call goes through one shared sweep engine (memoized caches, rows
// in order, kernels on the shared pool), so results repeated across test
// cases — the JUQUEEN/Sequoia enumerations, the Table 5 machine
// comparison — are computed once. Engine results are asserted identical
// to the serial path in tests/sweep/runner_test.cpp.
#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include "sweep/runner.hpp"

namespace npac::core {
namespace {

ExperimentEngine* engine() { return &sweep::Runner::process_engine(); }

TEST(ExperimentsTest, MiraRowsCoverTableSix) {
  const auto rows = mira_rows(engine());
  ASSERT_EQ(rows.size(), 10u);
  // Row "P = 2048": current 4x1x1x1 at 256, proposed 2x2x1x1 at 512.
  const auto& row = rows[2];
  EXPECT_EQ(row.midplanes, 4);
  EXPECT_EQ(row.nodes, 2048);
  EXPECT_EQ(row.current_bw, 256);
  ASSERT_TRUE(row.proposed.has_value());
  EXPECT_EQ(*row.proposed, bgq::Geometry(2, 2, 1, 1));
  EXPECT_EQ(row.proposed_bw, 512);
}

TEST(ExperimentsTest, Table1IsTheImprovableSubset) {
  const auto rows = table1_rows(engine());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].midplanes, 4);
  EXPECT_EQ(rows[1].midplanes, 8);
  EXPECT_EQ(rows[2].midplanes, 16);
  EXPECT_EQ(rows[3].midplanes, 24);
  for (const auto& row : rows) {
    ASSERT_TRUE(row.proposed.has_value());
    EXPECT_GT(row.proposed_bw, row.current_bw);
  }
}

TEST(ExperimentsTest, JuqueenRowsCoverAllFeasibleSizes) {
  const auto rows = juqueen_rows(engine());
  EXPECT_EQ(rows.size(), 19u);  // Table 7
  for (const auto& row : rows) {
    EXPECT_GE(row.best_bw, row.worst_bw);
    EXPECT_EQ(row.nodes, row.midplanes * 512);
  }
}

TEST(ExperimentsTest, Table2MatchesPaper) {
  const auto rows = table2_rows(engine());
  ASSERT_EQ(rows.size(), 6u);
  // P = 12288 (24 midplanes): worst 6x2x2x1 @ 1024, best 3x2x2x2 @ 2048.
  const auto& last = rows.back();
  EXPECT_EQ(last.midplanes, 24);
  EXPECT_EQ(last.worst, bgq::Geometry(6, 2, 2, 1));
  EXPECT_EQ(last.worst_bw, 1024);
  EXPECT_EQ(last.best, bgq::Geometry(3, 2, 2, 2));
  EXPECT_EQ(last.best_bw, 2048);
}

TEST(ExperimentsTest, SequoiaRowsCoverSection5Claim) {
  // Section 5: Sequoia's scheduler permits any cuboid, so "both optimal
  // and sub-optimal permissible partitions may be defined for certain
  // midplane counts".
  const auto rows = sequoia_rows(engine());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_GE(row.best_bw, row.worst_bw);
    EXPECT_EQ(row.nodes, row.midplanes * 512);
  }
  const auto improvable = sequoia_improvable_rows(engine());
  ASSERT_FALSE(improvable.empty());
  // The familiar sizes improve by the familiar factor.
  const auto& first = improvable.front();
  EXPECT_EQ(first.midplanes, 4);
  EXPECT_EQ(first.worst, bgq::Geometry(4, 1, 1, 1));
  EXPECT_EQ(first.best, bgq::Geometry(2, 2, 1, 1));
  // Full machine: 2 * 98304 / 16 = 12288 links.
  EXPECT_EQ(rows.back().midplanes, 192);
  EXPECT_EQ(rows.back().best_bw, 12288);
}

TEST(ExperimentsTest, Table5MachineDesign) {
  const auto rows = table5_rows(engine());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    // Where JUQUEEN-54 supports a size, its best bisection is at least
    // JUQUEEN's (the Section 5 claim).
    if (row.j54 && row.juqueen) {
      EXPECT_GE(row.j54_bw, row.juqueen_bw) << row.midplanes;
    }
  }
  // Spot values from Table 5.
  const auto at = [&rows](std::int64_t size) {
    for (const auto& row : rows) {
      if (row.midplanes == size) return row;
    }
    return MachineDesignRow{};
  };
  EXPECT_EQ(at(27).j54_bw, 2304);   // 3x3x3x1
  EXPECT_FALSE(at(27).juqueen.has_value());
  EXPECT_EQ(at(48).juqueen_bw, 2048);  // 6x2x2x2
  EXPECT_EQ(at(48).j48_bw, 3072);      // 4x3x2x2
  EXPECT_EQ(at(54).j54_bw, 4608);      // 3x3x3x2
  EXPECT_EQ(at(56).juqueen_bw, 2048);  // 7x2x2x2
}

TEST(ExperimentsTest, PaperPingPongConfig) {
  const auto config = paper_pingpong_config();
  EXPECT_EQ(config.total_rounds, 30);
  EXPECT_EQ(config.warmup_rounds, 4);
  EXPECT_EQ(config.chunks_per_round, 16);
  // 2 GiB / 16 chunks = 0.1342 GB per chunk, the figure-3/4 message size.
  EXPECT_NEAR(config.bytes_per_round / config.chunks_per_round / 1e9, 0.1342,
              1e-3);
}

TEST(ExperimentsTest, Fig3SmallConfigRatios) {
  // Shrink the volume (ratios are volume-independent under the fluid
  // model) and run the Mira pairing comparison.
  simnet::PingPongConfig config = paper_pingpong_config();
  config.bytes_per_round = 1.0e6;
  const auto comparisons = fig3_mira_pairing(config, engine());
  ASSERT_EQ(comparisons.size(), 4u);
  for (const auto& cmp : comparisons) {
    EXPECT_NEAR(cmp.speedup, cmp.predicted_speedup, 1e-9)
        << cmp.midplanes << " midplanes";
  }
  EXPECT_NEAR(comparisons[0].speedup, 2.0, 1e-9);
  EXPECT_NEAR(comparisons[3].speedup, 4.0 / 3.0, 1e-9);
}

TEST(ExperimentsTest, Fig6StructureAtOneBfsStep) {
  const auto points = fig6_strong_scaling(1, engine());
  ASSERT_EQ(points.size(), 3u);
  // 2 midplanes admits a single geometry: current == proposed.
  EXPECT_EQ(points[0].current, points[0].proposed);
  EXPECT_NEAR(points[0].current_comm_seconds, points[0].proposed_comm_seconds,
              1e-12);
  // Proposed communication time decreases with scale.
  EXPECT_GT(points[0].proposed_comm_seconds, points[1].proposed_comm_seconds);
  EXPECT_GT(points[1].proposed_comm_seconds, points[2].proposed_comm_seconds);
}

}  // namespace
}  // namespace npac::core
