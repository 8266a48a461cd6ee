// Sweep-driver tests: byte-identical results across thread counts (the
// subsystem's acceptance criterion), paired traces across policies,
// agreement with direct sequential computation, and the ported analyses.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bgq/bisection.hpp"

namespace npac::sweep {
namespace {

SchedulerSweepGrid small_grid() {
  SchedulerSweepGrid grid;
  grid.machine = bgq::mira();
  grid.policies = {core::SchedulerPolicy::kFirstFit,
                   core::SchedulerPolicy::kBestBisection,
                   core::SchedulerPolicy::kWaitForBest};
  grid.contention_fractions = {0.5, 1.0};
  grid.trace.num_jobs = 12;
  grid.replications = 2;
  return grid;
}

TEST(SchedulerSweepTest, ByteIdenticalAcrossThreadCounts) {
  const SchedulerSweepGrid grid = small_grid();
  SweepOptions sequential;
  sequential.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  SweepContext context_a, context_b;
  const auto rows_a = run_scheduler_sweep(grid, sequential, context_a);
  const auto rows_b = run_scheduler_sweep(grid, parallel, context_b);
  EXPECT_EQ(scheduler_sweep_csv(rows_a), scheduler_sweep_csv(rows_b));
}

TEST(SchedulerSweepTest, RowsFollowGridOrder) {
  const SchedulerSweepGrid grid = small_grid();
  SweepOptions options;
  SweepContext context;
  const auto rows = run_scheduler_sweep(grid, options, context);
  ASSERT_EQ(rows.size(), 3u * 2u * 2u);
  std::size_t index = 0;
  for (const auto policy : grid.policies) {
    for (const double fraction : grid.contention_fractions) {
      for (int rep = 0; rep < grid.replications; ++rep) {
        EXPECT_EQ(rows[index].policy, policy);
        EXPECT_DOUBLE_EQ(rows[index].contention_fraction, fraction);
        EXPECT_EQ(rows[index].replication, rep);
        ++index;
      }
    }
  }
}

TEST(SchedulerSweepTest, PoliciesReplayIdenticalTraces) {
  const SchedulerSweepGrid grid = small_grid();
  SweepOptions options;
  SweepContext context;
  const auto rows = run_scheduler_sweep(grid, options, context);
  // Rows are policy-major; the trace seed of cell (fraction, rep) must not
  // depend on the policy, so corresponding rows across policies share it.
  const std::size_t per_policy =
      grid.contention_fractions.size() * static_cast<std::size_t>(grid.replications);
  for (std::size_t cell = 0; cell < per_policy; ++cell) {
    EXPECT_EQ(rows[cell].trace_seed, rows[per_policy + cell].trace_seed);
    EXPECT_EQ(rows[cell].trace_seed, rows[2 * per_policy + cell].trace_seed);
  }
}

TEST(SchedulerSweepTest, RowsMatchDirectSimulation) {
  const SchedulerSweepGrid grid = small_grid();
  SweepOptions options;
  SweepContext context;
  const auto rows = run_scheduler_sweep(grid, options, context);
  const SchedulerSweepRow& row = rows.front();
  TraceConfig config = grid.trace;
  config.contention_fraction = row.contention_fraction;
  const auto jobs = generate_trace(grid.machine, config, row.trace_seed);
  const auto direct = core::simulate_schedule(
      *core::make_allocator(grid.machine), row.policy, jobs);
  EXPECT_DOUBLE_EQ(row.makespan_seconds, direct.makespan_seconds);
  EXPECT_DOUBLE_EQ(row.mean_slowdown, direct.mean_slowdown);
  EXPECT_DOUBLE_EQ(row.mean_wait_seconds, direct.mean_wait_seconds);
}

TEST(SchedulerSweepTest, QualityPoliciesReduceSlowdown) {
  SchedulerSweepGrid grid = small_grid();
  grid.contention_fractions = {1.0};
  grid.trace.num_jobs = 24;
  grid.replications = 3;
  SweepOptions options;
  SweepContext context;
  const auto rows = run_scheduler_sweep(grid, options, context);
  double mean_by_policy[3] = {0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < 3; ++p) {
    for (int rep = 0; rep < grid.replications; ++rep) {
      mean_by_policy[p] += rows[p * 3 + static_cast<std::size_t>(rep)]
                               .mean_slowdown;
    }
    mean_by_policy[p] /= grid.replications;
  }
  // first-fit >= best-bisection >= wait-for-best (== 1.0 by construction).
  EXPECT_GE(mean_by_policy[0], mean_by_policy[1]);
  EXPECT_GE(mean_by_policy[1], mean_by_policy[2]);
  EXPECT_DOUBLE_EQ(mean_by_policy[2], 1.0);
}

TEST(SchedulerSweepTest, RejectsEmptyGrids) {
  SweepOptions options;
  SweepContext context;
  SchedulerSweepGrid grid = small_grid();
  grid.policies.clear();
  EXPECT_THROW(run_scheduler_sweep(grid, options, context),
               std::invalid_argument);
  grid = small_grid();
  grid.replications = 0;
  EXPECT_THROW(run_scheduler_sweep(grid, options, context),
               std::invalid_argument);
}

TEST(RoutingSweepTest, MatchesDirectRunsAndBounds) {
  RoutingSweepGrid grid;
  grid.geometries = {bgq::Geometry(2, 1, 1, 1), bgq::Geometry(2, 2, 1, 1)};
  grid.tie_breaks = {simnet::TieBreak::kSplit, simnet::TieBreak::kPositive};
  grid.config.total_rounds = 1;
  grid.config.warmup_rounds = 0;
  SweepOptions options;
  options.threads = 2;
  SweepContext context;
  const auto rows = run_routing_sweep(grid, options, context);
  ASSERT_EQ(rows.size(), 4u);
  for (const RoutingSweepRow& row : rows) {
    simnet::NetworkOptions network = grid.network;
    network.tie_break = row.tie_break;
    const auto direct =
        simnet::run_pingpong(row.geometry, grid.config, network);
    EXPECT_DOUBLE_EQ(row.result.measured_seconds, direct.measured_seconds);
    const auto bound = iso::torus_isoperimetric_lower_bound(
        row.geometry.node_dims(), row.geometry.nodes() / 2);
    EXPECT_DOUBLE_EQ(row.iso_bound_cut, bound.value);
  }
}

TEST(RoutingSweepTest, DeterministicAcrossThreadCounts) {
  RoutingSweepGrid grid;
  grid.geometries = {bgq::Geometry(2, 1, 1, 1), bgq::Geometry(4, 1, 1, 1),
                     bgq::Geometry(2, 2, 1, 1)};
  grid.tie_breaks = {simnet::TieBreak::kSplit};
  grid.config.total_rounds = 1;
  grid.config.warmup_rounds = 0;
  SweepOptions sequential;
  sequential.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  SweepContext context_a, context_b;
  EXPECT_EQ(routing_sweep_csv(run_routing_sweep(grid, sequential, context_a)),
            routing_sweep_csv(run_routing_sweep(grid, parallel, context_b)));
}

TEST(MiraBisectionSweepTest, EqualsSequentialExperimentRows) {
  SweepOptions options;
  options.threads = 4;
  SweepContext context;
  const auto parallel_rows = mira_bisection_sweep(options, context);
  const auto sequential_rows = core::mira_rows();
  ASSERT_EQ(parallel_rows.size(), sequential_rows.size());
  for (std::size_t i = 0; i < parallel_rows.size(); ++i) {
    EXPECT_EQ(parallel_rows[i].midplanes, sequential_rows[i].midplanes);
    EXPECT_EQ(parallel_rows[i].nodes, sequential_rows[i].nodes);
    EXPECT_EQ(parallel_rows[i].current, sequential_rows[i].current);
    EXPECT_EQ(parallel_rows[i].current_bw, sequential_rows[i].current_bw);
    EXPECT_EQ(parallel_rows[i].proposed, sequential_rows[i].proposed);
    EXPECT_EQ(parallel_rows[i].proposed_bw, sequential_rows[i].proposed_bw);
  }
}

TEST(SweepTablesTest, RenderWithoutSurprises) {
  const SchedulerSweepGrid grid = small_grid();
  SweepOptions options;
  SweepContext context;
  const auto rows = run_scheduler_sweep(grid, options, context);
  EXPECT_EQ(scheduler_sweep_table(rows).num_rows(), rows.size());
  // Summary collapses replications: one row per (policy, fraction).
  EXPECT_EQ(scheduler_sweep_summary(rows).num_rows(),
            grid.policies.size() * grid.contention_fractions.size());
  EXPECT_EQ(tie_break_name(simnet::TieBreak::kSplit), "split");
  EXPECT_EQ(tie_break_name(simnet::TieBreak::kPositive), "positive");
}

}  // namespace
}  // namespace npac::sweep
