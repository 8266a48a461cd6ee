// Sweep-driver tests: byte-identical results across thread counts (the
// subsystem's acceptance criterion), paired traces across policies, and
// agreement with direct sequential computation, on the one-machine Mira
// grid that bench/ext_scheduler runs.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace npac::sweep {
namespace {

TopologySchedulerGrid small_grid() {
  TopologySchedulerGrid grid;
  grid.machines = {{"Mira", topo::TopologySpec::torus({4, 4, 3, 2}),
                    default_trace_sizes(bgq::mira())}};
  grid.policies = {core::SchedulerPolicy::kFirstFit,
                   core::SchedulerPolicy::kBestBisection,
                   core::SchedulerPolicy::kWaitForBest};
  grid.contention_fractions = {0.5, 1.0};
  grid.trace.num_jobs = 12;
  grid.replications = 2;
  return grid;
}

TEST(SchedulerSweepTest, ByteIdenticalAcrossThreadCounts) {
  const TopologySchedulerGrid grid = small_grid();
  SweepContext context_a, context_b;
  const auto rows_a = run_topology_scheduler_sweep(
      grid, {.threads = 1, .base_seed = 42}, context_a);
  const auto rows_b = run_topology_scheduler_sweep(
      grid, {.threads = 4, .base_seed = 42}, context_b);
  EXPECT_EQ(topology_scheduler_csv(rows_a), topology_scheduler_csv(rows_b));
}

TEST(SchedulerSweepTest, RowsFollowGridOrder) {
  const TopologySchedulerGrid grid = small_grid();
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(grid, {}, context);
  ASSERT_EQ(rows.size(), 3u * 2u * 2u);
  std::size_t index = 0;
  for (const auto policy : grid.policies) {
    for (const double fraction : grid.contention_fractions) {
      for (int rep = 0; rep < grid.replications; ++rep) {
        EXPECT_EQ(rows[index].machine, "Mira");
        EXPECT_EQ(rows[index].policy, policy);
        EXPECT_DOUBLE_EQ(rows[index].contention_fraction, fraction);
        EXPECT_EQ(rows[index].replication, rep);
        ++index;
      }
    }
  }
}

TEST(SchedulerSweepTest, PoliciesReplayIdenticalTraces) {
  const TopologySchedulerGrid grid = small_grid();
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(grid, {}, context);
  // Rows are policy-major; the trace seed of cell (fraction, rep) must not
  // depend on the policy, so corresponding rows across policies share it.
  const std::size_t per_policy = grid.contention_fractions.size() *
                                 static_cast<std::size_t>(grid.replications);
  for (std::size_t cell = 0; cell < per_policy; ++cell) {
    EXPECT_EQ(rows[cell].trace_seed, rows[per_policy + cell].trace_seed);
    EXPECT_EQ(rows[cell].trace_seed, rows[2 * per_policy + cell].trace_seed);
  }
}

TEST(SchedulerSweepTest, RowsMatchDirectSimulation) {
  const TopologySchedulerGrid grid = small_grid();
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(grid, {}, context);
  for (const TopologySchedulerRow& row : {rows.front(), rows.back()}) {
    TraceConfig config = grid.trace;
    config.contention_fraction = row.contention_fraction;
    const auto jobs = generate_trace(bgq::mira(), config, row.trace_seed);
    const auto direct = core::simulate_schedule(
        *core::make_allocator(bgq::mira()), row.policy, jobs);
    EXPECT_DOUBLE_EQ(row.makespan_seconds, direct.makespan_seconds);
    EXPECT_DOUBLE_EQ(row.mean_slowdown, direct.mean_slowdown);
    EXPECT_DOUBLE_EQ(row.mean_wait_seconds, direct.mean_wait_seconds);
  }
}

TEST(SchedulerSweepTest, QualityPoliciesReduceSlowdown) {
  TopologySchedulerGrid grid = small_grid();
  grid.contention_fractions = {1.0};
  grid.trace.num_jobs = 24;
  grid.replications = 3;
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(grid, {}, context);
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
  SweepContext context;
  TopologySchedulerGrid grid = small_grid();
  grid.machines.clear();
  EXPECT_THROW(run_topology_scheduler_sweep(grid, {}, context),
               std::invalid_argument);
  grid = small_grid();
  grid.policies.clear();
  EXPECT_THROW(run_topology_scheduler_sweep(grid, {}, context),
               std::invalid_argument);
  grid = small_grid();
  grid.contention_fractions.clear();
  EXPECT_THROW(run_topology_scheduler_sweep(grid, {}, context),
               std::invalid_argument);
  grid = small_grid();
  grid.machines.front().size_pool.clear();
  EXPECT_THROW(run_topology_scheduler_sweep(grid, {}, context),
               std::invalid_argument);
  grid = small_grid();
  grid.replications = 0;
  EXPECT_THROW(run_topology_scheduler_sweep(grid, {}, context),
               std::invalid_argument);
}

TEST(SweepTablesTest, RenderWithoutSurprises) {
  const TopologySchedulerGrid grid = small_grid();
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(grid, {}, context);
  EXPECT_EQ(topology_scheduler_table(rows).num_rows(), rows.size());
  // Summary collapses replications: one row per (machine, policy, fraction).
  EXPECT_EQ(topology_scheduler_summary(rows).num_rows(),
            grid.policies.size() * grid.contention_fractions.size());
}

}  // namespace
}  // namespace npac::sweep
