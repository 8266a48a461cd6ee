// Parameter-sweep driver: grids fanned onto the thread pool.
//
// A sweep is a cartesian grid of experiment parameters; every grid point is
// an independent task, so the driver fans points onto sweep::ThreadPool and
// collects rows in grid order. Three invariants make sweeps trustworthy:
//  * determinism — every task's randomness comes from
//    task_seed(base_seed, point_index), so results are byte-identical for
//    any thread count (the acceptance test of this subsystem);
//  * comparability — scheduler sweeps give every policy the *same* traces
//    (the trace seed depends on the mix and replication, not the policy),
//    so policy columns are paired samples, not independent draws;
//  * shared memoization — every task's allocator takes one SweepContext
//    as its partition oracle, so a cuboid enumeration or layout bisection
//    repeated across grid points is computed once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/trace.hpp"

namespace npac::sweep {

struct SweepOptions {
  /// Worker count; < 1 selects std::thread::hardware_concurrency().
  int threads = 1;
  /// Root of every task seed in the sweep.
  std::uint64_t base_seed = 42;
};

// --------------------------------------------------------------------------
// Scheduler sweep: machine x policy x contention mix x Monte Carlo
// replication. Every machine is a core::PartitionAllocator family, so the
// same sweep runs the Section 5 trade-off on Mira alone (a one-machine
// grid, bench/ext_scheduler) and across torus / dragonfly / fat-tree
// machines of equal allocation-unit count (bench/ext_sched_topologies).
// --------------------------------------------------------------------------

struct TopologyMachineCase {
  std::string label;        ///< e.g. "Mira", "torus", "dragonfly"
  topo::TopologySpec spec;  ///< must have an allocator family
  /// Job sizes (allocation units) traces draw from; equal-unit grids share
  /// one pool so machine columns replay identical traces.
  std::vector<std::int64_t> size_pool;
};

struct TopologySchedulerGrid {
  std::vector<TopologyMachineCase> machines;
  std::vector<core::SchedulerPolicy> policies;
  std::vector<double> contention_fractions;
  /// Trace template; contention_fraction and sizes come from the axes.
  TraceConfig trace;
  /// Independent traces per (machine, policy, fraction) point.
  int replications = 1;
};

struct TopologySchedulerRow {
  std::string machine;
  core::SchedulerPolicy policy = core::SchedulerPolicy::kFirstFit;
  double contention_fraction = 0.0;
  int replication = 0;
  std::uint64_t trace_seed = 0;
  double makespan_seconds = 0.0;
  double mean_slowdown = 1.0;
  double mean_wait_seconds = 0.0;
};

/// Rows in grid order: machines (outer) x policies x fractions x
/// replications (inner). The trace seed excludes the machine and policy
/// axes, so every machine and every policy replays the identical trace of
/// its (fraction, replication) cell — machine and policy columns are
/// paired samples whenever the machines share a size pool.
std::vector<TopologySchedulerRow> run_topology_scheduler_sweep(
    const TopologySchedulerGrid& grid, const SweepOptions& options,
    SweepContext& context);

/// Replication means, one row per (machine, policy, fraction) in
/// first-seen order.
core::TextTable topology_scheduler_summary(
    const std::vector<TopologySchedulerRow>& rows);

/// Round-trip-exact CSV — the determinism artifact runner_test pins.
std::string topology_scheduler_csv(
    const std::vector<TopologySchedulerRow>& rows);

/// The bench/ext_sched_topologies grid: all three policies on a torus, a
/// dragonfly, and a fat-tree machine of 32 allocation units each, sharing
/// one size pool. Shared with tests/sweep/runner_test.cpp so the
/// byte-identity regression runs the exact bench grid.
TopologySchedulerGrid ext_sched_topologies_grid(bool fast);

}  // namespace npac::sweep
