// Extension bench (paper Future Work): bisection-aware job scheduling,
// run as a sweep on the src/sweep engine.
//
// Sweeps the three allocation policies against a grid of contention-bound
// job mixes, with several Monte Carlo trace replications per grid point —
// every policy replays the identical traces, so rows are paired samples.
// Geometry enumerations are shared through the sweep cache, and the grid
// fans across --threads N workers (sweeps are byte-identical for any
// thread count). --seed reseeds the traces; --csv
// writes the full-resolution rows.
//
// Note: the runner port unified this driver's trace seeding on the shared
// --seed flag (default 42); the pre-port binary hardcoded base seed 2020,
// so default-invocation Monte Carlo rows differ from older CSVs. Pass
// --seed 2020 to regenerate those.
#include <cstdio>

#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — bisection-aware scheduling sweep on Mira",
      argc, argv, [](sweep::Runner& runner) {
        sweep::TopologySchedulerGrid grid;
        grid.machines = {{"Mira", topo::TopologySpec::torus({4, 4, 3, 2}),
                          sweep::default_trace_sizes(bgq::mira())}};
        grid.policies = {core::SchedulerPolicy::kFirstFit,
                         core::SchedulerPolicy::kBestBisection,
                         core::SchedulerPolicy::kWaitForBest};
        grid.contention_fractions = {1.0 / 3.0, 2.0 / 3.0, 1.0};
        grid.trace.num_jobs = runner.fast() ? 16 : 48;
        grid.replications = runner.fast() ? 2 : 5;

        std::printf(
            "(3 policies x 3 contention mixes x %d traces of %d jobs)\n",
            grid.replications, grid.trace.num_jobs);

        const auto rows = sweep::run_topology_scheduler_sweep(
            grid, runner.sweep_options(), runner.context());

        // Replication means on stdout; the full-resolution rows go only to
        // the CSV artifact.
        std::printf("\n%s",
                    sweep::topology_scheduler_summary(rows).render().c_str());

        sweep::BenchGrid csv_grid;
        csv_grid.columns = {"Policy",       "Contention",    "Rep",
                            "Trace seed",   "Makespan (s)",  "Mean slowdown",
                            "Mean wait (s)"};
        csv_grid.rows = static_cast<std::int64_t>(rows.size());
        csv_grid.cells = [&rows](std::int64_t i, std::uint64_t) {
          const auto& row = rows[static_cast<std::size_t>(i)];
          return std::vector<std::string>{
              core::to_string(row.policy),
              sweep::format_exact(row.contention_fraction),
              core::format_int(row.replication),
              std::to_string(row.trace_seed),
              sweep::format_exact(row.makespan_seconds),
              "x" + core::format_double(row.mean_slowdown, 3),
              sweep::format_exact(row.mean_wait_seconds)};
        };
        runner.run_csv_only(csv_grid);

        runner.note(
            "Reading: the quality-blind first-fit policy inflates "
            "contention-bound runtimes\n(slowdown toward x2, the paper's "
            "measured worst case) and the inflation grows\nwith the "
            "contention-bound fraction; preferring high-bisection boxes "
            "removes\nmost of it for free, and waiting for optimal boxes "
            "removes all of it at some\nqueueing cost — the decision "
            "Section 5 proposes driving with user hints.");
      });
}
