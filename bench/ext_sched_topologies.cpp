// Extension bench: the bisection-aware scheduling trade-off across network
// families — the scheduler analogue of ext_topologies.
//
// Sweeps the three allocation policies against torus / dragonfly / fat-tree
// machines of equal allocation-unit count (32 units each) and a grid of
// contention-bound job mixes, with Monte Carlo trace replications per grid
// point. The machines share one job-size pool, and the trace seed excludes
// the machine and policy axes, so every machine and every policy replays
// the identical trace of its (mix, replication) cell — all columns are
// paired samples. Layout scoring (cuboid enumerations, slice bisections) is
// shared through the sweep cache, and the grid fans across --threads N
// workers (byte-identical for any thread count).
#include <cstdio>

#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — scheduling policies across torus/dragonfly/fat-tree",
      argc, argv, [](sweep::Runner& runner) {
        const auto grid = sweep::ext_sched_topologies_grid(runner.fast());

        std::printf(
            "(%zu machines x %zu policies x %zu contention mixes x %d traces "
            "of %d jobs)\n",
            grid.machines.size(), grid.policies.size(),
            grid.contention_fractions.size(), grid.replications,
            grid.trace.num_jobs);

        const auto rows = sweep::run_topology_scheduler_sweep(
            grid, runner.sweep_options(), runner.context());

        // Replication means on stdout; the full-resolution rows go only to
        // the CSV artifact.
        std::printf("\n%s",
                    sweep::topology_scheduler_summary(rows).render().c_str());

        sweep::BenchGrid csv_grid;
        csv_grid.columns = {"Machine",      "Policy",        "Contention",
                            "Rep",          "Trace seed",    "Makespan (s)",
                            "Mean slowdown", "Mean wait (s)"};
        csv_grid.rows = static_cast<std::int64_t>(rows.size());
        csv_grid.cells = [&rows](std::int64_t i, std::uint64_t) {
          const auto& row = rows[static_cast<std::size_t>(i)];
          return std::vector<std::string>{
              row.machine,
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
            "Reading: on the torus, the quality-blind first-fit policy "
            "inflates contention-bound\nruntimes toward the paper's x2 worst "
            "case and waiting for optimal boxes removes the\ninflation at "
            "some queueing cost. The dragonfly shows the same trade-off "
            "through group\nslices (compact slices keep traffic on dense "
            "intra-group links). The fat-tree is\nlayout-flat — a "
            "non-blocking Clos gives every same-size block the same host\n"
            "bisection — so its three policies coincide: exactly the "
            "Section 5 observation that\npartition geometry does not matter "
            "on such machines.");
      });
}
