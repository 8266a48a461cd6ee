// Extension bench (paper Section 5): the Sequoia analysis the authors
// could not run experiments for (the machine moved to classified work in
// 2013). Same method as Table 7, applied to the 4 x 4 x 4 x 3 machine.
//
// Runs on the src/sweep bench runner: per-size rows share the enumeration
// cache (--threads N, --seed S, --csv PATH).
#include "core/report.hpp"
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — Sequoia (4 x 4 x 4 x 3 midplanes, 98304 nodes): best "
      "and worst partitions",
      argc, argv, [](sweep::Runner& runner) {
        const auto rows = core::sequoia_rows(&runner.engine());
        runner.run(sweep::best_worst_grid(rows));
        const auto improvable =
            core::sequoia_improvable_rows(&runner.engine());
        runner.note(
            core::format_int(static_cast<std::int64_t>(improvable.size())) +
            " of " + core::format_int(static_cast<std::int64_t>(rows.size())) +
            " sizes admit a sub-optimal allocation — Sequoia's free-cuboid "
            "scheduler\nhas the same exposure the paper demonstrated on "
            "JUQUEEN (up to x2).");
      });
}
