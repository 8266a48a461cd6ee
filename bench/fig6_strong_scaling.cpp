// Regenerates paper Figure 6: the strong-scaling experiment (n = 9408,
// 2/4/8 Mira midplanes) whose point is that sub-optimal partitions make a
// perfectly scaling algorithm look like it stops scaling.
//
// Runs on the src/sweep bench runner (--threads N, --seed S, --csv PATH);
// the 2-midplane point (current == proposed) is simulated once.
#include "core/report.hpp"
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 6 — Mira strong scaling, CAPS n = 9408 (simulated)", argc,
      argv, [](sweep::Runner& runner) {
        const auto points =
            core::fig6_strong_scaling(/*bfs_steps=*/4, &runner.engine());
        runner.run(sweep::scaling_grid(points));
        const double current_2_to_8 = points.front().current_comm_seconds /
                                      points.back().current_comm_seconds;
        const double proposed_2_to_8 = points.front().proposed_comm_seconds /
                                       points.back().proposed_comm_seconds;
        runner.note("Communication-cost decrease 2 -> 8 midplanes: x" +
                    core::format_double(current_2_to_8, 2) +
                    " with current geometries,\nx" +
                    core::format_double(proposed_2_to_8, 2) +
                    " with proposed (paper: x3.3 vs x4.4; linear would be "
                    "x4).\nThe current-geometry 2->4 step has equal "
                    "bisection (256 links), so its\ncontention cost cannot "
                    "drop — the strong-scaling illusion.");
      });
}
