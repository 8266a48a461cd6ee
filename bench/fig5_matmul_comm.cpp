// Regenerates paper Figure 5: CAPS Strassen-Winograd communication time on
// Mira, current vs proposed partitions, at the Table 3 configurations.
//
// Runs on the src/sweep bench runner: the per-size CAPS simulations run in
// order, each BFS step's group all-to-all priced in closed form on the
// node torus (milliseconds even at 24 midplanes). Also --threads, --seed,
// --csv.
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 5 — Mira CAPS matmul communication time (simulated)", argc,
      argv, [](sweep::Runner& runner) {
        runner.run(sweep::matmul_grid(
            core::fig5_matmul(/*bfs_steps=*/4, &runner.engine())));
        runner.note(
            "Paper: communication improves x1.37-x1.52 with proposed "
            "partitions\n(current 0.37/0.21/0.13/0.12 s vs proposed "
            "0.27/0.14/0.082/0.091 s).\nComputation time is geometry-"
            "independent, so wall-clock gains are x1.08-x1.22.");
      });
}
