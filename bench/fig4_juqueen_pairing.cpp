// Regenerates paper Figure 4: the bisection-pairing experiment on JUQUEEN,
// worst-case vs proposed geometries at 4/6/8/12/16 midplanes.
//
// Runs on the src/sweep bench runner: pairing rows share the per-geometry
// routing cache (--threads N, --seed S, --csv PATH).
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 4 — JUQUEEN bisection pairing (simulated), 26 measured "
      "rounds x 2 GiB",
      argc, argv, [](sweep::Runner& runner) {
        runner.run(sweep::pairing_grid(core::fig4_juqueen_pairing(
            core::paper_pingpong_config(), &runner.engine())));
        runner.note(
            "Shape check (paper Fig. 4 caption): 4 and 8 midplanes share "
            "one per-node\nbisection (equal times); the 6-midplane "
            "partition is 50% worse per node.");
      });
}
