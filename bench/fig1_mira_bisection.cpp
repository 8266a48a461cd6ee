// Regenerates paper Figure 1: normalized bisection bandwidth of Mira's
// currently-defined and proposed partition geometries across all sizes
// (series printed as rows; plot midplanes vs the two BW columns).
//
// Runs on the src/sweep bench runner: the per-size optimal-cuboid searches
// share the sweep cache (--threads N, --seed S, --csv PATH; output is
// byte-identical for any thread count).
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 1 — Mira: normalized bisection bandwidth per size", argc, argv,
      [](sweep::Runner& runner) {
        runner.run(sweep::mira_grid(core::mira_rows(&runner.engine())));
        runner.note(
            "Shape check: the proposed series doubles the current one at "
            "4, 8 and 16\nmidplanes and adds a third at 24; the series "
            "coincide elsewhere.");
      });
}
