// Regenerates paper Figure 7: bisection-bandwidth comparison between
// JUQUEEN and the hypothetical balanced machines JUQUEEN-48 / JUQUEEN-54
// (best-case partitions everywhere).
//
// Runs on the src/sweep bench runner: per-size rows fan across the thread
// pool and the per-machine geometry enumerations are memoized
// (--threads N, --seed S, --csv PATH).
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 7 — JUQUEEN vs JUQUEEN-48 / JUQUEEN-54 best-case bisection "
      "bandwidth",
      argc, argv, [](sweep::Runner& runner) {
        runner.run(
            sweep::machine_design_grid(core::table5_rows(&runner.engine())));
        runner.note(
            "Shape check: identical at small sizes; JUQUEEN-48 reaches "
            "3072 at 36/48\nmidplanes and JUQUEEN-54 reaches 4608 at 54, "
            "while JUQUEEN plateaus at 2048\n(speedups up to x1.5 and x2 "
            "respectively, with fewer midplanes than JUQUEEN's 56).");
      });
}
