// Regenerates paper Table 5: full list of best-case partitions in JUQUEEN
// and the proposed machines JUQUEEN-54 and JUQUEEN-48, with geometries.
//
// Runs on the src/sweep bench runner: per-size rows share the memoized
// geometry enumerations (--threads N, --seed S, --csv PATH).
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Table 5 — best-case partitions: JUQUEEN / JUQUEEN-54 / JUQUEEN-48",
      argc, argv, [](sweep::Runner& runner) {
        runner.run(
            sweep::machine_design_grid(core::table5_rows(&runner.engine())));
      });
}
