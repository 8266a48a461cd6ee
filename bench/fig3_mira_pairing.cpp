// Regenerates paper Figure 3: the bisection-pairing experiment on Mira
// (4 warm-up + 26 measured rounds, 2 GiB per pair per round in 16 chunks,
// 2 GB/s/direction links), current vs proposed geometries, on the
// flow-level contention simulator.
//
// Runs on the src/sweep bench runner: the per-size pairing rows fan across
// the thread pool, and each geometry's ping-pong run is memoized
// (--threads N, --seed S, --csv PATH).
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Figure 3 — Mira bisection pairing (simulated), 26 measured rounds "
      "x 2 GiB",
      argc, argv, [](sweep::Runner& runner) {
        runner.run(sweep::pairing_grid(core::fig3_mira_pairing(
            core::paper_pingpong_config(), &runner.engine())));
        runner.note(
            "Paper: measured speedup >= 1.92 where predicted 2.00; 1.44 "
            "(pred. 1.50) at 24\nmidplanes. The fluid model realizes the "
            "bisection-ratio prediction exactly.");
      });
}
