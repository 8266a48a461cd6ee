// Extension bench (paper Future Work): geometry sensitivity of N-body,
// FFT and halo-exchange kernels.
//
// Section 5 predicts direct N-body feels the internal bisection more than
// fast matrix multiplication, and stencils not at all. The flow simulator
// quantifies the spectrum on the paper's 4-, 8- and 24-midplane geometry
// pairs.
//
// Runs on the src/sweep bench runner: the per-pair sensitivity analyses
// run in order and their routing fans out on the kernel pool (--threads N,
// --seed S, --csv PATH). Rows are labelled mp4 / mp8 / mp24 for --filter.
#include "apps/kernels.hpp"
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — kernel sensitivity to partition geometry (time_worst / "
      "time_best)",
      argc, argv, [](sweep::Runner& runner) {
        struct Pair {
          const char* label;
          bgq::Geometry worse;
          bgq::Geometry better;
        };
        const std::vector<Pair> pairs = {
            {"4 mp: 4x1x1x1 vs 2x2x1x1", bgq::Geometry(4, 1, 1, 1),
             bgq::Geometry(2, 2, 1, 1)},
            {"8 mp: 4x2x1x1 vs 2x2x2x1", bgq::Geometry(4, 2, 1, 1),
             bgq::Geometry(2, 2, 2, 1)},
            {"24 mp: 4x3x2x1 vs 3x2x2x2", bgq::Geometry(4, 3, 2, 1),
             bgq::Geometry(3, 2, 2, 2)},
        };

        sweep::BenchGrid grid;
        grid.columns = {"Pair", "Bisection ratio", "N-body", "FFT", "Halo"};
        grid.rows = static_cast<std::int64_t>(pairs.size());
        grid.label = [&pairs](std::int64_t i) {
          const Pair& pair = pairs[static_cast<std::size_t>(i)];
          return "mp" + std::to_string(pair.worse.midplanes());
        };
        grid.cells = [&pairs](std::int64_t i, std::uint64_t) {
          const Pair& pair = pairs[static_cast<std::size_t>(i)];
          const auto s = apps::kernel_sensitivity(pair.worse, pair.better,
                                                  /*nbody_bodies=*/1 << 20,
                                                  /*fft_points=*/1 << 24);
          return std::vector<std::string>{
              pair.label, "x" + core::format_double(s.bisection_ratio, 2),
              "x" + core::format_double(s.nbody, 2),
              "x" + core::format_double(s.fft, 2),
              "x" + core::format_double(s.halo, 2)};
        };
        runner.run(grid);

        runner.note(
            "Reading: all-to-all N-body realizes the entire bisection "
            "ratio (the paper's\nprediction of larger speedups than the "
            "x1.37-1.52 CAPS saw); the FFT butterfly\nrealizes part of it; "
            "the nearest-neighbour halo is geometry-immune. Compare\n"
            "bench_fig5_matmul_comm for where CAPS lands in between.");
      });
}
