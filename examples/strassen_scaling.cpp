// strassen_scaling — Experiment C (the strong-scaling illusion) as a
// self-contained demo, plus a real shared-memory Strassen-Winograd run so
// the kernel itself is exercised, not just its communication model.
//
// Usage:  strassen_scaling [n]    (default n = 512 for the local kernel)
//
// Part 1 multiplies two n x n matrices with the parallel Strassen-Winograd
// kernel and checks the result against classical GEMM.
// Part 2 replays the paper's Figure 6: CAPS communication time on 2/4/8
// Mira midplanes under the current vs proposed partition geometries.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "strassen/winograd.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  using Clock = std::chrono::steady_clock;

  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 512;

  // Part 1: the actual kernel.
  std::printf("— Strassen-Winograd kernel, n = %lld —\n",
              static_cast<long long>(n));
  const auto a = strassen::Matrix::random(n, n, 1);
  const auto b = strassen::Matrix::random(n, n, 2);
  auto t0 = Clock::now();
  const auto fast = strassen::strassen_winograd(a, b);
  auto t1 = Clock::now();
  const auto reference = strassen::classical_multiply(a, b);
  auto t2 = Clock::now();
  const double fast_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double classical_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  std::printf("  strassen: %.1f ms, classical: %.1f ms, max |diff| = %.2e\n\n",
              fast_ms, classical_ms,
              strassen::Matrix::max_abs_diff(fast, reference));

  // Part 2: the strong-scaling illusion (paper Figure 6, n = 9408).
  std::printf("— CAPS strong scaling on Mira (simulated), n = 9408 —\n");
  core::TextTable table({"Midplanes", "Ranks", "Comm current (ms)",
                         "Comm proposed (ms)", "Current BW", "Proposed BW"});
  for (const auto& point : core::fig6_strong_scaling()) {
    table.add_row(
        {core::format_int(point.midplanes),
         core::format_int(point.params.ranks),
         core::format_double(point.current_comm_seconds * 1e3, 2),
         core::format_double(point.proposed_comm_seconds * 1e3, 2),
         core::format_int(bgq::normalized_bisection(point.current)),
         core::format_int(bgq::normalized_bisection(point.proposed))});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nReading: under the current geometries the 2->4 midplane step "
      "cannot speed up\n(equal bisection bandwidth) — an algorithm that "
      "scales perfectly looks like it\nstops scaling. The proposed "
      "geometries restore the linear trend.");

  // Per-phase profiles of one run on both geometries. BFS step 0 is the
  // only phase that crosses the full-partition bisection: on the proposed
  // geometry it is a small slice, on the stretched current geometry its
  // cost doubles — that difference *is* the avoidable contention.
  for (const bgq::Geometry& g :
       {bgq::Geometry(4, 1, 1, 1), bgq::Geometry(2, 2, 1, 1)}) {
    std::printf("\n— per-phase profile: 4 midplanes, %s —\n",
                g.to_string().c_str());
    const simnet::TorusNetwork network(g.node_torus());
    const simmpi::RankMap map(4802, network.torus().num_vertices());
    const simmpi::Communicator comm(&network, map);
    simmpi::Timeline timeline;
    strassen::simulate_caps_communication(comm, {9408, 4802, 4}, &timeline);
    std::fputs(core::render_timeline(timeline).c_str(), stdout);
  }
  return 0;
}
