// Extension bench (paper footnote 1 / related work [18]): multi-tenant
// interference. Two tenants share one torus, each running Experiment A's
// pairing among its own nodes; compact cuboid allocations are network-
// disjoint, interleaved (cloud-style) allocations collide.
//
// Runs on the src/sweep bench runner: the (host torus x layout) grid runs
// in order, its routing on the kernel pool (--threads N, --seed S,
// --csv PATH).
#include "bgq/geometry.hpp"
#include "simnet/interference.hpp"
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — two-tenant interference, furthest-node pairing with "
      "0.1342 GB messages",
      argc, argv, [](sweep::Runner& runner) {
        struct Point {
          bgq::Geometry geometry;
          const char* label;
          simnet::TenantLayout layout;
        };
        const std::vector<Point> points = {
            {bgq::Geometry(2, 2, 1, 1), "compact",
             simnet::TenantLayout::kCompact},
            {bgq::Geometry(2, 2, 1, 1), "interleaved",
             simnet::TenantLayout::kInterleaved},
            {bgq::Geometry(4, 2, 1, 1), "compact",
             simnet::TenantLayout::kCompact},
            {bgq::Geometry(4, 2, 1, 1), "interleaved",
             simnet::TenantLayout::kInterleaved},
        };
        const double bytes = 0.1342e9;

        sweep::BenchGrid grid;
        grid.columns = {"Host torus",  "Layout",     "Alone A (s)",
                        "Alone B (s)", "Shared (s)", "Interference"};
        grid.rows = static_cast<std::int64_t>(points.size());
        grid.cells = [&points, bytes](std::int64_t i, std::uint64_t) {
          const Point& point = points[static_cast<std::size_t>(i)];
          const simnet::TorusNetwork network(point.geometry.node_torus());
          const auto report = simnet::tenant_pairing_interference(
              network, point.layout, bytes);
          return std::vector<std::string>{
              network.torus().to_string(), point.label,
              core::format_double(report.alone_seconds_a, 3),
              core::format_double(report.alone_seconds_b, 3),
              core::format_double(report.shared_seconds, 3),
              "x" + core::format_double(report.interference_factor, 2)};
        };
        runner.run(grid);

        runner.note(
            "Reading: compact cuboid allocations never interfere (x1.00) "
            "— minimal routes\nstay inside a convex region, the property "
            "that lets Blue Gene/Q isolate jobs by\ncuboid. A scattered "
            "tenant is *faster alone* (it borrows the idle neighbour's\n"
            "links) but collides once the neighbour wakes up (x2) — the "
            "multi-tenant\nvariability the paper's footnote 1 excludes and "
            "Jain et al. [18] attack with\nnetwork partitioning. Note the "
            "embedded compact interval is itself slower than\na real "
            "partition of that shape: it has no wrap-around links, which "
            "is exactly\nwhy Blue Gene/Q partitions are built with their "
            "own.");
      });
}
