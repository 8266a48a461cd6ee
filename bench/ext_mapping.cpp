// Extension bench (Related Work [10]): task mapping composes with
// partition geometry. The CAPS communication schedule is simulated under
// blocked (ABCDE), strided and random rank-to-node mappings on both the
// current and proposed 4-midplane geometries.
//
// Runs on the src/sweep bench runner: the (geometry x mapping) grid runs
// in order, its routing on the kernel pool; the blocked baseline of each
// geometry is simulated once, before the grid runs, rather than once per
// row (--threads N, --seed S, --csv PATH).
#include "simmpi/communicator.hpp"
#include "strassen/caps.hpp"
#include "sweep/runner.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Extension — task mapping x partition geometry, CAPS n = 9408, 2401 "
      "ranks, 4 BFS steps",
      argc, argv, [](sweep::Runner& runner) {
        const strassen::CapsParams params{9408, 2401, 4};
        const std::vector<bgq::Geometry> geometries = {
            bgq::Geometry(4, 1, 1, 1), bgq::Geometry(2, 2, 1, 1)};
        const std::vector<std::pair<const char*, simmpi::MappingStrategy>>
            mappings = {{"blocked", simmpi::MappingStrategy::kBlocked},
                        {"strided", simmpi::MappingStrategy::kStrided},
                        {"random", simmpi::MappingStrategy::kRandom}};

        // The blocked mapping is RankMap's default placement, so its
        // simulation is exactly core::caps_comm_seconds.
        std::vector<double> blocked(geometries.size());
        runner.engine().parallel_for(
            static_cast<std::int64_t>(geometries.size()), [&](std::int64_t g) {
              blocked[static_cast<std::size_t>(g)] =
                  runner.engine().caps_comm_seconds(
                      geometries[static_cast<std::size_t>(g)], params);
            });

        sweep::BenchGrid grid;
        grid.columns = {"Geometry", "Mapping", "Comm (s)", "vs blocked"};
        grid.rows = static_cast<std::int64_t>(geometries.size() *
                                              mappings.size());
        grid.cells = [&](std::int64_t i, std::uint64_t) {
          const auto g = static_cast<std::size_t>(
              i / static_cast<std::int64_t>(mappings.size()));
          const auto& geometry = geometries[g];
          const auto& [label, strategy] = mappings[static_cast<std::size_t>(
              i % static_cast<std::int64_t>(mappings.size()))];
          const double blocked_seconds = blocked[g];
          double seconds = blocked_seconds;
          if (strategy != simmpi::MappingStrategy::kBlocked) {
            const simnet::TorusNetwork net(geometry.node_torus());
            const simmpi::Communicator comm(
                &net, simmpi::RankMap::with_mapping(
                          params.ranks, net.torus().num_vertices(), strategy,
                          1));
            seconds = strassen::simulate_caps_communication(comm, params);
          }
          return std::vector<std::string>{
              geometry.to_string(), label, core::format_double(seconds, 4),
              "x" + core::format_double(seconds / blocked_seconds, 2)};
        };
        runner.run(grid);

        runner.note(
            "Reading: mapping composes with geometry. A *random* mapping "
            "squanders part of\nwhat the better geometry buys (deep-step "
            "groups get dragged across the whole\ntorus), while the "
            "regular *strided* mapping slightly helps by load-balancing "
            "the\nstep-0 redistribution, like a block-cyclic distribution. "
            "Topology-aware mapping\n(Bhatele et al. [10]) and bisection-"
            "aware allocation are complementary knobs,\nnot "
            "interchangeable ones.");
      });
}
