// Topology survey (paper Section 5): bisection and small-set-expansion
// profiles of the network families the method extends to, computed with
// the family-appropriate exact theory and cross-checked with the spectral
// heuristic.
//
// Runs on the src/sweep bench runner: both tables are labelled grids, so
// the shared flags apply (--threads N, --csv PATH, --filter=SUBSTR, ...).
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "iso/harper.hpp"
#include "iso/lindsey.hpp"
#include "iso/spectral.hpp"
#include "iso/torus_bound.hpp"
#include "sweep/runner.hpp"
#include "topo/dragonfly.hpp"
#include "topo/hamming.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) {
  using namespace npac;
  return sweep::Runner::main(
      "Topology survey — exact bisection vs spectral heuristic", argc, argv,
      [](sweep::Runner& runner) {
        struct Survey {
          const char* label;
          const char* name;
          topo::Graph graph;
          double exact;
        };
        std::vector<Survey> surveys;
        for (const auto& [label, name, dims] :
             {std::tuple{"torus8x8", "torus 8x8 (Thm 2.1)", topo::Dims{8, 8}},
              std::tuple{"torus16x4x2", "torus 16x4x2 (Thm 3.1)",
                         topo::Dims{16, 4, 2}},
              // ToFu-style 6-D torus (Section 5: "a high-dimensional torus
              // with certain similarities to Blue Gene/Q"); scaled down
              // from the K computer's 12 x 6 x 16 x 2 x 3 x 2 so the survey
              // stays instant.
              std::tuple{"tofu", "ToFu-style 6x4x4x2x3x2 (Thm 3.1)",
                         topo::Dims{6, 4, 4, 2, 3, 2}}}) {
          const topo::Torus torus(dims);
          surveys.push_back(
              {label, name, torus.build_graph(),
               iso::torus_isoperimetric_lower_bound(
                   dims, torus.num_vertices() / 2)
                   .value});
        }
        surveys.push_back({"hypercube", "hypercube Q8 (Harper)",
                           topo::make_hypercube(8),
                           static_cast<double>(iso::harper_cut(8, 128))});
        {
          const topo::Hamming h({8, 4, 4});
          surveys.push_back({"hyperx", "HyperX K8xK4xK4 (Lindsey)",
                             h.build_graph(), iso::hyperx_bisection(h)});
        }
        {
          const topo::Hamming h({16, 6}, {1.0, 3.0});
          surveys.push_back({"dragonfly-group",
                             "Dragonfly group K16xK6 (weighted Lindsey)",
                             h.build_graph(), iso::hyperx_bisection(h)});
        }

        sweep::BenchGrid exact;
        exact.columns = {"Topology", "N", "Exact bisection", "Spectral cut",
                         "Heuristic gap"};
        exact.rows = static_cast<std::int64_t>(surveys.size());
        exact.label = [&surveys](std::int64_t i) {
          return std::string(surveys[static_cast<std::size_t>(i)].label);
        };
        exact.cells = [&surveys](std::int64_t i, std::uint64_t) {
          const Survey& survey = surveys[static_cast<std::size_t>(i)];
          const topo::Graph& g = survey.graph;
          const double value = survey.exact;
          const auto sweep = iso::spectral_sweep_cut(g, g.num_vertices() / 2);
          return std::vector<std::string>{
              survey.name, core::format_int(g.num_vertices()),
              core::format_double(value, 0),
              core::format_double(sweep.cut_capacity, 0),
              "x" + core::format_double(sweep.cut_capacity / value, 2)};
        };
        runner.run(exact);

        runner.note(
            "Dragonfly inter-group arrangements (no exact theory; spectral "
            "estimate):");
        const std::vector<std::pair<const char*, topo::GlobalArrangement>>
            arrangements = {{"absolute", topo::GlobalArrangement::kAbsolute},
                            {"relative", topo::GlobalArrangement::kRelative},
                            {"circulant", topo::GlobalArrangement::kCirculant}};
        sweep::BenchGrid dragonfly;
        dragonfly.columns = {"Arrangement", "N", "Spectral bisection estimate"};
        dragonfly.rows = static_cast<std::int64_t>(arrangements.size());
        dragonfly.label = [&arrangements](std::int64_t i) {
          return std::string("arrangement:") +
                 arrangements[static_cast<std::size_t>(i)].first;
        };
        dragonfly.cells = [&arrangements](std::int64_t i, std::uint64_t) {
          const auto& [label, arrangement] =
              arrangements[static_cast<std::size_t>(i)];
          topo::DragonflyConfig cfg;
          cfg.a = 8;
          cfg.h = 4;
          cfg.groups = 6;
          cfg.global_ports = 1;
          cfg.arrangement = arrangement;
          const auto g = topo::make_dragonfly(cfg);
          const auto sweep = iso::spectral_sweep_cut(g, g.num_vertices() / 2);
          return std::vector<std::string>{
              label, core::format_int(g.num_vertices()),
              core::format_double(sweep.cut_capacity, 0)};
        };
        runner.run(dragonfly);
      });
}
