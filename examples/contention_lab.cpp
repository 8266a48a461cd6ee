// contention_lab — drive the flow-level contention simulator over an
// arbitrary partition geometry and several traffic patterns, printing the
// max-channel load and the fluid-model completion time of each.
//
// Usage:
//   contention_lab              # defaults to the 2 x 2 x 1 x 1 geometry
//   contention_lab 4 1 1 1      # midplane dimensions
//
// This is the tool to poke at "what does the network feel like inside this
// partition": the furthest-node pairing saturates the bisection, the halo
// exchange shows the contention-free floor, and random permutations land
// in between.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bgq/bisection.hpp"
#include "core/report.hpp"
#include "simnet/network.hpp"
#include "simnet/traffic.hpp"

int main(int argc, char** argv) {
  using namespace npac;

  bgq::Geometry geometry(2, 2, 1, 1);
  if (argc == 5) {
    geometry = bgq::Geometry(std::atoll(argv[1]), std::atoll(argv[2]),
                             std::atoll(argv[3]), std::atoll(argv[4]));
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [A B C D]\n", argv[0]);
    return 2;
  }

  const topo::Torus torus = geometry.node_torus();
  std::printf("Partition %s: node torus ", geometry.to_string().c_str());
  std::printf("%s (%lld nodes), normalized bisection %lld links\n\n",
              torus.to_string().c_str(),
              static_cast<long long>(torus.num_vertices()),
              static_cast<long long>(bgq::normalized_bisection(geometry)));

  const simnet::TorusNetwork network(torus);
  const double bytes = 0.1342e9;  // the paper's chunk size

  struct Row {
    const char* pattern;
    std::int64_t flows;
    double max_load;
    double seconds;
  };
  std::vector<Row> rows;
  const auto price_flows = [&](const char* pattern,
                               const std::vector<simnet::Flow>& flows) {
    const auto loads = network.route_all(flows);
    const double max_load = loads.max_load();
    rows.push_back({pattern, static_cast<std::int64_t>(flows.size()), max_load,
                    network.completion_seconds(loads, max_load, flows)});
  };
  price_flows("furthest-node pairing",
              simnet::furthest_node_pairing(torus, bytes));
  price_flows("random permutation",
              simnet::random_permutation(torus, bytes, 1));
  // All-to-all is priced in closed form, without building its N^2 flows.
  const simnet::GroupExchange all_to_all =
      simnet::uniform_all_to_all(torus, bytes);
  const auto loads = network.route_exchange(all_to_all);
  const double max_load = loads.max_load();
  rows.push_back({"uniform all-to-all", all_to_all.node_pairs(), max_load,
                  network.exchange_seconds(loads, max_load, all_to_all)});
  price_flows("nearest-neighbor halo",
              simnet::nearest_neighbor_halo(torus, bytes));

  core::TextTable table(
      {"Pattern", "Flows", "Max channel (MB)", "Time (ms)", "vs halo"});
  const double halo_seconds = rows.back().seconds;
  for (const Row& row : rows) {
    table.add_row({row.pattern, core::format_int(row.flows),
                   core::format_double(row.max_load / 1e6, 1),
                   core::format_double(row.seconds * 1e3, 2),
                   "x" + core::format_double(row.seconds / halo_seconds, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nThe pairing / halo ratio is the contention penalty of "
      "bisection-crossing traffic in this geometry.");
  return 0;
}
