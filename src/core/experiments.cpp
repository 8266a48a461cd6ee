#include "core/experiments.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/allocator.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/traffic.hpp"
#include "topo/fattree.hpp"

namespace npac::core {

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::shared_ptr<const std::vector<std::int64_t>> ExperimentEngine::feasible_sizes(
    const bgq::Machine& machine) {
  return std::make_shared<const std::vector<std::int64_t>>(
      bgq::feasible_sizes(machine));
}

std::optional<bgq::Geometry> ExperimentEngine::best_geometry(
    const bgq::Machine& machine, std::int64_t midplanes) {
  const auto all = partition_oracle().geometries(machine, midplanes);
  if (all->empty()) return std::nullopt;
  return all->front();
}

std::optional<bgq::Geometry> ExperimentEngine::worst_geometry(
    const bgq::Machine& machine, std::int64_t midplanes) {
  const auto all = partition_oracle().geometries(machine, midplanes);
  if (all->empty()) return std::nullopt;
  return all->back();
}

std::optional<bgq::Geometry> ExperimentEngine::propose_improvement(
    const bgq::Machine& machine, const bgq::Geometry& current) {
  return bgq::propose_improvement_given_best(
      machine, current, best_geometry(machine, current.midplanes()));
}

simnet::PingPongResult ExperimentEngine::pingpong(
    const bgq::Geometry& geometry, const simnet::PingPongConfig& config) {
  return simnet::run_pingpong(geometry, config);
}

PairingComparison ExperimentEngine::pairing(
    const bgq::Geometry& baseline, const bgq::Geometry& proposed,
    const simnet::PingPongConfig& config) {
  PairingComparison cmp;
  cmp.midplanes = baseline.midplanes();
  cmp.baseline = baseline;
  cmp.proposed = proposed;
  cmp.baseline_result = pingpong(baseline, config);
  cmp.proposed_result = pingpong(proposed, config);
  cmp.speedup = cmp.baseline_result.measured_seconds /
                cmp.proposed_result.measured_seconds;
  cmp.predicted_speedup = bgq::predicted_speedup(baseline, proposed);
  return cmp;
}

double ExperimentEngine::caps_comm_seconds(const bgq::Geometry& geometry,
                                           const strassen::CapsParams& params) {
  return core::caps_comm_seconds(geometry, params);
}

TopologyBisection ExperimentEngine::topology_bisection(
    const topo::TopologySpec& spec) {
  return partition_oracle().bisection(spec);
}

double ExperimentEngine::topology_pairing_seconds(
    const topo::TopologySpec& spec, double bytes_per_pair) {
  return core::topology_pairing_seconds(spec, bytes_per_pair);
}

const PartitionOracle& ExperimentEngine::partition_oracle() {
  return default_partition_oracle();
}

void ExperimentEngine::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

ExperimentEngine& serial_engine() {
  static ExperimentEngine engine;
  return engine;
}

namespace {

ExperimentEngine& resolve(ExperimentEngine* engine) {
  return engine != nullptr ? *engine : serial_engine();
}

bgq::Geometry require_best(ExperimentEngine& engine,
                           const bgq::Machine& machine,
                           std::int64_t midplanes) {
  const auto best = engine.best_geometry(machine, midplanes);
  if (!best) {
    throw std::logic_error("no feasible geometry for requested size");
  }
  return *best;
}

/// One Table 6 row from a scheduler entry and the engine's
/// propose_improvement result for it.
MiraRow make_mira_row(const bgq::PolicyEntry& entry,
                      std::optional<bgq::Geometry> proposed) {
  MiraRow row;
  row.midplanes = entry.midplanes;
  row.nodes = entry.geometry.nodes();
  row.current = entry.geometry;
  row.current_bw = bgq::normalized_bisection(entry.geometry);
  row.proposed = std::move(proposed);
  row.proposed_bw =
      row.proposed ? bgq::normalized_bisection(*row.proposed) : row.current_bw;
  return row;
}

}  // namespace

double caps_comm_seconds(const bgq::Geometry& geometry,
                         const strassen::CapsParams& params) {
  const simnet::TorusNetwork network(geometry.node_torus());
  const simmpi::RankMap map(params.ranks, network.torus().num_vertices());
  const simmpi::Communicator comm(&network, map);
  return strassen::simulate_caps_communication(comm, params);
}

std::vector<MiraRow> mira_rows(ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  const bgq::Machine machine = bgq::mira();
  const auto entries = bgq::mira_scheduler_partitions();
  std::vector<MiraRow> rows(entries.size());
  e.parallel_for(static_cast<std::int64_t>(entries.size()),
                 [&](std::int64_t i) {
                   const auto& entry = entries[static_cast<std::size_t>(i)];
                   rows[static_cast<std::size_t>(i)] = make_mira_row(
                       entry, e.propose_improvement(machine, entry.geometry));
                 });
  return rows;
}

std::vector<MiraRow> table1_rows(ExperimentEngine* engine) {
  std::vector<MiraRow> rows;
  for (const MiraRow& row : mira_rows(engine)) {
    if (row.proposed) rows.push_back(row);
  }
  return rows;
}

namespace {

/// One best/worst row per feasible size of a free-cuboid machine (the
/// Table 7 method).
std::vector<BestWorstRow> best_worst_rows(const bgq::Machine& machine,
                                          ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  const auto sizes = e.feasible_sizes(machine);
  std::vector<BestWorstRow> rows(sizes->size());
  e.parallel_for(
      static_cast<std::int64_t>(sizes->size()), [&](std::int64_t i) {
        const std::int64_t size = (*sizes)[static_cast<std::size_t>(i)];
        BestWorstRow row;
        row.midplanes = size;
        row.nodes = size * bgq::kNodesPerMidplane;
        row.worst = *e.worst_geometry(machine, size);
        row.worst_bw = bgq::normalized_bisection(row.worst);
        row.best = *e.best_geometry(machine, size);
        row.best_bw = bgq::normalized_bisection(row.best);
        rows[static_cast<std::size_t>(i)] = row;
      });
  return rows;
}

}  // namespace

std::vector<BestWorstRow> juqueen_rows(ExperimentEngine* engine) {
  return best_worst_rows(bgq::juqueen(), engine);
}

std::vector<BestWorstRow> table2_rows(ExperimentEngine* engine) {
  std::vector<BestWorstRow> rows;
  for (const BestWorstRow& row : juqueen_rows(engine)) {
    if (row.best_bw != row.worst_bw) rows.push_back(row);
  }
  return rows;
}

std::vector<BestWorstRow> sequoia_rows(ExperimentEngine* engine) {
  return best_worst_rows(bgq::sequoia(), engine);
}

std::vector<BestWorstRow> sequoia_improvable_rows(ExperimentEngine* engine) {
  std::vector<BestWorstRow> rows;
  for (const BestWorstRow& row : sequoia_rows(engine)) {
    if (row.best_bw != row.worst_bw) rows.push_back(row);
  }
  return rows;
}

std::vector<MachineDesignRow> table5_rows(ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  const bgq::Machine jq = bgq::juqueen();
  const bgq::Machine j54 = bgq::juqueen54();
  const bgq::Machine j48 = bgq::juqueen48();

  std::vector<std::int64_t> sizes;
  {
    std::vector<std::int64_t> all;
    for (const bgq::Machine& m : {jq, j54, j48}) {
      const auto feasible = e.feasible_sizes(m);
      all.insert(all.end(), feasible->begin(), feasible->end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    sizes = std::move(all);
  }

  std::vector<MachineDesignRow> rows(sizes.size());
  e.parallel_for(
      static_cast<std::int64_t>(sizes.size()), [&](std::int64_t i) {
        const std::int64_t size = sizes[static_cast<std::size_t>(i)];
        MachineDesignRow row;
        row.midplanes = size;
        if (auto g = e.best_geometry(jq, size)) {
          row.juqueen = g;
          row.juqueen_bw = bgq::normalized_bisection(*g);
        }
        if (auto g = e.best_geometry(j54, size)) {
          row.j54 = g;
          row.j54_bw = bgq::normalized_bisection(*g);
        }
        if (auto g = e.best_geometry(j48, size)) {
          row.j48 = g;
          row.j48_bw = bgq::normalized_bisection(*g);
        }
        rows[static_cast<std::size_t>(i)] = row;
      });
  return rows;
}

double topology_pairing_seconds(const topo::TopologySpec& spec,
                                double bytes_per_pair) {
  const auto network = simnet::make_network(spec);
  std::vector<simnet::Flow> flows;
  if (spec.kind() == topo::TopologySpec::Kind::kTorus) {
    flows = simnet::furthest_node_pairing(topo::Torus(spec.dims()),
                                          bytes_per_pair);
  } else {
    // Id-shift pairing h <-> h + H/2: a permutation that pushes the full
    // pairwise volume across the id-space bisection (the generators number
    // vertices so the top id bit is a natural cut: hypercube top bit,
    // Hamming largest factor, dragonfly group halves, fat-tree pods).
    // Unlike a per-source BFS-furthest peer, a permutation creates no
    // ejection hotspots, keeping the comparison about link contention.
    const std::int64_t hosts = spec.num_hosts();
    for (std::int64_t h = 0; h < hosts; ++h) {
      flows.push_back({h, (h + hosts / 2) % hosts, bytes_per_pair});
    }
  }
  return network->completion_seconds(flows);
}

std::vector<TopologyDesignCase> topology_design_cases(bool fast) {
  using topo::TopologySpec;
  std::vector<TopologyDesignCase> cases;
  const auto add_tier = [&cases](const std::string& tier,
                                 const topo::Dims& torus_dims,
                                 int hypercube_n, topo::Dims hamming_dims,
                                 const topo::DragonflyConfig& dragonfly,
                                 std::int64_t fat_tree_k) {
    // Every member of a tier is priced at the tier's BG/Q torus link
    // budget, so the pairing column compares equal-cost machines.
    const double budget =
        static_cast<double>(topo::Torus(torus_dims).expected_num_edges());
    cases.push_back({tier, TopologySpec::torus(torus_dims), budget});
    cases.push_back({tier, TopologySpec::hypercube(hypercube_n), budget});
    cases.push_back(
        {tier, TopologySpec::hamming(std::move(hamming_dims)), budget});
    cases.push_back({tier, TopologySpec::dragonfly(dragonfly), budget});
    cases.push_back({tier, TopologySpec::fat_tree(fat_tree_k), budget});
  };

  const auto dragonfly = [](std::int64_t a, std::int64_t h,
                            std::int64_t groups) {
    topo::DragonflyConfig config;  // Aries-style 1x/3x/4x capacities
    config.a = a;
    config.h = h;
    config.groups = groups;
    config.global_ports = 1;
    return config;
  };

  // One BG/Q midplane, its doubling, and its quadrupling, each against the
  // closest same-size members of the other families (the fat-tree host
  // count is the nearest even-radix k^3/4).
  add_tier("512", {4, 4, 4, 4, 2}, 9, {8, 8, 8}, dragonfly(8, 4, 16), 12);
  if (fast) return cases;
  add_tier("1024", {8, 4, 4, 4, 2}, 10, {16, 8, 8}, dragonfly(8, 8, 16), 16);
  add_tier("2048", {8, 8, 4, 4, 2}, 11, {16, 16, 8}, dragonfly(16, 8, 16),
           20);
  return cases;
}

TopologyDesignRow topology_design_row(const TopologyDesignCase& design_case,
                                      ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  TopologyDesignRow row;
  row.design_case = design_case;
  const topo::Graph graph = design_case.spec.build();
  row.vertices = graph.num_vertices();
  row.hosts = design_case.spec.num_hosts();
  row.edges = static_cast<std::int64_t>(graph.num_edges());
  row.link_capacity_total = graph.total_capacity();
  row.bisection = e.topology_bisection(design_case.spec);
  const double raw =
      e.topology_pairing_seconds(design_case.spec, kTopologyPairingBytes);
  row.pairing_seconds =
      raw * (row.link_capacity_total / design_case.link_budget);
  return row;
}

simnet::PingPongConfig paper_pingpong_config() {
  simnet::PingPongConfig config;
  config.total_rounds = 30;
  config.warmup_rounds = 4;
  config.bytes_per_round = 2147483648.0;  // 2 GiB; 16 chunks of 0.1342 GB
  config.chunks_per_round = 16;
  return config;
}

std::vector<PairingComparison> fig3_mira_pairing(
    const simnet::PingPongConfig& config, ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  const auto improved = table1_rows(engine);
  std::vector<PairingComparison> result(improved.size());
  e.parallel_for(static_cast<std::int64_t>(improved.size()),
                 [&](std::int64_t i) {
                   const MiraRow& row = improved[static_cast<std::size_t>(i)];
                   result[static_cast<std::size_t>(i)] =
                       e.pairing(row.current, *row.proposed, config);
                 });
  return result;
}

std::vector<PairingComparison> fig4_juqueen_pairing(
    const simnet::PingPongConfig& config, ExperimentEngine* engine) {
  ExperimentEngine& e = resolve(engine);
  const bgq::Machine machine = bgq::juqueen();
  const std::vector<std::int64_t> sizes = {4, 6, 8, 12, 16};
  std::vector<PairingComparison> result(sizes.size());
  e.parallel_for(static_cast<std::int64_t>(sizes.size()),
                 [&](std::int64_t i) {
                   const std::int64_t size = sizes[static_cast<std::size_t>(i)];
                   const bgq::Geometry worst = *e.worst_geometry(machine, size);
                   const bgq::Geometry best = require_best(e, machine, size);
                   result[static_cast<std::size_t>(i)] =
                       e.pairing(worst, best, config);
                 });
  return result;
}

namespace {

/// One Figure 5/6 size: the CAPS problem and the paper's measured
/// computation time (geometry-independent).
struct CapsCase {
  std::int64_t midplanes;
  std::int64_t ranks;
  std::int64_t n;
  double computation_seconds;
};

/// The Figure 5/6 loop: each size's Mira scheduler-list geometry against
/// its best geometry, both priced by a simulated CAPS run. `Point` is
/// MatmulComparison or ScalingPoint, which share these fields.
template <typename Point>
std::vector<Point> caps_points(const char* figure,
                               const std::vector<CapsCase>& cases,
                               int bfs_steps, ExperimentEngine& e) {
  const bgq::Machine machine = bgq::mira();
  const auto list = bgq::mira_scheduler_partitions();
  std::vector<Point> result(cases.size());
  e.parallel_for(static_cast<std::int64_t>(cases.size()), [&](std::int64_t i) {
    const CapsCase& c = cases[static_cast<std::size_t>(i)];
    Point point;
    point.midplanes = c.midplanes;
    point.params = {c.n, c.ranks, bfs_steps};
    point.paper_computation_seconds = c.computation_seconds;

    const auto it = std::find_if(list.begin(), list.end(),
                                 [&](const bgq::PolicyEntry& entry) {
                                   return entry.midplanes == c.midplanes;
                                 });
    if (it == list.end()) {
      throw std::logic_error(std::string(figure) +
                             ": size missing from Mira scheduler list");
    }
    point.current = it->geometry;
    point.proposed = require_best(e, machine, c.midplanes);
    point.current_comm_seconds =
        e.caps_comm_seconds(point.current, point.params);
    // Where only one geometry fits (Figure 6's 2-midplane point) the
    // current run already priced the proposed one.
    point.proposed_comm_seconds =
        point.proposed == point.current
            ? point.current_comm_seconds
            : e.caps_comm_seconds(point.proposed, point.params);
    result[static_cast<std::size_t>(i)] = point;
  });
  return result;
}

}  // namespace

std::vector<MatmulComparison> fig5_matmul(int bfs_steps,
                                          ExperimentEngine* engine) {
  auto result = caps_points<MatmulComparison>("fig5",
                                              {
                                                  {4, 31213, 32928, 0.554},
                                                  {8, 31213, 32928, 0.5115},
                                                  {16, 31213, 32928, 0.4965},
                                                  {24, 117649, 21952, 0.0604},
                                              },
                                              bfs_steps, resolve(engine));
  for (MatmulComparison& cmp : result) {
    cmp.comm_speedup = cmp.current_comm_seconds / cmp.proposed_comm_seconds;
  }
  return result;
}

std::vector<ScalingPoint> fig6_strong_scaling(int bfs_steps,
                                              ExperimentEngine* engine) {
  return caps_points<ScalingPoint>("fig6",
                                   {
                                       {2, 2401, 9408, 9.84e-2},
                                       {4, 4802, 9408, 4.21e-2},
                                       {8, 9604, 9408, 2.98e-2},
                                   },
                                   bfs_steps, resolve(engine));
}

}  // namespace npac::core
