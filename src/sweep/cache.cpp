#include "sweep/cache.hpp"

#include "bgq/policy.hpp"
#include "obs/metrics.hpp"

namespace npac::sweep {

iso::BoundResult SweepContext::torus_bound(const topo::Dims& dims,
                                           std::int64_t t) {
  return *bounds_.get_or_compute(std::make_pair(iso::sorted_desc(dims), t),
                                 [&] {
                                   return iso::torus_isoperimetric_lower_bound(
                                       dims, t);
                                 });
}

std::shared_ptr<const std::vector<bgq::Geometry>>
SweepContext::enumerate_geometries(const bgq::Machine& machine,
                                   std::int64_t midplanes) {
  return geometries_.get_or_compute(
      std::make_pair(machine.shape, midplanes),
      [&] { return bgq::enumerate_geometries(machine, midplanes); });
}

std::optional<bgq::Geometry> SweepContext::best_geometry(
    const bgq::Machine& machine, std::int64_t midplanes) {
  const auto all = enumerate_geometries(machine, midplanes);
  if (all->empty()) return std::nullopt;
  return all->front();
}

std::optional<bgq::Geometry> SweepContext::worst_geometry(
    const bgq::Machine& machine, std::int64_t midplanes) {
  const auto all = enumerate_geometries(machine, midplanes);
  if (all->empty()) return std::nullopt;
  return all->back();
}

std::optional<bgq::Geometry> SweepContext::propose_improvement(
    const bgq::Machine& machine, const bgq::Geometry& current) {
  return bgq::propose_improvement_given_best(
      machine, current, best_geometry(machine, current.midplanes()));
}

simnet::PingPongResult SweepContext::pingpong(
    const bgq::Geometry& geometry, const simnet::PingPongConfig& config,
    const simnet::NetworkOptions& options) {
  RoutingKey key;
  key.topology = topo::TopologySpec::torus(geometry.node_dims()).id();
  key.total_rounds = config.total_rounds;
  key.warmup_rounds = config.warmup_rounds;
  key.bytes_per_round = config.bytes_per_round;
  key.chunks_per_round = config.chunks_per_round;
  key.link_bytes_per_second = options.link_bytes_per_second;
  key.tie_break = static_cast<int>(options.tie_break);
  key.injection_bytes_per_second = options.injection_bytes_per_second;
  return *routing_.get_or_compute(
      key, [&] { return simnet::run_pingpong(geometry, config, options); });
}

std::shared_ptr<const std::vector<std::int64_t>> SweepContext::feasible_sizes(
    const bgq::Machine& machine) {
  return feasible_.get_or_compute(
      machine.shape, [&] { return bgq::feasible_sizes(machine); });
}

core::PairingComparison SweepContext::pairing(
    const bgq::Geometry& baseline, const bgq::Geometry& proposed,
    const simnet::PingPongConfig& config) {
  PairingKey key;
  key.baseline = baseline.dims();
  key.proposed = proposed.dims();
  key.total_rounds = config.total_rounds;
  key.warmup_rounds = config.warmup_rounds;
  key.bytes_per_round = config.bytes_per_round;
  key.chunks_per_round = config.chunks_per_round;
  return *pairings_.get_or_compute(key, [&] {
    // Both runs go through the per-geometry routing cache, so a geometry
    // shared by several pairs (or also passed to pingpong()) is routed once.
    return core::make_pairing(baseline, proposed,
                              pingpong(baseline, config, {}),
                              pingpong(proposed, config, {}));
  });
}

double SweepContext::caps_comm_seconds(const bgq::Geometry& geometry,
                                       const strassen::CapsParams& params) {
  CapsKey key;
  key.geometry = geometry.dims();
  key.n = params.n;
  key.ranks = params.ranks;
  key.bfs_steps = params.bfs_steps;
  return *caps_.get_or_compute(
      key, [&] { return core::caps_comm_seconds(geometry, params); });
}

core::TopologyBisection SweepContext::topology_bisection(
    const topo::TopologySpec& spec) {
  return *topologies_.get_or_compute(
      spec.id(), [&] { return core::topology_bisection(spec); });
}

double SweepContext::topology_pairing_seconds(const topo::TopologySpec& spec,
                                              double bytes_per_pair) {
  return *topology_routing_.get_or_compute(
      std::make_pair(spec.id(), bytes_per_pair),
      [&] { return core::topology_pairing_seconds(spec, bytes_per_pair); });
}

namespace {

template <typename Key, typename Value>
SweepContext::NamedStats named_stats(const char* name,
                                     const MemoCache<Key, Value>& cache) {
  const auto [stats, entries] = cache.snapshot();
  return {name, stats, entries};
}

}  // namespace

std::vector<SweepContext::NamedStats> SweepContext::all_stats() const {
  return {
      named_stats("geometries", geometries_),
      named_stats("bounds", bounds_),
      named_stats("routing", routing_),
      named_stats("feasible", feasible_),
      named_stats("pairings", pairings_),
      named_stats("caps", caps_),
      named_stats("topologies", topologies_),
      named_stats("topology_routing", topology_routing_),
  };
}

void SweepContext::publish_metrics(obs::Registry& registry) const {
  for (const NamedStats& cache : all_stats()) {
    const std::string prefix = std::string("cache.") + cache.name;
    registry.gauge(prefix + ".hits")
        .set(static_cast<double>(cache.stats.hits));
    registry.gauge(prefix + ".misses")
        .set(static_cast<double>(cache.stats.misses));
    registry.gauge(prefix + ".entries")
        .set(static_cast<double>(cache.entries));
  }
}

void SweepContext::clear() {
  bounds_.clear();
  geometries_.clear();
  routing_.clear();
  feasible_.clear();
  pairings_.clear();
  caps_.clear();
  topologies_.clear();
  topology_routing_.clear();
}

}  // namespace npac::sweep
