#include "sweep/cache.hpp"

#include "bgq/policy.hpp"
#include "obs/metrics.hpp"

namespace npac::sweep {

std::shared_ptr<const std::vector<bgq::Geometry>> SweepContext::geometries(
    const bgq::Machine& machine, std::int64_t midplanes) const {
  return geometries_.get_or_compute(
      std::make_pair(machine.shape, midplanes),
      [&] { return bgq::enumerate_geometries(machine, midplanes); });
}

core::TopologyBisection SweepContext::bisection(
    const topo::TopologySpec& spec) const {
  return *topologies_.get_or_compute(
      spec.id(), [&] { return core::topology_bisection(spec); });
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
      named_stats("routing", routing_),
      named_stats("topologies", topologies_),
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

}  // namespace npac::sweep
