// Thread-safe memoization for the quantities sweeps recompute.
//
// A parameter sweep revisits the same geometries over and over: every
// scheduler replication re-enumerates the candidate cuboids of every job
// size, every routing point re-routes flows on geometries other points
// already routed, and every bound table re-evaluates Theorem 3.1 on the
// same (dims, t) pairs. Each of those is deterministic in its key, so a
// keyed cache turns a sweep's cost from grid-size x cost into
// distinct-keys x cost.
//
// Locking: one mutex guards one std::map per cache. Cache misses compute
// *outside* the lock, so concurrent misses on the same key may duplicate
// work but never serialize the pool. Values are pure functions of their
// keys, so the duplicate result is identical and the first insert wins.
// The lock is held only for a map lookup or insert; sweeps make a few
// hundred lookups against seconds of pool work (DESIGN.md #14), so a
// single lock is not a measurable serialization point.
//
// Values are stored and returned as std::shared_ptr<const Value>: a hit
// hands back a reference to the one immutable cached object instead of
// copying it, which matters for the vector-valued caches (a geometry
// enumeration is re-read once per placement decision).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "core/scheduler.hpp"
#include "iso/torus_bound.hpp"
#include "simnet/pingpong.hpp"
#include "strassen/caps.hpp"
#include "topo/descriptor.hpp"

namespace npac::obs {
class Registry;
}

namespace npac::sweep {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t lookups() const { return hits + misses; }
};

/// Cache key for one Experiment A pairing row: the two geometries plus the
/// ping-pong protocol. Default <=> over the scalar fields.
struct PairingKey {
  std::array<std::int64_t, 4> baseline{1, 1, 1, 1};
  std::array<std::int64_t, 4> proposed{1, 1, 1, 1};
  int total_rounds = 0;
  int warmup_rounds = 0;
  double bytes_per_round = 0.0;
  int chunks_per_round = 0;

  auto operator<=>(const PairingKey&) const = default;
};

/// Cache key for one simulated CAPS communication run (blocked rank map).
struct CapsKey {
  std::array<std::int64_t, 4> geometry{1, 1, 1, 1};
  std::int64_t n = 0;
  std::int64_t ranks = 0;
  int bfs_steps = 0;

  auto operator<=>(const CapsKey&) const = default;
};

/// Cache key for one ping-pong routing configuration, keyed by the
/// topology descriptor of the routed network (not a torus shape, so
/// non-torus backends share the same cache). Default <=> over the fields;
/// doubles never hold NaN here.
struct RoutingKey {
  std::string topology;  ///< topo::TopologySpec::id() of the network
  int total_rounds = 0;
  int warmup_rounds = 0;
  double bytes_per_round = 0.0;
  int chunks_per_round = 0;
  double link_bytes_per_second = 0.0;
  int tie_break = 0;
  double injection_bytes_per_second = 0.0;

  auto operator<=>(const RoutingKey&) const = default;
};

/// Generic keyed memo table: one std::map behind one mutex. Key must be
/// strict-weak-orderable. Values are immutable once inserted and shared by
/// reference count.
template <typename Key, typename Value>
class MemoCache {
 public:
  /// Returns the cached value for `key`, computing (outside the lock) and
  /// inserting it on a miss. The returned pointer is never null and stays
  /// valid for the program's lifetime or until clear(), whichever is
  /// sooner — hold the shared_ptr across clear() if in doubt.
  template <typename Fn>
  std::shared_ptr<const Value> get_or_compute(const Key& key, Fn&& compute) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        ++stats_.hits;
        return it->second;
      }
    }
    auto value = std::make_shared<const Value>(compute());
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    // First insert wins: a concurrent miss on the same key inserted an
    // identical value (values are pure in their keys) and we return it.
    return map_.emplace(key, std::move(value)).first->second;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  /// Stats and entry count read under one lock, so a snapshot taken while
  /// other threads insert never reports more entries than misses.
  std::pair<CacheStats, std::size_t> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {stats_, map_.size()};
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    stats_ = {};
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const Value>> map_;
  CacheStats stats_;
};

/// Shared memo layer handed to every task of a sweep. All methods are
/// thread-safe and return exactly what the uncached npac call would;
/// vector-valued results come back as shared_ptr<const ...> references to
/// the single cached object (never null, immutable).
class SweepContext {
 public:
  /// Theorem 3.1 lower bound (iso::torus_isoperimetric_lower_bound).
  iso::BoundResult torus_bound(const topo::Dims& dims, std::int64_t t);

  /// bgq::enumerate_geometries — the cuboid bisection search, keyed by the
  /// machine's shape (name-independent) and the job size.
  std::shared_ptr<const std::vector<bgq::Geometry>> enumerate_geometries(
      const bgq::Machine& machine, std::int64_t midplanes);

  /// Best/worst entries of the cached enumeration.
  std::optional<bgq::Geometry> best_geometry(const bgq::Machine& machine,
                                             std::int64_t midplanes);
  std::optional<bgq::Geometry> worst_geometry(const bgq::Machine& machine,
                                              std::int64_t midplanes);

  /// bgq::propose_improvement via the cached enumeration.
  std::optional<bgq::Geometry> propose_improvement(const bgq::Machine& machine,
                                                   const bgq::Geometry& current);

  /// simnet::run_pingpong on a partition geometry.
  simnet::PingPongResult pingpong(const bgq::Geometry& geometry,
                                  const simnet::PingPongConfig& config,
                                  const simnet::NetworkOptions& options);

  /// bgq::feasible_sizes, keyed by the machine's shape — the size list the
  /// best/worst and machine-design bound tables (Tables 2/5/7) iterate.
  std::shared_ptr<const std::vector<std::int64_t>> feasible_sizes(
      const bgq::Machine& machine);

  /// The Experiment A row for a geometry pair (core::make_pairing over two
  /// cached ping-pong runs), keyed by (baseline, proposed, protocol).
  core::PairingComparison pairing(const bgq::Geometry& baseline,
                                  const bgq::Geometry& proposed,
                                  const simnet::PingPongConfig& config);

  /// core::caps_comm_seconds — one simulated CAPS communication run, the
  /// cost driver of Figures 5-6.
  double caps_comm_seconds(const bgq::Geometry& geometry,
                           const strassen::CapsParams& params);

  /// core::topology_bisection, keyed by the topology descriptor id.
  core::TopologyBisection topology_bisection(const topo::TopologySpec& spec);

  /// core::topology_pairing_seconds, keyed by (descriptor id, volume).
  double topology_pairing_seconds(const topo::TopologySpec& spec,
                                  double bytes_per_pair);

  CacheStats bound_stats() const { return bounds_.stats(); }
  CacheStats geometry_stats() const { return geometries_.stats(); }
  CacheStats routing_stats() const { return routing_.stats(); }
  CacheStats feasible_stats() const { return feasible_.stats(); }
  CacheStats pairing_stats() const { return pairings_.stats(); }
  CacheStats caps_stats() const { return caps_.stats(); }
  CacheStats topology_stats() const { return topologies_.stats(); }
  CacheStats topology_routing_stats() const {
    return topology_routing_.stats();
  }

  /// Every cache's stats in display order: (name, stats, entries). The
  /// single source of truth for the runner footer and publish_metrics —
  /// adding a cache here surfaces it in both.
  struct NamedStats {
    const char* name;
    CacheStats stats;
    std::size_t entries = 0;
  };
  std::vector<NamedStats> all_stats() const;

  /// Publishes a snapshot of every cache into `registry` as gauges
  /// (`cache.<name>.hits` / `.misses` / `.entries`). Pull-based:
  /// caches pay nothing per lookup; callers publish once per report.
  void publish_metrics(obs::Registry& registry) const;

  void clear();

 private:
  MemoCache<std::pair<topo::Dims, std::int64_t>, iso::BoundResult> bounds_;
  MemoCache<std::pair<bgq::Geometry, std::int64_t>, std::vector<bgq::Geometry>>
      geometries_;
  MemoCache<RoutingKey, simnet::PingPongResult> routing_;
  MemoCache<bgq::Geometry, std::vector<std::int64_t>> feasible_;
  MemoCache<PairingKey, core::PairingComparison> pairings_;
  MemoCache<CapsKey, double> caps_;
  MemoCache<std::string, core::TopologyBisection> topologies_;
  MemoCache<std::pair<std::string, double>, double> topology_routing_;
};

/// core::PartitionOracle adapter: routes the allocator layer's layout
/// queries through a SweepContext, so a sweep's many simulate_schedule /
/// advisor calls share one cuboid enumeration per (machine, size) and one
/// sub-network bisection per layout descriptor id.
class CachedPartitionOracle final : public core::PartitionOracle {
 public:
  explicit CachedPartitionOracle(SweepContext* context) : context_(context) {}

  std::shared_ptr<const std::vector<bgq::Geometry>> geometries(
      const bgq::Machine& machine, std::int64_t midplanes) const override {
    return context_->enumerate_geometries(machine, midplanes);
  }

  core::TopologyBisection bisection(
      const topo::TopologySpec& spec) const override {
    return context_->topology_bisection(spec);
  }

 private:
  SweepContext* context_;
};

}  // namespace npac::sweep
