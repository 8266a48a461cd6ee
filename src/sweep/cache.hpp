// Thread-safe memoization for the quantities sweeps recompute.
//
// A parameter sweep revisits the same keys over and over: every scheduler
// replication re-enumerates the candidate cuboids of every job size, every
// dragonfly placement re-scores the same sub-network layouts, and the
// pairing figures re-route geometries other rows already routed. Each of
// those is deterministic in its key, so a keyed cache turns a sweep's cost
// from grid-size x cost into distinct-keys x cost. Only quantities a
// workload actually repeats are cached (DESIGN.md #6).
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

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "simnet/pingpong.hpp"
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

/// Shared memo layer handed to every task of a sweep, and the partition
/// oracle of every allocator the sweep builds: a scheduler sweep's many
/// simulate_schedule calls share one cuboid enumeration per (machine,
/// size) and one sub-network bisection per layout descriptor id. All
/// methods are thread-safe and return exactly what the uncached call would;
/// vector-valued results come back as shared_ptr<const ...> references to
/// the single cached object (never null, immutable).
class SweepContext final : public core::PartitionOracle {
 public:
  /// bgq::enumerate_geometries — the cuboid bisection search, keyed by the
  /// machine's shape (name-independent) and the job size.
  std::shared_ptr<const std::vector<bgq::Geometry>> geometries(
      const bgq::Machine& machine, std::int64_t midplanes) const override;

  /// core::topology_bisection, keyed by the topology descriptor id.
  core::TopologyBisection bisection(
      const topo::TopologySpec& spec) const override;

  /// simnet::run_pingpong on a partition geometry.
  simnet::PingPongResult pingpong(const bgq::Geometry& geometry,
                                  const simnet::PingPongConfig& config,
                                  const simnet::NetworkOptions& options);

  CacheStats geometry_stats() const { return geometries_.stats(); }
  CacheStats routing_stats() const { return routing_.stats(); }
  CacheStats topology_stats() const { return topologies_.stats(); }

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

 private:
  // The oracle queries are const; their memo tables are mutable, as the
  // allocators' own layout-class memo is.
  mutable MemoCache<std::pair<bgq::Geometry, std::int64_t>,
                    std::vector<bgq::Geometry>>
      geometries_;
  mutable MemoCache<std::string, core::TopologyBisection> topologies_;
  MemoCache<RoutingKey, simnet::PingPongResult> routing_;
};

}  // namespace npac::sweep
