// Memo-layer tests: cached values equal their uncached counterparts, hits
// and misses are counted, concurrent access is safe, and the SweepEngine
// hooks that read the context as their partition oracle agree with bgq.
#include "sweep/cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "bgq/bisection.hpp"
#include "bgq/machine.hpp"
#include "bgq/policy.hpp"
#include "sweep/pool.hpp"
#include "sweep/runner.hpp"

namespace npac::sweep {
namespace {

TEST(MemoCacheTest, CountsHitsAndMisses) {
  MemoCache<int, int> cache;
  EXPECT_EQ(*cache.get_or_compute(1, [] { return 10; }), 10);
  EXPECT_EQ(*cache.get_or_compute(1, [] { return 99; }), 10);  // cached value
  EXPECT_EQ(*cache.get_or_compute(2, [] { return 20; }), 20);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.lookups(), 3u);
  EXPECT_EQ(cache.size(), 2u);
  const auto [snapshot_stats, snapshot_entries] = cache.snapshot();
  EXPECT_EQ(snapshot_stats.misses, 2u);
  EXPECT_EQ(snapshot_entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
}

TEST(MemoCacheTest, HitsShareOneObjectInsteadOfCopying) {
  MemoCache<int, std::vector<int>> cache;
  const auto first =
      cache.get_or_compute(7, [] { return std::vector<int>{1, 2, 3}; });
  const auto second =
      cache.get_or_compute(7, [] { return std::vector<int>{9, 9, 9}; });
  // A hit hands back the same immutable object, not a copy of it.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(*second, (std::vector<int>{1, 2, 3}));
  // The returned reference outlives clear(): values are shared, not owned
  // by the table alone.
  cache.clear();
  EXPECT_EQ(*first, (std::vector<int>{1, 2, 3}));
}

TEST(SweepContextTest, EnumerationMatchesDirectAndCaches) {
  SweepContext context;
  const bgq::Machine machine = bgq::mira();
  for (const std::int64_t size : {4, 8, 16, 24}) {
    EXPECT_EQ(*context.geometries(machine, size),
              bgq::enumerate_geometries(machine, size))
        << "size " << size;
  }
  EXPECT_EQ(context.geometry_stats().misses, 4u);
  context.geometries(machine, 4);
  EXPECT_EQ(context.geometry_stats().hits, 1u);
}

TEST(SweepEngineTest, BestWorstMatchDirect) {
  SweepContext context;
  ThreadPool pool(1);
  SweepEngine engine(context, pool);
  const bgq::Machine machine = bgq::juqueen();
  for (const std::int64_t size : bgq::feasible_sizes(machine)) {
    EXPECT_EQ(engine.best_geometry(machine, size),
              bgq::best_geometry(machine, size));
    EXPECT_EQ(engine.worst_geometry(machine, size),
              bgq::worst_geometry(machine, size));
  }
  // Infeasible size: empty everywhere.
  EXPECT_FALSE(engine.best_geometry(machine, 9).has_value());
  EXPECT_FALSE(bgq::best_geometry(machine, 9).has_value());
  // The hooks read the context's enumeration table.
  EXPECT_GT(context.geometry_stats().hits, 0u);
}

TEST(SweepEngineTest, ProposeImprovementMatchesDirect) {
  SweepContext context;
  ThreadPool pool(1);
  SweepEngine engine(context, pool);
  const bgq::Machine machine = bgq::mira();
  for (const bgq::PolicyEntry& entry : bgq::mira_scheduler_partitions()) {
    EXPECT_EQ(engine.propose_improvement(machine, entry.geometry),
              bgq::propose_improvement(machine, entry.geometry))
        << entry.geometry.to_string();
  }
  EXPECT_THROW(engine.propose_improvement(bgq::juqueen(),
                                          bgq::Geometry(4, 4, 1, 1)),
               std::invalid_argument);
}

TEST(SweepContextTest, PingpongMatchesDirectPerTieBreak) {
  SweepContext context;
  simnet::PingPongConfig config;
  config.total_rounds = 2;
  config.warmup_rounds = 1;
  const bgq::Geometry geometry(2, 1, 1, 1);
  for (const simnet::TieBreak tie :
       {simnet::TieBreak::kSplit, simnet::TieBreak::kPositive}) {
    simnet::NetworkOptions options;
    options.tie_break = tie;
    const auto cached = context.pingpong(geometry, config, options);
    const auto direct = simnet::run_pingpong(geometry, config, options);
    EXPECT_DOUBLE_EQ(cached.measured_seconds, direct.measured_seconds);
    EXPECT_DOUBLE_EQ(cached.total_seconds, direct.total_seconds);
  }
  // The two tie-breaks are distinct keys, so two misses — and a repeat hits.
  EXPECT_EQ(context.routing_stats().misses, 2u);
  simnet::NetworkOptions options;
  options.tie_break = simnet::TieBreak::kSplit;
  context.pingpong(geometry, config, options);
  EXPECT_EQ(context.routing_stats().hits, 1u);
}

TEST(SweepContextTest, OracleMatchesDefaultOracle) {
  SweepContext context;
  const core::PartitionOracle& cached = context;
  const core::PartitionOracle& plain = core::default_partition_oracle();
  const bgq::Machine machine = bgq::mira();
  for (const std::int64_t size : {1, 2, 4, 8, 16}) {
    EXPECT_EQ(*cached.geometries(machine, size),
              *plain.geometries(machine, size));
  }
  EXPECT_GT(context.geometry_stats().lookups(), 0u);

  // The layout-bisection side shares the descriptor-keyed topology cache.
  const auto spec = topo::TopologySpec::hamming({4, 2});
  EXPECT_EQ(cached.bisection(spec).value, plain.bisection(spec).value);
  EXPECT_EQ(cached.bisection(spec).method, plain.bisection(spec).method);
  EXPECT_EQ(context.topology_stats().misses, 1u);
  EXPECT_GE(context.topology_stats().hits, 1u);
}

TEST(SweepContextTest, ConcurrentLookupsAgree) {
  SweepContext context;
  const bgq::Machine machine = bgq::mira();
  ThreadPool pool(4);
  const auto results =
      parallel_map<std::shared_ptr<const std::vector<bgq::Geometry>>>(
          pool, 64, [&](std::int64_t) {
            return context.geometries(machine, 8);
          });
  const auto expected = bgq::enumerate_geometries(machine, 8);
  for (const auto& result : results) EXPECT_EQ(*result, expected);
  // All 64 lookups share one key; duplicated misses are allowed (computed
  // outside the lock) but the table holds exactly one entry.
  const CacheStats stats = context.geometry_stats();
  EXPECT_EQ(stats.lookups(), 64u);
  EXPECT_GE(stats.misses, 1u);
}

}  // namespace
}  // namespace npac::sweep
