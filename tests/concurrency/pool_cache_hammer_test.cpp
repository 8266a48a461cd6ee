// TSan-targeted hammer: the sweep::ThreadPool executor + the
// SweepContext memo caches driven hard from 8 workers with metrics AND
// tracing fully on. The CI `tsan` job runs this binary (and the rest of
// `ctest -L concurrency`) under -fsanitize=thread; unsynchronized access to
// the cache maps, the share cursors, the pool bookkeeping, or the obs
// instruments shows up as a hard failure here instead of a once-a-month
// flaky digest.
//
// The assertions double as a determinism pin: every task's value must
// equal the serial recomputation, regardless of which worker claimed which
// chunk or won which cache miss — including at deliberately skewed task
// costs, where the claim schedule differs wildly between thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bgq/bisection.hpp"
#include "bgq/machine.hpp"
#include "obs/metrics.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"

namespace npac::sweep {
namespace {

constexpr int kThreads = 8;
constexpr std::int64_t kTasks = 400;

/// Deterministic busy work whose cost depends only on the task index:
/// every 16th task spins ~200x longer than its neighbors, so with several
/// workers the even per-worker shares drain at very different rates and
/// the fast workers must claim from the slow ones' shares. The returned
/// checksum folds into the task result so the spin cannot be optimized
/// away.
std::uint64_t skewed_spin(std::int64_t i) {
  const std::int64_t spins = (i % 16 == 0) ? 20000 : 100;
  std::uint64_t h = task_seed(7, i);
  for (std::int64_t k = 0; k < spins; ++k) h = task_seed(h, k);
  return h;
}

/// A pure function of the cached cuboid enumeration of `midplanes` Mira
/// midplanes: its length and its best bisection (sizes that fit no cuboid
/// enumerate empty).
double enumeration_checksum(const SweepContext& context,
                            std::int64_t midplanes) {
  const auto all = context.geometries(bgq::mira(), midplanes);
  const double best =
      all->empty()
          ? 0.0
          : static_cast<double>(bgq::normalized_bisection(all->front()));
  return static_cast<double>(all->size()) * 1e4 + best;
}

TEST(PoolCacheHammerTest, EightThreadsShareCachesUnderInstrumentation) {
  obs::Registry registry({/*tracing=*/true, /*trace_capacity=*/1 << 14});
  obs::ScopedRegistry installed(registry);

  SweepContext context;

  // Serial reference, computed through a fresh context so the parallel run
  // below cannot "agree with itself" via the shared cache.
  std::vector<double> expected(static_cast<std::size_t>(kTasks));
  {
    SweepContext reference;
    for (std::int64_t i = 0; i < kTasks; ++i) {
      expected[static_cast<std::size_t>(i)] =
          enumeration_checksum(reference, 1 + (i % 50));
    }
  }

  std::vector<double> got(static_cast<std::size_t>(kTasks), -1.0);
  std::atomic<std::uint64_t> bisection_sum{0};

  ThreadPool pool(kThreads);
  ASSERT_EQ(pool.num_threads(), kThreads);
  // Three rounds through the same caches: round 1 is mostly misses (every
  // worker racing to insert), rounds 2-3 are mostly hits — both paths of
  // MemoCache::get_or_compute get contended coverage.
  for (int round = 0; round < 3; ++round) {
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      // Hits share one enumeration object, so concurrent readers of the
      // cached vector are exercised as well as the map.
      got[static_cast<std::size_t>(i)] =
          enumeration_checksum(context, 1 + (i % 50));
      // A second cache: the descriptor-keyed bisection of a rotating torus,
      // same key set across all workers.
      const auto spec = topo::TopologySpec::torus({2 + (i % 4), 4, 4});
      bisection_sum.fetch_add(
          static_cast<std::uint64_t>(context.bisection(spec).value),
          std::memory_order_relaxed);
      // Seeded per-task randomness, the sanctioned D2 pattern.
      (void)task_seed(1234, i);
    });
    for (std::int64_t i = 0; i < kTasks; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)])
          << "task " << i << " round " << round;
    }
  }

  // Cache accounting adds up: every lookup was either a hit or a miss, and
  // the distinct-key count bounds the stored entries. (Concurrent misses
  // on one key may both compute — first insert wins — so misses can exceed
  // entries but lookups are conserved.)
  const CacheStats geometries = context.geometry_stats();
  EXPECT_EQ(geometries.lookups(), static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_GE(geometries.misses, 50u);
  const CacheStats topologies = context.topology_stats();
  EXPECT_EQ(topologies.lookups(), static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_GT(bisection_sum.load(), 0u);

  // all_stats() reports the same aggregates after 8 workers hammered the
  // cache concurrently, and exactly one entry per distinct key survives.
  {
    const auto all = context.all_stats();
    const auto named = std::find_if(all.begin(), all.end(), [](const auto& c) {
      return std::string(c.name) == "geometries";
    });
    ASSERT_NE(named, all.end());
    EXPECT_EQ(named->stats.hits, geometries.hits);
    EXPECT_EQ(named->stats.misses, geometries.misses);
    EXPECT_EQ(named->entries, 50u);  // 50 distinct (machine, midplanes) keys
  }

  // The instrumentation saw the work: pool counters sum across workers,
  // every executed task is counted exactly once (its split across workers
  // depends on the schedule), and publishing the cache snapshot is itself
  // thread-safe.
  EXPECT_EQ(registry.counter_value("pool.tasks"),
            static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_EQ(registry.counter_value("pool.runs"), 3u);
  context.publish_metrics(registry);
  EXPECT_EQ(registry.gauge_value("cache.geometries.hits"),
            static_cast<double>(geometries.hits));
  // Snapshotting concurrently-written instruments must be race-free too.
  EXPECT_FALSE(registry.metrics_json().empty());
  EXPECT_GT(registry.trace().size(), 0u);
}

TEST(PoolCacheHammerTest, SkewedCostsAreByteIdenticalAt1_2_7_16Threads) {
  // The determinism contract under the harshest schedule we can provoke:
  // heavily skewed task costs force the fast workers to drain the slow
  // workers' shares, so 2, 7, and 16 workers each produce a wildly
  // different execution order — and exactly the same bytes. 7 and 16 also
  // exercise worker counts that do not divide the task count.
  SweepContext reference_context;
  std::vector<std::uint64_t> reference(static_cast<std::size_t>(kTasks));
  {
    ThreadPool pool(1);
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      const double checksum =
          enumeration_checksum(reference_context, 1 + (i % 50));
      reference[static_cast<std::size_t>(i)] =
          skewed_spin(i) ^ static_cast<std::uint64_t>(checksum * 1e6);
    });
  }

  for (const int threads : {2, 7, 16}) {
    SweepContext context;
    std::vector<std::uint64_t> got(static_cast<std::size_t>(kTasks));
    ThreadPool pool(threads);
    ASSERT_EQ(pool.num_threads(), threads);
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      const double checksum = enumeration_checksum(context, 1 + (i % 50));
      got[static_cast<std::size_t>(i)] =
          skewed_spin(i) ^ static_cast<std::uint64_t>(checksum * 1e6);
    });
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }
}

TEST(PoolCacheHammerTest, ExceptionsUnderContentionFailFastCleanly) {
  ThreadPool pool(kThreads);
  std::atomic<int> started{0};
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.run_indexed(256,
                         [&](std::int64_t i) {
                           started.fetch_add(1, std::memory_order_relaxed);
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must be reusable after a failed run.
    pool.run_indexed(8, [&](std::int64_t) {
      started.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(started.load(), 0);
}

TEST(PoolCacheHammerTest, FailFastSkipsUnclaimedWork) {
  // The fail-fast contract: a task that throws mid-run — while the other
  // workers are busy with chunks claimed from its share — must
  // skip unclaimed tasks, drain in-flight ones, and surface its error.
  // Tasks before the thrower are cheap (worker 0 reaches task 17
  // quickly); tasks after it are expensive until the throw and then
  // deliberately sleep, which parks every other worker and hands the CPU
  // to the failing one so the discard flag propagates — making the
  // skipped-work assertion robust on a loaded 1-CPU machine.
  std::atomic<int> ran{0};
  std::atomic<bool> thrown{false};
  const auto task = [&](std::int64_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (i == 17) {
      thrown.store(true, std::memory_order_release);
      throw std::runtime_error("boom");
    }
    if (i > 17) {
      if (thrown.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } else {
        (void)skewed_spin(0);  // the heavy branch: keep the others occupied
      }
    }
  };
  for (const int threads : {2, 7}) {
    ran.store(0);
    thrown.store(false);
    ThreadPool pool(threads);
    try {
      pool.run_indexed(96, task);
      FAIL() << "expected the failing task's exception to propagate";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom");
    }
    // Fail fast actually skipped work: the 96-task run must not have run
    // to completion (the margin tolerates every worker draining one
    // in-flight task plus a few claimed in the discard-propagation window).
    EXPECT_LT(ran.load(), 90) << "threads=" << threads;
    EXPECT_GE(ran.load(), 1) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace npac::sweep
