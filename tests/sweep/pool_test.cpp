// Thread-pool tests: index coverage, order preservation, deterministic
// seeding, exception propagation, and pool reuse.
#include "sweep/pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace npac::sweep {
namespace {

TEST(TaskSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(task_seed(42, 0), task_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::int64_t i = 0; i < 1000; ++i) {
    seeds.insert(task_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across task indices
  EXPECT_NE(task_seed(42, 0), task_seed(43, 0));  // base seed matters
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(4);
  pool.run_indexed(4, [&](std::int64_t i) {
    ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, AutoThreadCountIsPositive) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kTasks = 500;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.run_indexed(kTasks, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(2);
  pool.run_indexed(2, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_EQ(counts[0].load(), 1);
  EXPECT_EQ(counts[1].load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::int64_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map<std::int64_t>(pool, 100, [](std::int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run_indexed(10,
                       [](std::int64_t i) {
                         if (i == 3) throw std::runtime_error("task 3 failed");
                       }),
      std::runtime_error);
  // The pool stays usable after a failed run.
  std::atomic<int> ran{0};
  pool.run_indexed(5, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolTest, FailsFastAfterFirstError) {
  // Once a task throws, unclaimed tasks must be skipped, not executed.
  // With a single-threaded pool the claim order is the index order, so
  // exactly the tasks before and including the throwing one run.
  ThreadPool pool(1);
  std::vector<int> ran(10, 0);
  EXPECT_THROW(
      pool.run_indexed(10,
                       [&](std::int64_t i) {
                         ran[static_cast<std::size_t>(i)] = 1;
                         if (i == 3) throw std::runtime_error("task 3 failed");
                       }),
      std::runtime_error);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)], i <= 3 ? 1 : 0) << "task " << i;
  }
}

TEST(ThreadPoolTest, FailFastStillDrainsInFlightTasks) {
  // Multi-threaded: tasks already claimed when the error lands finish
  // normally; the pool neither hangs nor loses the first exception. How
  // many tasks were skipped depends on scheduling, so only the
  // deterministic single-threaded test above asserts the skip count.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_indexed(64,
                       [&](std::int64_t i) {
                         ran.fetch_add(1);
                         if (i == 0) {
                           throw std::runtime_error("task 0 failed");
                         }
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                       }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool stays usable after the aborted run.
  std::atomic<int> again{0};
  pool.run_indexed(8, [&](std::int64_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPoolTest, ReusableAcrossManyRuns) {
  ThreadPool pool(3);
  for (int run = 0; run < 20; ++run) {
    std::atomic<int> ran{0};
    pool.run_indexed(run, [&](std::int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), run);
  }
}

TEST(ThreadPoolTest, HugeRunsUseBoundedChunks) {
  // A run far larger than its chunk count must still execute every index
  // exactly once: the executor splits [0, n) into at most
  // workers * kChunksPerWorker contiguous chunks, so the per-worker
  // shares stay bounded no matter how large n grows.
  ThreadPool pool(4);
  constexpr std::int64_t kTasks = 100000;
  // Every chunk spans more than 64 indices.
  ASSERT_GT(kTasks, 64 * 4 * ThreadPool::kChunksPerWorker);
  std::vector<std::atomic<int>> counts(kTasks);
  pool.run_indexed(kTasks, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, NonDividingCountsCoverEveryIndex) {
  // Prime task count, worker counts that divide neither the task count nor
  // the chunk count: the balanced chunk_range split must not drop or
  // duplicate the remainder indices.
  for (const int threads : {2, 3, 7}) {
    ThreadPool pool(threads);
    constexpr std::int64_t kTasks = 1009;
    std::vector<std::atomic<int>> counts(kTasks);
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      counts[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, IdleWorkersDrainABlockedWorkersShare) {
  // 32 tasks on 4 workers: one chunk per task, eight per share. Task 0
  // blocks its worker until the other 31 tasks have finished, so the run
  // can finish only if idle workers drain the blocked worker's share.
  obs::Registry registry;
  obs::ScopedRegistry scoped(registry);
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.run_indexed(32, [&](std::int64_t i) {
    if (i == 0) {
      while (done.load(std::memory_order_acquire) < 31) {
        std::this_thread::yield();
      }
    } else {
      done.fetch_add(1, std::memory_order_release);
    }
  });
  EXPECT_EQ(registry.counter_value("pool.tasks"), 32u);
}

TEST(ThreadPoolTest, CountsTasksWhenARegistryIsInstalled) {
  obs::Registry registry;
  obs::ScopedRegistry scoped(registry);
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.run_indexed(32, [&](std::int64_t) { ran.fetch_add(1); });
  pool.run_indexed(16, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 48);
  EXPECT_EQ(registry.counter_value("pool.tasks"), 48u);
  EXPECT_EQ(registry.counter_value("pool.runs"), 2u);
  EXPECT_EQ(registry.gauge_value("pool.workers"),
            static_cast<double>(pool.num_threads()));
  // Every task's queue wait lands in the shared histogram, whichever
  // worker (including the calling thread, worker #0) dequeued it.
  EXPECT_EQ(
      registry.histogram("pool.queue_wait_us", obs::duration_bounds_us())
          .count(),
      48u);
  // The per-worker task counters partition the total.
  std::uint64_t per_worker = 0;
  for (int worker = 0; worker < pool.num_threads(); ++worker) {
    per_worker += registry.counter_value(
        "pool.worker" + std::to_string(worker) + ".tasks");
  }
  EXPECT_EQ(per_worker, 48u);
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(1000, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
  parallel_for(0, [](std::int64_t) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, NestedInATaskOfAMultiWorkerRunRunsInline) {
  // A task of a 2-worker run calls a pooled loop: no "not reentrant"
  // throw, and the loop runs on the task's own thread in index order.
  ThreadPool pool(2);
  std::vector<std::vector<std::int64_t>> order(2);
  std::array<bool, 2> same_thread = {true, true};
  pool.run_indexed(2, [&](std::int64_t task) {
    const auto caller = std::this_thread::get_id();
    parallel_for(64, [&](std::int64_t i) {
      order[static_cast<std::size_t>(task)].push_back(i);
      if (std::this_thread::get_id() != caller) {
        same_thread[static_cast<std::size_t>(task)] = false;
      }
    });
  });
  for (std::size_t task = 0; task < 2; ++task) {
    ASSERT_EQ(order[task].size(), 64u);
    for (std::int64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(order[task][static_cast<std::size_t>(i)], i);
    }
    EXPECT_TRUE(same_thread[task]);
  }
}

TEST(ParallelForTest, NestedInATaskOfASingleWorkerRunUsesTheSharedPool) {
  // A task of a 1-worker run is not a multi-worker task: its pooled loop
  // may fan out on the shared pool, and again nothing throws.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> counts(256);
  pool.run_indexed(3, [&](std::int64_t) {
    parallel_for(256, [&](std::int64_t i) {
      counts[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 3);
}

TEST(ParallelForTest, RunsOnTheInstalledKernelPoolUntilTheScopeEnds) {
  // A loop runs on pool P exactly when P is mid-run inside it.
  const auto runs_on = [](ThreadPool& pool) {
    std::atomic<bool> busy{true};
    parallel_for(4, [&](std::int64_t) {
      if (pool.try_run_indexed(1, [](std::int64_t) {})) busy.store(false);
    });
    return busy.load();
  };
  ThreadPool outer(3);
  ThreadPool inner(1);
  {
    ScopedKernelPool outer_scope(outer);
    EXPECT_TRUE(runs_on(outer));
    {
      // A one-worker pool runs the loop inline, in index order.
      ScopedKernelPool inner_scope(inner);
      const auto caller = std::this_thread::get_id();
      std::vector<std::int64_t> order;
      parallel_for(64, [&](std::int64_t i) {
        if (std::this_thread::get_id() == caller) order.push_back(i);
      });
      ASSERT_EQ(order.size(), 64u);
      for (std::int64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
      }
      EXPECT_FALSE(runs_on(outer));
    }
    EXPECT_TRUE(runs_on(outer));
  }
  EXPECT_FALSE(runs_on(outer));
  if (shared_pool().num_threads() > 1) {
    EXPECT_TRUE(runs_on(shared_pool()));
  }
}

TEST(ParallelForTest, ErrorsPropagateAndTheSharedPoolStaysUsable) {
  EXPECT_THROW(parallel_for(100,
                            [](std::int64_t i) {
                              if (i == 42) throw std::runtime_error("task 42");
                            }),
               std::runtime_error);
  std::atomic<int> ran{0};
  parallel_for(100, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace npac::sweep
