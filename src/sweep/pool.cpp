#include "sweep/pool.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "support/hot.hpp"

namespace npac::sweep {

NPAC_HOT std::uint64_t task_seed(std::uint64_t base_seed,
                                 std::int64_t task_index) {
  // SplitMix64: advance a golden-ratio-stride counter stream to the task's
  // position, then finalize. Full 64-bit avalanche, so adjacent task
  // indices (and adjacent base seeds) yield uncorrelated streams.
  std::uint64_t z =
      base_seed +
      0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(task_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int resolved_thread_count(int threads) {
  int count = threads;
  if (count < 1) count = static_cast<int>(std::thread::hardware_concurrency());
  if (count < 1) count = 1;
  return count;
}

std::pair<std::int64_t, std::int64_t> balanced_range(std::int64_t n,
                                                     std::int64_t pieces,
                                                     std::int64_t piece) {
  const std::int64_t base = n / pieces;
  const std::int64_t extra = n % pieces;
  const std::int64_t begin = piece * base + std::min(piece, extra);
  return {begin, begin + base + (piece < extra ? 1 : 0)};
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

namespace {

// The pool's clock reads are all npaclint:allow(D3)-suppressed: they feed
// worker busy/idle metrics and the queue-wait histogram only, are guarded
// by a null registry check, and never reach computed results (pinned by
// tests/obs/determinism_test.cpp).
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

std::string worker_metric(int worker_index, const char* suffix) {
  return "pool.worker" + std::to_string(worker_index) + suffix;
}

/// Nonzero while this thread runs tasks of a multi-worker run (of any
/// pool); parallel_for then runs inline instead of fanning out again.
thread_local int t_multi_worker_depth = 0;

/// parallel_for's pool while a ScopedKernelPool is alive; null selects
/// shared_pool().
std::atomic<ThreadPool*> g_kernel_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  worker_count_ = resolved_thread_count(threads);
  shares_ = std::make_unique<Share[]>(static_cast<std::size_t>(worker_count_));
  workers_.reserve(static_cast<std::size_t>(worker_count_ - 1));
  // The calling thread is worker #0; spawn the rest.
  for (int i = 1; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::record_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!first_error_) first_error_ = std::current_exception();
  // Fail fast: every worker checks failed_ before starting a task, so
  // chunks and tasks not yet started are discarded while already-running
  // tasks finish.
  failed_.store(true, std::memory_order_release);
}

void ThreadPool::run_chunk(std::int64_t chunk,
                           const std::function<void(std::int64_t)>& fn) {
  const auto [begin, end] = chunk_range(chunk);
  for (std::int64_t i = begin; i < end; ++i) {
    if (failed_.load(std::memory_order_acquire)) return;  // discard the rest
    try {
      fn(i);
    } catch (...) {
      record_error();
    }
  }
}

void ThreadPool::work_through_run(
    int worker_index, const std::function<void(std::int64_t)>& fn) {
  // Instruments are resolved once per run, not per chunk; with no registry
  // installed the whole block below reduces to null checks.
  obs::Registry* const registry = obs::Registry::current();
  obs::Histogram* queue_wait =
      registry == nullptr
          ? nullptr
          : &registry->histogram("pool.queue_wait_us",
                                 obs::duration_bounds_us());
  std::uint64_t tasks_executed = 0;
  std::uint64_t busy_ns = 0;
  const int nesting = worker_count_ > 1 ? 1 : 0;
  t_multi_worker_depth += nesting;

  // Own share first, then round-robin through the others. A cursor only
  // moves forward, so a share found exhausted stays exhausted and one pass
  // suffices; chunks still running elsewhere are awaited at the end of run.
  for (int offset = 0; offset < worker_count_; ++offset) {
    Share& share = shares_[(worker_index + offset) % worker_count_];
    while (true) {
      const std::int64_t chunk =
          share.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= share.end) break;
      std::chrono::steady_clock::time_point chunk_start;
      if (registry != nullptr) {
        // npaclint:allow(D3) queue-wait metric only; never feeds output
        chunk_start = std::chrono::steady_clock::now();
        queue_wait->observe(
            static_cast<double>(elapsed_ns(run_start_, chunk_start)) / 1000.0);
      }
      run_chunk(chunk, fn);
      if (registry != nullptr) {
        // npaclint:allow(D3) worker busy_ns metric only; never feeds output
        busy_ns += elapsed_ns(chunk_start, std::chrono::steady_clock::now());
        const auto [begin, end] = chunk_range(chunk);
        tasks_executed += static_cast<std::uint64_t>(end - begin);
      }
    }
  }
  t_multi_worker_depth -= nesting;

  if (registry != nullptr && tasks_executed > 0) {
    registry->counter(worker_metric(worker_index, ".tasks")).add(tasks_executed);
    registry->counter(worker_metric(worker_index, ".busy_ns")).add(busy_ns);
    registry->counter("pool.tasks").add(tasks_executed);
    registry->counter("pool.busy_ns").add(busy_ns);
  }
}

void ThreadPool::worker_loop(int worker_index) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Idle time is the wait between runs; recorded per wake-up so the
    // final pre-shutdown wait is charged too. It is charged only if the
    // registry is still installed: a long-lived pool (shared_pool()) may
    // wake after the registry it fell asleep under was destroyed.
    obs::Registry* const registry = obs::Registry::current();
    std::chrono::steady_clock::time_point idle_start;
    // npaclint:allow(D3) worker idle_ns metric only; never feeds output
    if (registry != nullptr) idle_start = std::chrono::steady_clock::now();
    work_ready_.wait(lock, [&] {
      return stopping_ || generation_ != seen_generation;
    });
    if (registry != nullptr && registry == obs::Registry::current()) {
      registry->counter(worker_metric(worker_index, ".idle_ns"))
          // npaclint:allow(D3) worker idle_ns metric only; never feeds output
          .add(elapsed_ns(idle_start, std::chrono::steady_clock::now()));
    }
    if (stopping_) return;
    seen_generation = generation_;
    // fn_ is read under the mutex: it may already be null if the run this
    // generation announced finished before this worker woke up — then
    // there is nothing left to claim and joining would dangle.
    const std::function<void(std::int64_t)>* const fn = fn_;
    if (fn == nullptr) continue;
    ++workers_in_run_;
    lock.unlock();
    work_through_run(worker_index, *fn);
    lock.lock();
    if (--workers_in_run_ == 0) quiescent_.notify_all();
  }
}

void ThreadPool::run_indexed(std::int64_t num_tasks,
                             const std::function<void(std::int64_t)>& fn) {
  if (!try_run_indexed(num_tasks, fn)) {
    throw std::logic_error(
        "ThreadPool::run_indexed: pool is already mid-run (not reentrant)");
  }
}

bool ThreadPool::try_run_indexed(std::int64_t num_tasks,
                                 const std::function<void(std::int64_t)>& fn) {
  if (num_tasks <= 0) return true;
  obs::Registry* const registry = obs::Registry::current();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (running_) return false;
    running_ = true;
    fn_ = &fn;
    num_tasks_ = num_tasks;
    num_chunks_ = std::min<std::int64_t>(
        num_tasks, static_cast<std::int64_t>(worker_count_) * kChunksPerWorker);
    first_error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    // Unconditional: a registry installed mid-run must never observe an
    // epoch-default run start.
    // npaclint:allow(D3) queue-wait origin metric only; never feeds output
    run_start_ = std::chrono::steady_clock::now();
    // Each worker's share is a contiguous range of chunk ids. No worker
    // is inside a run here (see the end-of-run wait), and workers join
    // under this mutex, so these plain writes race with nothing.
    for (int worker = 0; worker < worker_count_; ++worker) {
      const auto [lo, hi] = balanced_range(num_chunks_, worker_count_, worker);
      shares_[worker].next.store(lo, std::memory_order_relaxed);
      shares_[worker].end = hi;
    }
    ++generation_;
  }
  work_ready_.notify_all();

  std::optional<obs::ScopedTimer> span;
  if (obs::tracing_enabled()) {
    span.emplace("pool.run_indexed n=" + std::to_string(num_tasks), "pool");
  }
  if (registry != nullptr) {
    registry->counter("pool.runs").add(1);
    registry->gauge("pool.workers").set(static_cast<double>(num_threads()));
  }

  // The calling thread is worker #0; it returns once every chunk is claimed.
  work_through_run(/*worker_index=*/0, fn);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // The run ends when every spawned worker has left work_through_run:
    // all chunks are claimed, so each one leaves once its last chunk is
    // done, and the mutex hands over its results, its first error and its
    // counter flushes. Because running_ is cleared only after this wait,
    // under the same lock, and a worker joins a run only while fn_ is
    // non-null, the next run starts with no worker inside and needs no
    // wait of its own before resetting the shares.
    quiescent_.wait(lock, [&] { return workers_in_run_ == 0; });
    running_ = false;
    fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
  return true;
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

ScopedKernelPool::ScopedKernelPool(ThreadPool& pool)
    : previous_(g_kernel_pool.exchange(&pool, std::memory_order_acq_rel)) {}

ScopedKernelPool::~ScopedKernelPool() {
  g_kernel_pool.store(previous_, std::memory_order_release);
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t)>& fn) {
  if (n > 1 && t_multi_worker_depth == 0) {
    ThreadPool* const installed = g_kernel_pool.load(std::memory_order_acquire);
    ThreadPool& pool = installed != nullptr ? *installed : shared_pool();
    if (pool.num_threads() > 1 && pool.try_run_indexed(n, fn)) return;
  }
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

}  // namespace npac::sweep
