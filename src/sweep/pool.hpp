// Deterministic thread-pool executor for experiment sweeps.
//
// Design (cf. the job-system idiom in SNIPPETS.md Snippet 2, stripped to
// what sweeps need):
//  * a fixed worker count chosen up front, and one claim cursor per worker
//    share: every run's index space is split into at most
//    workers * kChunksPerWorker contiguous chunks, each worker owns a
//    contiguous range of chunk ids and claims them in ascending order with
//    one fetch_add on its share's cursor. A worker whose share is exhausted
//    moves round-robin through the other shares and leaves once all of them
//    are exhausted, so a slow worker's tail is drained by the idle ones
//    while each worker still walks its own rows first;
//  * range-granular chunks: a chunk id names a contiguous index range
//    computed arithmetically from (n, chunk count), so a million-row
//    run_indexed has the same ~32 chunks per worker as a 24-row bench grid;
//  * index-addressed tasks: a run executes fn(0..n-1) exactly once each and
//    results are written to index-addressed slots, so the output is
//    independent of which worker runs which task — the claim schedule can
//    only change timing, never bytes;
//  * deterministic randomness: every task derives its RNG seed from
//    (base_seed, task_index) alone via task_seed(), never from thread ids
//    or scheduling order, so a sweep with threads=N is bit-identical to
//    threads=1 no matter who claimed what;
//  * one runtime: library kernels (graph routing and the brute-force
//    subset scan) parallelize through parallel_for on one pool — the
//    installed kernel pool (ScopedKernelPool; the bench runner installs
//    its --threads-sized pool) or else the process-wide shared_pool() —
//    and a loop nested inside a task of a multi-worker run executes
//    inline, so nested parallelism never oversubscribes the cores.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace npac::sweep {

/// Statistically independent, reproducible seed for one task of a run.
/// SplitMix64 finalizer over (base_seed, task_index) — the recommended
/// seeding scheme for parallel streams (Steele et al., OOPSLA '14).
std::uint64_t task_seed(std::uint64_t base_seed, std::int64_t task_index);

/// The worker count a ThreadPool(threads) will actually use: values < 1
/// select std::thread::hardware_concurrency(), floored at 1.
int resolved_thread_count(int threads);

/// The half-open index range of piece `piece` when [0, n) is split into
/// `pieces` contiguous, balanced pieces: the first n % pieces pieces carry
/// one extra index.
std::pair<std::int64_t, std::int64_t> balanced_range(std::int64_t n,
                                                     std::int64_t pieces,
                                                     std::int64_t piece);

class ThreadPool {
 public:
  /// A run is split into at most workers * kChunksPerWorker contiguous
  /// chunks (fewer when n is smaller — then a chunk is a single index).
  static constexpr std::int64_t kChunksPerWorker = 32;

  /// threads < 1 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return worker_count_; }

  /// Runs fn(i) for every i in [0, num_tasks) and blocks until all
  /// complete. The calling thread participates as worker #0, so a pool
  /// constructed with threads=1 runs everything inline in index order. If
  /// any task throws, the run fails fast: chunks and tasks not yet started
  /// are discarded, already-running tasks drain, and the first exception
  /// to be recorded is rethrown here.
  ///
  /// Observability: when an obs::Registry is installed, every run records
  /// per-worker counters (`pool.worker<k>.tasks`, `.busy_ns`, `.idle_ns`
  /// for the spawned workers' waits), pool totals (`pool.runs`,
  /// `pool.tasks`, `pool.busy_ns`) and a `pool.queue_wait_us` histogram of
  /// chunk claim latencies. All of a run's counter updates are flushed
  /// before run_indexed returns, so a caller may read the registry
  /// immediately afterwards. With no registry installed each chunk pays
  /// one pointer load and one branch.
  ///
  /// Throws std::logic_error when the pool is already mid-run.
  void run_indexed(std::int64_t num_tasks,
                   const std::function<void(std::int64_t)>& fn);

  /// run_indexed, except that a pool already mid-run is left alone and
  /// false is returned without running anything.
  bool try_run_indexed(std::int64_t num_tasks,
                       const std::function<void(std::int64_t)>& fn);

 private:
  // One worker's share of a run's chunk ids: [next, end) are unclaimed.
  // Any worker claims by fetch_add on `next`; separate cache lines per
  // share so one worker's claims do not invalidate another's.
  struct alignas(64) Share {
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
  };

  void worker_loop(int worker_index);
  /// Claims and runs chunks, its own share first, until every share is
  /// exhausted. `fn` is the run's task body — read from fn_ under the mutex
  /// (or, for worker #0, the caller's own argument) so a late-waking worker
  /// never touches a cleared fn_.
  void work_through_run(int worker_index,
                        const std::function<void(std::int64_t)>& fn);
  /// Executes (or, after a failure, discards) the tasks of one chunk.
  void run_chunk(std::int64_t chunk, const std::function<void(std::int64_t)>& fn);
  /// The half-open index range of chunk `chunk`.
  std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t chunk) const {
    return balanced_range(num_tasks_, num_chunks_, chunk);
  }
  void record_error();

  // --- cold-path coordination (mutex-guarded; touched per run, not per
  // --- task): run start/stop, worker sleep/wake, error capture.
  std::mutex mutex_;
  std::condition_variable work_ready_;  ///< new generation or stopping
  std::condition_variable quiescent_;   ///< workers_in_run_ reached zero
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  std::int64_t num_tasks_ = 0;
  std::int64_t num_chunks_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped per run; workers wait on it
  int workers_in_run_ = 0;        ///< spawned workers inside the run
  bool running_ = false;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::chrono::steady_clock::time_point run_start_;  // for queue-wait metrics

  // --- hot-path state (lock-free): claims and fail-fast.
  std::atomic<bool> failed_{false};  ///< set by the first error

  int worker_count_ = 1;
  std::unique_ptr<Share[]> shares_;
  std::vector<std::thread> workers_;
};

/// Order-preserving parallel map: out[i] = fn(i). The result layout depends
/// only on n and fn, never on the pool size or the claim schedule.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::int64_t n, Fn&& fn) {
  std::vector<T> out(static_cast<std::size_t>(n));
  pool.run_indexed(n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

/// The process-wide pool behind parallel_for when no kernel pool is
/// installed: hardware concurrency workers, created on first use and
/// shared by every caller.
ThreadPool& shared_pool();

/// Stack-disciplined installation of parallel_for's pool: while the scope
/// lives, parallel_for fans out on `pool` instead of shared_pool(); the
/// previously installed pool (or none) is restored on destruction. The
/// pool must outlive the scope.
class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(ThreadPool& pool);
  ~ScopedKernelPool();

  ScopedKernelPool(const ScopedKernelPool&) = delete;
  ScopedKernelPool& operator=(const ScopedKernelPool&) = delete;

 private:
  ThreadPool* previous_;
};

/// Runs fn(i) for every i in [0, n) on the installed kernel pool (else
/// shared_pool()), and blocks until all complete. It runs inline on the
/// calling thread, in index order, when the caller is already running a
/// task of a multi-worker run, when that pool has one worker, or when it
/// is busy with another thread's loop. Callers keep results independent
/// of which case applied: index-addressed writes, and reductions over
/// partials in index order, with n derived from the input size only.
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

}  // namespace npac::sweep
