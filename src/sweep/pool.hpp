// Deterministic work-stealing thread-pool executor for experiment sweeps.
//
// Design (cf. the lockless job-system idiom in SNIPPETS.md Snippet 2,
// stripped to what sweeps need):
//  * a fixed worker count chosen up front, with lockless work stealing
//    inside a run: every run's index space is split into contiguous chunks,
//    each worker's share is seeded into its own bounded Chase-Lev deque,
//    the owner pops locally in index order (LIFO on the deque, which holds
//    its chunks lowest-last) and idle workers steal the farthest-away
//    chunks FIFO from the top. Claiming a chunk costs a handful of atomic
//    operations — no mutex, no condition variable — so the claim path stops
//    being the serialization point long before the hardware does;
//  * range-granular entries: a deque entry is a chunk id naming a
//    contiguous index range computed arithmetically from (n, chunk count),
//    so a million-row run_indexed seeds the same ~32-entries-per-worker
//    deques as a 24-row bench grid — steal granularity is bounded and the
//    queues never grow with n;
//  * index-addressed tasks: a run executes fn(0..n-1) exactly once each and
//    results are written to index-addressed slots, so the output is
//    independent of which worker runs which task — the steal schedule can
//    only change timing, never bytes;
//  * deterministic randomness: every task derives its RNG seed from
//    (base_seed, task_index) alone via task_seed(), never from thread ids
//    or scheduling order, so a sweep with threads=N is bit-identical to
//    threads=1 no matter who stole what;
//  * one runtime: library kernels (torus and graph routing, brute-force
//    bisection) parallelize through parallel_for on one pool — the
//    installed kernel pool (ScopedKernelPool; the bench runner installs
//    its --threads-sized pool) or else the process-wide shared_pool() —
//    and a loop nested inside a task of a multi-worker run executes
//    inline, so nested parallelism never oversubscribes the cores.
#pragma once

#include <array>
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

#include "support/hot.hpp"

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

/// Bounded single-owner/multi-thief deque of chunk ids — the Chase-Lev
/// work-stealing deque (Chase & Lev, SPAA '05) in the fence-free
/// formulation of Le et al. (PPoPP '13), with seq_cst orderings on the
/// top/bottom handshake instead of standalone fences so ThreadSanitizer
/// models it exactly. The owner pushes and pops at the bottom; any thread
/// may steal from the top. Capacity is fixed: entries are chunk ids, and a
/// run never seeds more than kCapacity chunks per worker, so push cannot
/// overflow and no path allocates.
class StealDeque {
 public:
  static constexpr std::int64_t kEmpty = -1;      ///< nothing to take
  static constexpr std::int64_t kContended = -2;  ///< lost a steal race
  static constexpr std::size_t kCapacity = 64;    ///< power of two

  /// Owner-side (or quiescent-seeder) append at the bottom. Returns false
  /// when full — callers size runs so this cannot happen mid-run.
  bool push(std::int64_t chunk);

  /// Owner-side LIFO take from the bottom; kEmpty when drained.
  NPAC_HOT std::int64_t pop();

  /// Thief-side FIFO take from the top; kEmpty when drained, kContended
  /// when another thief (or the owner's last-entry pop) won the race.
  NPAC_HOT std::int64_t steal();

 private:
  static constexpr std::size_t kMask = kCapacity - 1;
  // Owner end and thief end on separate cache lines so steals do not
  // invalidate the owner's pop line on every CAS.
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<std::int64_t> top_{0};
  std::array<std::atomic<std::int64_t>, kCapacity> slots_{};
};

class ThreadPool {
 public:
  /// Upper bound on chunks seeded per worker deque: a run is split into at
  /// most workers * kStealSlicesPerWorker contiguous chunks (fewer when
  /// n is smaller — then a chunk is a single index). Must stay below
  /// StealDeque::kCapacity.
  static constexpr std::int64_t kStealSlicesPerWorker = 32;

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
  /// `pool.tasks`, `pool.busy_ns`), steal-schedule counters (`pool.steals`
  /// successful steals, `pool.steal_fails` lost steal races) and a
  /// `pool.queue_wait_us` histogram of chunk claim latencies. All of a
  /// run's counter updates are flushed before run_indexed returns, so a
  /// caller may read the registry immediately afterwards. With no
  /// registry installed each chunk pays one pointer load and one branch.
  ///
  /// Throws std::logic_error when the pool is already mid-run.
  void run_indexed(std::int64_t num_tasks,
                   const std::function<void(std::int64_t)>& fn);

  /// run_indexed, except that a pool already mid-run is left alone and
  /// false is returned without running anything.
  bool try_run_indexed(std::int64_t num_tasks,
                       const std::function<void(std::int64_t)>& fn);

 private:
  // One worker's deque plus its padding; separate cache lines per worker.
  struct alignas(64) WorkerState {
    StealDeque deque;
  };

  void worker_loop(int worker_index);
  /// Pops/steals chunks until remaining_ hits zero. `fn` is the run's task
  /// body — read from fn_ under the mutex (or, for worker #0, the caller's
  /// own argument) so a late-waking worker never touches a cleared fn_.
  void work_through_run(int worker_index,
                        const std::function<void(std::int64_t)>& fn);
  /// Executes (or, after a failure, discards) the tasks of one chunk.
  void run_chunk(std::int64_t chunk, const std::function<void(std::int64_t)>& fn);
  /// One round-robin pass over the other workers' deques. Returns a chunk
  /// id or StealDeque::kEmpty; counts outcomes into the referenced locals.
  std::int64_t try_steal(int worker_index, std::uint64_t& steals,
                         std::uint64_t& steal_fails);
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

  // --- hot-path state (lock-free): completion and fail-fast.
  std::atomic<std::int64_t> remaining_{0};  ///< tasks not yet run/discarded
  std::atomic<bool> failed_{false};         ///< set by the first error

  int worker_count_ = 1;
  std::unique_ptr<WorkerState[]> states_;
  std::vector<std::thread> workers_;
};

/// Order-preserving parallel map: out[i] = fn(i). The result layout depends
/// only on n and fn, never on the pool size or the steal schedule.
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
