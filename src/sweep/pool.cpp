#include "sweep/pool.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

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
// StealDeque — bounded Chase-Lev, seq_cst handshake instead of fences.
//
// The owner's pop publishes its claimed bottom before reading top; a thief
// reads top before bottom. With both sides seq_cst, at most one of them can
// believe it took the last entry, and the top CAS arbitrates the tie. Slot
// reads are relaxed atomics: a thief's read can be stale only if the slot
// was recycled, which implies top moved past its snapshot, which makes its
// CAS fail and the stale value is discarded.
// ---------------------------------------------------------------------------

bool StealDeque::push(std::int64_t chunk) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
  slots_[static_cast<std::size_t>(b) & kMask].store(chunk,
                                                    std::memory_order_relaxed);
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

NPAC_HOT std::int64_t StealDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Already drained; restore bottom.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return kEmpty;
  }
  std::int64_t chunk =
      slots_[static_cast<std::size_t>(b) & kMask].load(std::memory_order_relaxed);
  if (t == b) {
    // Last entry: race the thieves for it via the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      chunk = kEmpty;  // a thief got there first
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return chunk;
}

NPAC_HOT std::int64_t StealDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return kEmpty;
  const std::int64_t chunk =
      slots_[static_cast<std::size_t>(t) & kMask].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return kContended;
  }
  return chunk;
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
  static_assert(ThreadPool::kStealSlicesPerWorker <
                    static_cast<std::int64_t>(StealDeque::kCapacity),
                "a worker's seeded share must fit its deque");
  states_ = std::make_unique<WorkerState[]>(
      static_cast<std::size_t>(worker_count_));
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
  // chunks and tasks not yet started are discarded (their counts drain
  // through remaining_) while already-running tasks finish.
  failed_.store(true, std::memory_order_release);
}

void ThreadPool::run_chunk(std::int64_t chunk,
                           const std::function<void(std::int64_t)>& fn) {
  const auto [begin, end] = chunk_range(chunk);
  for (std::int64_t i = begin; i < end; ++i) {
    if (failed_.load(std::memory_order_acquire)) {
      // Discard the unstarted tail of this chunk; remaining_ still drains
      // so the run terminates with every task accounted for.
      remaining_.fetch_sub(end - i, std::memory_order_release);
      return;
    }
    try {
      fn(i);
    } catch (...) {
      record_error();
    }
    remaining_.fetch_sub(1, std::memory_order_release);
  }
}

std::int64_t ThreadPool::try_steal(int worker_index, std::uint64_t& steals,
                                   std::uint64_t& steal_fails) {
  // Deterministic round-robin victim order starting after this worker.
  // Steal order affects only timing, never output (index-addressed slots),
  // so there is no need to randomize it.
  for (int offset = 1; offset < worker_count_; ++offset) {
    const int victim = (worker_index + offset) % worker_count_;
    const std::int64_t chunk = states_[victim].deque.steal();
    if (chunk >= 0) {
      ++steals;
      return chunk;
    }
    if (chunk == StealDeque::kContended) ++steal_fails;
  }
  return StealDeque::kEmpty;
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
  std::uint64_t steals = 0;
  std::uint64_t steal_fails = 0;
  const int nesting = worker_count_ > 1 ? 1 : 0;
  t_multi_worker_depth += nesting;

  int idle_spins = 0;
  while (true) {
    std::int64_t chunk = states_[worker_index].deque.pop();
    if (chunk < 0) chunk = try_steal(worker_index, steals, steal_fails);
    if (chunk >= 0) {
      idle_spins = 0;
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
      continue;
    }
    // Nothing poppable or stealable. The run is over once every task has
    // executed or been discarded; until then another worker may still be
    // mid-chunk, so back off briefly and rescan (its deque stays stealable
    // and remaining_ is the termination signal).
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    if (++idle_spins < 32) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  t_multi_worker_depth -= nesting;

  if (registry != nullptr && (tasks_executed > 0 || steals > 0)) {
    if (tasks_executed > 0) {
      registry->counter(worker_metric(worker_index, ".tasks"))
          .add(tasks_executed);
      registry->counter(worker_metric(worker_index, ".busy_ns")).add(busy_ns);
      registry->counter("pool.tasks").add(tasks_executed);
      registry->counter("pool.busy_ns").add(busy_ns);
    }
    if (steals > 0) registry->counter("pool.steals").add(steals);
    if (steal_fails > 0) {
      registry->counter("pool.steal_fails").add(steal_fails);
    }
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
    // Workers from the previous run may still be scanning deques for a
    // final empty pop/steal; seeding must wait until they are all back
    // asleep so the foreign pushes below race with nothing.
    quiescent_.wait(lock, [&] { return workers_in_run_ == 0; });
    running_ = true;
    fn_ = &fn;
    num_tasks_ = num_tasks;
    num_chunks_ = std::min<std::int64_t>(
        num_tasks, static_cast<std::int64_t>(worker_count_) *
                       kStealSlicesPerWorker);
    first_error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    remaining_.store(num_tasks, std::memory_order_relaxed);
    // Unconditional: a registry installed mid-run must never observe an
    // epoch-default run start.
    // npaclint:allow(D3) queue-wait origin metric only; never feeds output
    run_start_ = std::chrono::steady_clock::now();
    // Seed each worker's deque with its contiguous share of the chunk ids,
    // highest id first, so the owner's LIFO pops walk its range in
    // ascending index order while thieves steal the farthest-away chunks.
    for (int worker = 0; worker < worker_count_; ++worker) {
      const std::int64_t lo =
          worker * (num_chunks_ / worker_count_) +
          std::min<std::int64_t>(worker, num_chunks_ % worker_count_);
      const std::int64_t hi = lo + num_chunks_ / worker_count_ +
                              (worker < num_chunks_ % worker_count_ ? 1 : 0);
      for (std::int64_t chunk = hi - 1; chunk >= lo; --chunk) {
        states_[worker].deque.push(chunk);
      }
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

  // The calling thread is worker #0; work_through_run returns only when
  // remaining_ hit zero, i.e. every task has executed or been discarded,
  // so results (and the first error) are visible here via the acquire
  // load paired with the workers' release decrements.
  work_through_run(/*worker_index=*/0, fn);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for every spawned worker to leave work_through_run before the
    // run is declared over: their end-of-run counter flushes (pool.tasks,
    // pool.steals, per-worker tallies) must be visible to whoever reads
    // the registry after run_indexed returns. (Workers cannot block here:
    // remaining_ is already zero, so each one exits its scan promptly.)
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
