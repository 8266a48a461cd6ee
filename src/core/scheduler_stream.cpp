#include "core/scheduler_stream.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace npac::core {

namespace {

constexpr std::size_t kFullScan = static_cast<std::size_t>(-1);

}  // namespace

// ---------------------------------------------------------------------------
// FreeLayoutIndex
// ---------------------------------------------------------------------------

const std::vector<double>& FreeLayoutIndex::qualities(std::int64_t size) {
  const auto it = qualities_.find(size);
  if (it != qualities_.end()) return it->second;
  return qualities_.emplace(size, allocator_->candidate_qualities(size))
      .first->second;
}

bool FreeLayoutIndex::known_blocked(std::int64_t size,
                                    std::size_t prefix) const {
  if (allocator_->free_units() < size) {
    ++rescans_skipped_;
    return true;
  }
  const auto it = blocked_.find({size, prefix});
  if (it != blocked_.end() && it->second == release_epoch_) {
    ++rescans_skipped_;
    return true;
  }
  // A full-scan failure subsumes any prefix of it: the prefix classes are
  // a subset of the classes that all just failed.
  if (prefix != kFullScan) {
    const auto full = blocked_.find({size, kFullScan});
    if (full != blocked_.end() && full->second == release_epoch_) {
      ++rescans_skipped_;
      return true;
    }
  }
  return false;
}

void FreeLayoutIndex::mark_blocked(std::int64_t size, std::size_t prefix) {
  blocked_[{size, prefix}] = release_epoch_;
}

// ---------------------------------------------------------------------------
// StreamingScheduler
// ---------------------------------------------------------------------------

StreamingScheduler::StreamingScheduler(PartitionAllocator& allocator,
                                       SchedulerPolicy policy)
    : allocator_(allocator), policy_(policy) {}

bool StreamingScheduler::completion_after(const Completion& a,
                                          const Completion& b) {
  if (a.finish_seconds != b.finish_seconds) {
    return a.finish_seconds > b.finish_seconds;
  }
  return a.seq > b.seq;
}

StreamStats StreamingScheduler::run(JobSource& source,
                                    const ScheduledJobSink& sink) {
  if (allocator_.free_units() != allocator_.total_units()) {
    throw std::invalid_argument(
        "StreamingScheduler: allocator must start empty, but only " +
        std::to_string(allocator_.free_units()) + " of " +
        std::to_string(allocator_.total_units()) + " units are free on " +
        allocator_.descriptor());
  }

  // Instruments resolve once per run; disabled observability is one null
  // check here and per placement/release below.
  obs::Registry* const registry = obs::Registry::current();
  obs::Histogram* frag_histogram = nullptr;
  if (registry != nullptr) {
    static const std::vector<double> kFractionBounds = {
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
    frag_histogram = &registry->histogram(
        "sched.frag." + allocator_.family(), kFractionBounds);
  }
  const double total_units = static_cast<double>(allocator_.total_units());
  const auto observe_fragmentation = [&] {
    if (frag_histogram == nullptr || total_units <= 0.0) return;
    frag_histogram->observe(static_cast<double>(allocator_.free_units()) /
                            total_units);
  };

  FreeLayoutIndex index(allocator_);
  StreamStats stats;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  double slowdown_sum = 0.0;
  std::uint64_t slowdown_count = 0;
  double wait_sum = 0.0;
  std::size_t peak_queue_depth = 0;

  std::vector<Completion> heap;  // min-heap via completion_after
  std::deque<Job> queue;         // FCFS waiting room
  std::uint64_t next_seq = 0;    // placement sequence for tie-breaks
  double now = 0.0;

  // One-job lookahead: the only part of the unscheduled future ever held.
  std::optional<Job> pending;
  double last_arrival = -std::numeric_limits<double>::infinity();

  // Every job enters through here. A non-finite arrival would never be
  // admitted (NaN compares false against `now`) nor ordered against
  // completions, and a non-finite or negative runtime has no finish time,
  // so either one is rejected before the event loop sees it.
  const auto pull_next = [&] {
    pending = source.next();
    if (pending) {
      if (!std::isfinite(pending->arrival_seconds) ||
          !std::isfinite(pending->base_seconds) ||
          pending->base_seconds < 0.0) {
        throw std::invalid_argument(
            "StreamingScheduler: job " + std::to_string(pending->id) +
            " has arrival " + std::to_string(pending->arrival_seconds) +
            "s and base runtime " + std::to_string(pending->base_seconds) +
            "s — both must be finite and the runtime non-negative");
      }
      if (pending->arrival_seconds < last_arrival) {
        throw std::invalid_argument(
            "StreamingScheduler: job " + std::to_string(pending->id) +
            " arrives at " + std::to_string(pending->arrival_seconds) +
            "s, before the previous arrival at " +
            std::to_string(last_arrival) + "s — arrivals must be "
            "non-decreasing");
      }
      last_arrival = pending->arrival_seconds;
    }
  };
  pull_next();

  const auto note_resident = [&] {
    const std::size_t resident =
        queue.size() + heap.size() + (pending ? 1u : 0u);
    stats.peak_resident_jobs = std::max(stats.peak_resident_jobs, resident);
    peak_queue_depth = std::max(peak_queue_depth, queue.size());
  };
  note_resident();

  // The policy's scan set over the (best-first) candidate classes:
  // kFirstFit walks it worst-first, kWaitForBest restricts contention
  // jobs to the leading quality tie. Returns the placed partition, or
  // nullopt after marking the scan blocked in the index.
  const auto choose_placement = [&](const Job& job) -> std::optional<Partition> {
    const std::vector<double>& qualities = index.qualities(job.midplanes);
    if (qualities.empty()) {
      throw std::invalid_argument(
          "scheduler: job " + std::to_string(job.id) +
          " requests infeasible size " + std::to_string(job.midplanes) +
          " units on " + allocator_.descriptor());
    }
    std::size_t prefix = kFullScan;
    std::size_t scan_len = qualities.size();
    const bool worst_first = policy_ == SchedulerPolicy::kFirstFit;
    if (policy_ == SchedulerPolicy::kWaitForBest && job.contention_bound) {
      std::size_t ties = 1;
      while (ties < qualities.size() && qualities[ties] == qualities.front()) {
        ++ties;
      }
      prefix = ties;
      scan_len = ties;
    }
    if (index.known_blocked(job.midplanes, prefix)) {
      // The scan is provably a rerun of a failure: charge the same
      // attempt/failure tallies the materialized loop would have, without
      // touching the allocator.
      attempts += scan_len;
      failures += scan_len;
      return std::nullopt;
    }
    for (std::size_t i = 0; i < scan_len; ++i) {
      const std::size_t k = worst_first ? scan_len - 1 - i : i;
      ++attempts;
      auto partition = allocator_.try_place(job.midplanes, k, job.id);
      if (partition) return partition;
      ++failures;
    }
    index.mark_blocked(job.midplanes, prefix);
    return std::nullopt;
  };

  // The record of `job` starting now on `partition`: the one place its
  // slowdown and finish time are computed.
  const auto make_record = [&](const Job& job, Partition partition) {
    ScheduledJob record;
    record.job = job;
    record.start_seconds = now;
    record.slowdown =
        job.contention_bound
            ? bisection_slowdown(partition.best_quality, partition.quality)
            : 1.0;
    record.finish_seconds = now + job.base_seconds * record.slowdown;
    record.partition = std::move(partition);
    return record;
  };

  const auto emit = [&](const ScheduledJob& record) {
    const Job& job = record.job;
    heap.push_back(
        {record.finish_seconds, next_seq++, job.id, job.midplanes});
    std::push_heap(heap.begin(), heap.end(), completion_after);
    // Stats accumulate in emission order — the same floating-point
    // summation order as the pre-refactor `done` vector.
    stats.makespan_seconds =
        std::max(stats.makespan_seconds, record.finish_seconds);
    wait_sum += record.start_seconds - job.arrival_seconds;
    if (job.contention_bound) {
      slowdown_sum += record.slowdown;
      ++slowdown_count;
    }
    ++stats.jobs;
    ++stats.events;
    observe_fragmentation();
    if (sink) sink(record);
  };

  // EASY backfill: with the head blocked, later jobs may jump ahead when
  // they provably cannot delay the head's unit-based reservation — they
  // finish by the head's shadow start time, or they fit in the units the
  // head leaves spare at that time. Single forward pass in FCFS order;
  // the reservation is recomputed after every hit.
  const auto backfill_pass = [&]() -> bool {
    bool placed_any = false;
    std::vector<Completion> order(heap.begin(), heap.end());
    std::sort(order.begin(), order.end(),
              [](const Completion& a, const Completion& b) {
                if (a.finish_seconds != b.finish_seconds) {
                  return a.finish_seconds < b.finish_seconds;
                }
                return a.seq < b.seq;
              });
    const auto reservation =
        [&](std::int64_t units) -> std::optional<std::pair<double, std::int64_t>> {
      std::int64_t cum = allocator_.free_units();
      if (order.empty()) return std::nullopt;  // nothing will ever free up
      if (cum >= units) {
        // Enough units yet no shape fits: the head waits for the next
        // state change, and everything beyond its need is spare.
        return std::make_pair(order.front().finish_seconds, cum - units);
      }
      for (const Completion& completion : order) {
        cum += completion.units;
        if (cum >= units) {
          return std::make_pair(completion.finish_seconds, cum - units);
        }
      }
      return std::nullopt;  // head larger than the machine — infeasible
    };
    auto shadow = reservation(queue.front().midplanes);
    if (!shadow) return false;
    for (auto it = std::next(queue.begin()); it != queue.end();) {
      const Job job = *it;
      auto partition = choose_placement(job);
      if (!partition) {
        ++it;
        continue;
      }
      const ScheduledJob record = make_record(job, std::move(*partition));
      const bool harmless = record.finish_seconds <= shadow->first ||
                            job.midplanes <= shadow->second;
      if (!harmless) {
        // Roll the tentative placement back. The release restores the
        // owner arrays bit-exactly, so the index's blocked stamps stay
        // valid and the epoch is deliberately NOT bumped.
        allocator_.release(job.id);
        ++it;
        continue;
      }
      emit(record);
      ++stats.backfill_hits;
      it = queue.erase(it);
      placed_any = true;
      shadow = reservation(queue.front().midplanes);
      if (!shadow) break;
    }
    return placed_any;
  };

  while (true) {
    // Admit arrivals up to `now`.
    while (pending && pending->arrival_seconds <= now) {
      queue.push_back(*pending);
      ++stats.events;
      pull_next();
      note_resident();
    }

    // Place strictly FCFS from the head; kEasyBackfill may additionally
    // slot later jobs into the hole a blocked head leaves.
    bool placed_any = false;
    while (!queue.empty()) {
      const Job job = queue.front();
      auto partition = choose_placement(job);
      if (!partition) break;
      emit(make_record(job, std::move(*partition)));
      queue.pop_front();
      placed_any = true;
    }
    if (policy_ == SchedulerPolicy::kEasyBackfill && !queue.empty()) {
      placed_any = backfill_pass() || placed_any;
    }
    if (queue.empty() && !pending) break;  // stream drained, all jobs placed

    // Advance to the next event: a completion or the pending arrival.
    double next_event = std::numeric_limits<double>::infinity();
    if (!heap.empty()) next_event = heap.front().finish_seconds;
    if (pending) {
      next_event = std::min(next_event, pending->arrival_seconds);
    }
    if (!std::isfinite(next_event)) {
      if (placed_any) continue;
      const Job& head = queue.front();
      throw std::logic_error(
          "StreamingScheduler: deadlock — job " + std::to_string(head.id) +
          " (size " + std::to_string(head.midplanes) +
          " units) can never be placed on " + allocator_.descriptor());
    }
    now = std::max(now, next_event);

    // Retire completions at or before `now`, earliest first (placement
    // order on ties — the old linear-scan release order).
    while (!heap.empty() && heap.front().finish_seconds <= now) {
      std::pop_heap(heap.begin(), heap.end(), completion_after);
      allocator_.release(heap.back().job_id);
      heap.pop_back();
      index.on_release();
      ++stats.events;
      observe_fragmentation();
    }
  }

  stats.rescans_skipped = index.rescans_skipped();
  stats.mean_slowdown =
      slowdown_count > 0 ? slowdown_sum / static_cast<double>(slowdown_count)
                         : 1.0;
  stats.mean_wait_seconds =
      stats.jobs > 0 ? wait_sum / static_cast<double>(stats.jobs) : 0.0;

  if (registry != nullptr) {
    const std::string prefix = "sched.alloc." + allocator_.family();
    registry->counter(prefix + ".attempts").add(attempts);
    registry->counter(prefix + ".failures").add(failures);
    registry->counter("sched.jobs").add(stats.jobs);
    registry->counter("sched.events").add(stats.events);
    registry->counter("sched.backfill.hits").add(stats.backfill_hits);
    registry->counter("sched.rescan.skips").add(stats.rescans_skipped);
    registry->gauge("sched.queue_depth")
        .set(static_cast<double>(peak_queue_depth));
  }
  return stats;
}

}  // namespace npac::core
