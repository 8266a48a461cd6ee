// Streaming event-driven scheduler core: the engine every schedule runs
// on. `simulate_schedule` (scheduler.hpp) is a thin wrapper that collects
// its records into a ScheduleResult.
//
// Completion events sit in a binary heap (O(log n) per event), arrivals
// are pulled incrementally from a `JobSource` so resident memory is
// bounded by the number of in-flight jobs (waiting + running), and
// `ScheduledJob` records leave through a sink callback instead of
// accumulating in a result vector. The hot loop avoids re-scans with a
// `FreeLayoutIndex`: a per-size memo of candidate qualities plus a
// release-epoch fail cache — a placement class that failed stays failed
// until some job releases units (occupying more units can only shrink the
// free set), so blocked wake-ups are skipped in O(log n).
//
// The golden schedule digests in tests/core pin its output bit for bit,
// for every SchedulerPolicy (EASY backfilling included) and both
// PositionScoring modes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/scheduler.hpp"

namespace npac::core {

/// Pull-based job stream. Implementations must yield jobs in
/// non-decreasing arrival order; the scheduler validates and throws
/// `std::invalid_argument` naming the offending job id otherwise.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// The next job in arrival order, or nullopt at end of stream.
  virtual std::optional<Job> next() = 0;
};

/// Adapter over an in-memory trace (the `simulate_schedule` wrapper path
/// and tests). Owns its vector; streaming gains nothing here, the bound
/// comes from sources that generate or parse on demand.
class VectorJobSource final : public JobSource {
 public:
  explicit VectorJobSource(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  std::optional<Job> next() override {
    if (cursor_ >= jobs_.size()) return std::nullopt;
    return jobs_[cursor_++];
  }

 private:
  std::vector<Job> jobs_;
  std::size_t cursor_ = 0;
};

/// Incremental free-layout index: eliminates the per-wake-up rescan of
/// candidate layout classes. Two facts make the memo sound:
///  - `candidate_qualities(size)` depends only on the machine, never on
///    occupancy, so it is cached once per size class.
///  - a failed placement scan for (size, scan prefix) stays failed until a
///    release returns units to the free set: `try_place` failures do not
///    mutate the allocator and successful placements only remove free
///    units. The index stamps each failed scan with the current release
///    epoch and skips the scan while the epoch is unchanged.
class FreeLayoutIndex {
 public:
  explicit FreeLayoutIndex(const PartitionAllocator& allocator)
      : allocator_(&allocator) {}

  /// Cached `candidate_qualities(size)` (best-first, empty = infeasible).
  const std::vector<double>& qualities(std::int64_t size);

  /// True when a scan of `size` limited to `prefix` classes (the policy's
  /// scan set) is known to fail in the current epoch — or when fewer than
  /// `size` units are free at all. `prefix == npos` means the full set.
  bool known_blocked(std::int64_t size, std::size_t prefix) const;

  /// Records that the scan (size, prefix) just failed in this epoch.
  void mark_blocked(std::int64_t size, std::size_t prefix);

  /// Units were released back to the free set: previously failing scans
  /// may now succeed. O(1) — the epoch bump invalidates every stamp.
  void on_release() { ++release_epoch_; }

  std::uint64_t rescans_skipped() const { return rescans_skipped_; }

 private:
  const PartitionAllocator* allocator_;
  std::map<std::int64_t, std::vector<double>> qualities_;
  /// (size, scan prefix) -> release epoch of the last full-scan failure.
  std::map<std::pair<std::int64_t, std::size_t>, std::uint64_t> blocked_;
  std::uint64_t release_epoch_ = 0;
  mutable std::uint64_t rescans_skipped_ = 0;
};

/// Aggregate outcome of one streamed run (the scalar half of the old
/// ScheduleResult; per-job records went through the sink).
struct StreamStats {
  std::uint64_t jobs = 0;            ///< records emitted
  std::uint64_t events = 0;          ///< arrivals + completions + placements
  std::uint64_t backfill_hits = 0;   ///< jobs placed ahead of a blocked head
  std::uint64_t rescans_skipped = 0; ///< placement scans the index elided
  std::size_t peak_resident_jobs = 0;  ///< max waiting + running + lookahead
  double makespan_seconds = 0.0;
  double mean_slowdown = 1.0;      ///< over contention-bound jobs
  double mean_wait_seconds = 0.0;  ///< queue wait over all jobs
};

/// Callback invoked once per job, at placement time, in placement order.
using ScheduledJobSink = std::function<void(const ScheduledJob&)>;

/// The event-driven core. One instance runs one stream to completion;
/// the allocator must start empty and is left holding whatever jobs were
/// still running when the source drained (exactly like the pre-refactor
/// loop, which never waited for the tail to finish).
class StreamingScheduler {
 public:
  StreamingScheduler(PartitionAllocator& allocator, SchedulerPolicy policy);

  /// Drains `source`, emitting every placed job through `sink`. Throws
  /// `std::invalid_argument` on a non-empty allocator, decreasing
  /// arrivals, or an infeasible job size (naming the job id).
  StreamStats run(JobSource& source, const ScheduledJobSink& sink);

 private:
  struct Completion {
    double finish_seconds = 0.0;
    /// Placement sequence number: ties on finish time release in
    /// placement order, replicating the old earliest-first linear scan
    /// over a placement-ordered vector.
    std::uint64_t seq = 0;
    std::int64_t job_id = 0;
    std::int64_t units = 0;
  };
  /// Min-heap order (std::push_heap keeps the *max* on top, so greater).
  static bool completion_after(const Completion& a, const Completion& b);

  PartitionAllocator& allocator_;
  SchedulerPolicy policy_;
};

}  // namespace npac::core
