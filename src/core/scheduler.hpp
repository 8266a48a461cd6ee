// Bisection-aware job scheduling — the paper's Future Work proposal made
// runnable, on any machine family with an allocation model.
//
// "Processor allocation policy decisions of job schedulers can be improved
//  if they are informed whether a given computation is expected to be
//  network-bound or not. [...] a scheduler may decide whether to allocate
//  [a sub-optimal partition] to a pending job, or to wait for a partition
//  with better bisection bandwidth." (Section 5)
//
// This module simulates exactly that trade-off: a machine is a
// core::PartitionAllocator (midplane cuboids on a torus, group slices on a
// dragonfly, pod blocks on a fat-tree), jobs arrive in a queue, and an
// allocation policy chooses a placed partition for each job.
// Contention-bound jobs run slower on partitions with sub-optimal internal
// bisection (time scales with the bisection ratio, the relationship
// Experiments A-C validated); compute-bound jobs do not care. Policies
// differ in how they weigh utilization against partition quality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocator.hpp"

namespace npac::core {

/// One job in the stream. `midplanes` is the job size in the machine's
/// allocation units — midplanes on tori, chassis on dragonflies, edge
/// subtrees on fat-trees; the field keeps its historical torus name.
struct Job {
  std::int64_t id = 0;
  std::int64_t midplanes = 1;
  double base_seconds = 1.0;  ///< runtime on a best-bisection partition
  bool contention_bound = true;
  double arrival_seconds = 0.0;
};

/// How the scheduler picks partitions for queued jobs (FCFS order).
enum class SchedulerPolicy {
  /// Any fitting layout, scanned in enumeration order — models a
  /// utilization-only scheduler that is blind to partition quality.
  kFirstFit,
  /// Prefer the free layout with the largest internal bisection, but
  /// never leave the job waiting if something fits (greedy quality).
  kBestBisection,
  /// For contention-bound jobs, wait until a best-bisection layout is
  /// free; compute-bound jobs place greedily. The paper's hint-driven
  /// policy.
  kWaitForBest,
  /// EASY backfilling: the head places best-first like kBestBisection, but
  /// when it blocks, later queued jobs may jump ahead as long as they
  /// cannot delay the head's unit-based reservation (finish before the
  /// head's shadow time, or fit in the units the head leaves spare).
  kEasyBackfill,
};

std::string to_string(SchedulerPolicy policy);

/// Outcome of one job.
struct ScheduledJob {
  Job job;
  Partition partition;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  /// Achieved-runtime inflation vs the best layout of the same size
  /// (1.0 = optimal partition; 2.0 = paper's worst case).
  double slowdown = 1.0;
};

struct ScheduleResult {
  std::vector<ScheduledJob> jobs;
  double makespan_seconds = 0.0;
  double mean_slowdown = 1.0;       ///< over contention-bound jobs
  double mean_wait_seconds = 0.0;   ///< queue wait over all jobs
};

/// Event-driven FCFS simulation of `jobs` on `allocator`'s machine under
/// `policy`. Jobs must have non-decreasing arrival times and feasible
/// sizes; the allocator must start empty and is left empty of these jobs'
/// allocations only if every job finished (it is mutated in place).
ScheduleResult simulate_schedule(PartitionAllocator& allocator,
                                 SchedulerPolicy policy,
                                 std::vector<Job> jobs);

/// Contention-bound slowdown best / assigned of a partition whose
/// internal bisection is `assigned` when the best same-size layout has
/// `best`. A partition with no internal bisection cannot carry
/// contention-bound traffic at any finite rate: it is only accepted when
/// the best layout is equally degenerate (the ratio is then 1), otherwise
/// std::invalid_argument.
double bisection_slowdown(double best, double assigned);

/// Runtime of a contention-bound job on `assigned` relative to the best
/// same-size geometry: base * best_bw / assigned_bw.
double contention_runtime_seconds(const bgq::Machine& machine,
                                  const bgq::Geometry& assigned,
                                  double base_seconds);

}  // namespace npac::core
