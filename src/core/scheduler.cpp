#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/scheduler_stream.hpp"
#include "obs/metrics.hpp"

namespace npac::core {

std::string to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit:
      return "first-fit";
    case SchedulerPolicy::kBestBisection:
      return "best-bisection";
    case SchedulerPolicy::kWaitForBest:
      return "wait-for-best";
    case SchedulerPolicy::kEasyBackfill:
      return "easy-backfill";
  }
  return "?";
}

double bisection_slowdown(double best, double assigned) {
  if (assigned == 0.0) {
    if (best == 0.0) return 1.0;
    throw std::invalid_argument(
        "bisection slowdown: assigned geometry has zero bisection");
  }
  return best / assigned;
}

double contention_runtime_seconds(const bgq::Machine& machine,
                                  const bgq::Geometry& assigned,
                                  double base_seconds) {
  const auto best = bgq::best_geometry(machine, assigned.midplanes());
  if (!best) {
    throw std::invalid_argument(
        "contention_runtime_seconds: size not allocatable on this machine");
  }
  return base_seconds *
         bisection_slowdown(
             static_cast<double>(bgq::normalized_bisection(*best)),
             static_cast<double>(bgq::normalized_bisection(assigned)));
}

namespace {

/// Emits the finished schedule onto the trace's simulated-timeline lane
/// (obs::kSimPid): per job one "wait" span (arrival -> start, when it
/// queued) and one "run" span (start -> finish), with simulated seconds
/// scaled to microseconds as timestamps and the job id as the lane.
void trace_simulated_schedule(const PartitionAllocator& allocator,
                              SchedulerPolicy policy,
                              const std::vector<ScheduledJob>& jobs) {
  obs::Registry* const registry = obs::Registry::current();
  if (registry == nullptr || !registry->tracing()) return;
  obs::TraceBuffer& trace = registry->trace();
  const std::string suffix =
      " [" + to_string(policy) + " on " + allocator.family() + "]";
  for (const ScheduledJob& record : jobs) {
    const auto us = [](double seconds) {
      return static_cast<std::int64_t>(seconds * 1e6);
    };
    const int lane = static_cast<int>(record.job.id);
    const std::string label =
        "job" + std::to_string(record.job.id) + " size " +
        std::to_string(record.job.midplanes) + suffix;
    if (record.start_seconds > record.job.arrival_seconds) {
      trace.add_span("wait " + label, "sched.sim", obs::kSimPid, lane,
                     us(record.job.arrival_seconds),
                     us(record.start_seconds - record.job.arrival_seconds));
    }
    trace.add_span("run " + label, "sched.sim", obs::kSimPid, lane,
                   us(record.start_seconds),
                   us(record.finish_seconds - record.start_seconds));
  }
}

}  // namespace

ScheduleResult simulate_schedule(PartitionAllocator& allocator,
                                 SchedulerPolicy policy,
                                 std::vector<Job> jobs) {
  // Whole-vector validation up front preserves the old error precedence:
  // a bad arrival anywhere in the trace throws before any placement.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (jobs[i].arrival_seconds < jobs[i - 1].arrival_seconds) {
      throw std::invalid_argument(
          "simulate_schedule: job " + std::to_string(jobs[i].id) +
          " arrives at " + std::to_string(jobs[i].arrival_seconds) +
          "s, before job " + std::to_string(jobs[i - 1].id) + " at " +
          std::to_string(jobs[i - 1].arrival_seconds) +
          "s — arrivals must be non-decreasing");
    }
  }

  // The event-driven core does the work; this wrapper only materializes
  // the sink stream back into the historical ScheduleResult shape.
  obs::Registry* const registry = obs::Registry::current();
  ScheduleResult result;
  result.jobs.reserve(jobs.size());
  StreamingScheduler scheduler(allocator, policy);
  VectorJobSource source(std::move(jobs));
  const StreamStats stats = scheduler.run(
      source,
      [&result](const ScheduledJob& record) { result.jobs.push_back(record); });
  result.makespan_seconds = stats.makespan_seconds;
  result.mean_slowdown = stats.mean_slowdown;
  result.mean_wait_seconds = stats.mean_wait_seconds;
  // Report jobs in id order for stable output.
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.job.id < b.job.id;
            });
  if (registry != nullptr) {
    trace_simulated_schedule(allocator, policy, result.jobs);
  }
  return result;
}

}  // namespace npac::core
