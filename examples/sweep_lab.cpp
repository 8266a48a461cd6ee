// sweep_lab — tour of the src/sweep experiment engine.
//
// Demonstrates the subsystem end to end:
//  1. a scheduler policy sweep run twice, single-threaded and
//     multi-threaded, with the byte-identical-CSV determinism check the
//     subsystem guarantees;
//  2. the memo layer's effect (cache statistics from the shared context);
//  3. a workload trace serialized, parsed back, and replayed exactly;
//  4. a routing sweep pairing fluid-model measurements with the
//     Theorem 3.1 isoperimetric bound.
#include <chrono>
#include <cstdio>

#include "core/report.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace npac;

double run_timed(const sweep::SchedulerSweepGrid& grid,
                 const sweep::SweepOptions& options,
                 sweep::SweepContext& context, std::string* csv_out) {
  const auto start = std::chrono::steady_clock::now();
  const auto rows = sweep::run_scheduler_sweep(grid, options, context);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *csv_out = sweep::scheduler_sweep_csv(rows);
  return elapsed;
}

}  // namespace

int main() {
  std::puts("sweep_lab — parallel experiment sweeps with memoized caches\n");

  // ---- 1. determinism across thread counts --------------------------------
  sweep::SchedulerSweepGrid grid;
  grid.machine = bgq::mira();
  grid.policies = {core::SchedulerPolicy::kFirstFit,
                   core::SchedulerPolicy::kBestBisection,
                   core::SchedulerPolicy::kWaitForBest};
  grid.contention_fractions = {0.5, 1.0};
  grid.trace.num_jobs = 32;
  grid.replications = 4;

  sweep::SweepOptions sequential;
  sequential.threads = 1;
  sweep::SweepOptions parallel;
  parallel.threads = 0;  // hardware concurrency

  std::string csv_sequential, csv_parallel;
  sweep::SweepContext context_sequential, context_parallel;
  const double seconds_sequential =
      run_timed(grid, sequential, context_sequential, &csv_sequential);
  const double seconds_parallel =
      run_timed(grid, parallel, context_parallel, &csv_parallel);

  const bool identical = csv_sequential == csv_parallel;
  std::printf(
      "scheduler sweep, 24 points: threads=1 took %.2f s, threads=auto took "
      "%.2f s\nresult rows byte-identical across thread counts: %s\n\n",
      seconds_sequential, seconds_parallel, identical ? "YES" : "NO");
  if (!identical) {
    std::puts("DETERMINISM VIOLATION — this is a bug in src/sweep.");
    return 1;
  }

  const auto rows =
      sweep::run_scheduler_sweep(grid, sequential, context_sequential);
  std::fputs(sweep::scheduler_sweep_summary(rows).render().c_str(), stdout);

  // ---- 2. what the memo layer saved ---------------------------------------
  const auto stats = context_sequential.geometry_stats();
  std::printf(
      "\ncuboid-enumeration cache: %llu lookups, %llu computed — every "
      "placement\ndecision after the first per (machine, size) was a cache "
      "hit.\n\n",
      static_cast<unsigned long long>(stats.lookups()),
      static_cast<unsigned long long>(stats.misses));

  // ---- 3. trace round trip ------------------------------------------------
  sweep::TraceConfig trace_config;
  trace_config.num_jobs = 6;
  const auto trace = sweep::generate_trace(bgq::mira(), trace_config, 7);
  const std::string serialized = sweep::format_trace(trace);
  const auto replayed = sweep::parse_trace(serialized);
  const sweep::CachedPartitionOracle oracle(&context_sequential);
  core::CuboidAllocator direct_allocator(bgq::mira(), oracle);
  const auto direct = core::simulate_schedule(
      direct_allocator, core::SchedulerPolicy::kBestBisection, trace);
  core::CuboidAllocator roundtrip_allocator(bgq::mira(), oracle);
  const auto roundtrip = core::simulate_schedule(
      roundtrip_allocator, core::SchedulerPolicy::kBestBisection, replayed);
  std::printf(
      "trace round trip: %d jobs serialized to %zu bytes; replay makespan "
      "%.3f s\n(direct) vs %.3f s (parsed back) — %s\n\n",
      trace_config.num_jobs, serialized.size(), direct.makespan_seconds,
      roundtrip.makespan_seconds,
      direct.makespan_seconds == roundtrip.makespan_seconds ? "exact"
                                                            : "MISMATCH");

  // ---- 4. routing sweep with isoperimetric bounds -------------------------
  sweep::RoutingSweepGrid routing;
  routing.geometries = {bgq::Geometry(2, 2, 1, 1), bgq::Geometry(4, 1, 1, 1)};
  routing.tie_breaks = {simnet::TieBreak::kSplit,
                        simnet::TieBreak::kPositive};
  routing.config.total_rounds = 1;
  routing.config.warmup_rounds = 0;
  const auto routing_rows =
      sweep::run_routing_sweep(routing, sequential, context_sequential);
  std::fputs(sweep::routing_sweep_table(routing_rows).render().c_str(),
             stdout);
  std::puts(
      "\nReading: the 4x1x1x1 box has half the bisection of 2x2x1x1, and "
      "the fluid\nmodel's measured round time doubles accordingly — the "
      "end-to-end chain\n(geometry -> Theorem 3.1 bound -> contention-bound "
      "runtime) in one sweep.");
  return 0;
}
