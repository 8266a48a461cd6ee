// Observability lab: install an obs::Registry around a small scheduler +
// routing run and print what the instrumentation saw — allocation attempts
// per family, the fragmentation histogram, pool counters, cache hit rates,
// and the first few trace spans.
//
// The same registry/trace machinery backs every bench driver's
// --metrics-out/--trace-out flags; this example is the API walkthrough.
#include <cstdio>

#include "core/allocator.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sweep/runner.hpp"
#include "sweep/trace.hpp"

int main() {
  using namespace npac;

  // Tracing on: ScopedTimer spans and the scheduler's simulated timeline
  // land in registry.trace().
  obs::Registry::Options options;
  options.tracing = true;
  obs::Registry registry(options);
  obs::ScopedRegistry scoped(registry);

  // A scheduler run on Mira: every try_place and release is tallied.
  sweep::TraceConfig trace_config;
  trace_config.num_jobs = 40;
  trace_config.contention_fraction = 0.5;
  const auto jobs = sweep::generate_trace(bgq::mira(), trace_config,
                                          /*seed=*/7);
  core::CuboidAllocator allocator(bgq::mira());
  const auto schedule = core::simulate_schedule(
      allocator, core::SchedulerPolicy::kBestBisection, jobs);
  std::printf("scheduled %zu jobs, makespan %.1f s\n", schedule.jobs.size(),
              schedule.makespan_seconds);

  // A pooled sweep: per-worker task counters and the queue-wait histogram.
  sweep::SweepContext context;
  sweep::ThreadPool pool(4);
  pool.run_indexed(16, [&](std::int64_t i) {
    context.geometries(bgq::mira(), 2 * (1 + i % 8));
  });
  context.publish_metrics(registry);

  std::printf("\nattempts (cuboid):  %llu\n",
              static_cast<unsigned long long>(
                  registry.counter_value("sched.alloc.cuboid.attempts")));
  std::printf("failures (cuboid):  %llu\n",
              static_cast<unsigned long long>(
                  registry.counter_value("sched.alloc.cuboid.failures")));
  std::printf("pool tasks:         %llu\n",
              static_cast<unsigned long long>(
                  registry.counter_value("pool.tasks")));
  std::printf("geometry cache hit: %.0f of %.0f lookups\n",
              registry.gauge_value("cache.geometries.hits"),
              registry.gauge_value("cache.geometries.hits") +
                  registry.gauge_value("cache.geometries.misses"));

  const auto spans = registry.trace().snapshot();
  std::printf("\n%zu trace spans; first few:\n", spans.size());
  for (std::size_t i = 0; i < spans.size() && i < 5; ++i) {
    std::printf("  [%s] %s (%lld us)\n", spans[i].category.c_str(),
                spans[i].name.c_str(),
                static_cast<long long>(spans[i].dur_us));
  }

  std::printf("\nmetrics JSON is registry.metrics_json(); the trace JSON "
              "(registry.trace().json())\nloads directly in chrome://tracing "
              "or Perfetto. Every bench driver exposes both via\n"
              "--metrics-out=PATH and --trace-out=PATH.\n");
  return 0;
}
