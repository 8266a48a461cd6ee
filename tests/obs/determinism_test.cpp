// The observability acceptance regression: enabling metrics AND tracing
// must not change a single byte of computed output, at any thread count.
//
// The pinned workload is the ext_sched_topologies fast grid — the
// cross-family scheduler sweep whose CSV runner_test already holds
// byte-identical across thread counts. Here the same CSV is produced with
// a fully-enabled obs::Registry installed (tracing on), at --threads 1 and
// --threads 8, and compared byte-for-byte against the instrumentation-off
// run. Instrumentation only *receives* data — nothing read from a clock or
// counter may flow back into results (DESIGN.md decision #12).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/experiments.hpp"
#include "core/scheduler_stream.hpp"
#include "obs/metrics.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/network.hpp"
#include "simnet/pingpong.hpp"
#include "simnet/traffic.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"

namespace npac::sweep {
namespace {

std::string sched_topologies_csv(int threads) {
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(
      ext_sched_topologies_grid(/*fast=*/true),
      {.threads = threads, .base_seed = 42}, context);
  return topology_scheduler_csv(rows);
}

std::string instrumented_csv(int threads, obs::Registry& registry) {
  obs::ScopedRegistry scoped(registry);
  return sched_topologies_csv(threads);
}

TEST(ObsDeterminismTest, InstrumentationNeverChangesCsvBytes) {
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const std::string reference = sched_topologies_csv(1);

  obs::Registry::Options options;
  options.tracing = true;
  obs::Registry serial_registry(options);
  EXPECT_EQ(instrumented_csv(1, serial_registry), reference);

  obs::Registry pooled_registry(options);
  EXPECT_EQ(instrumented_csv(8, pooled_registry), reference);

  // The instrumentation actually observed the runs (this is not a test of
  // a disabled registry): the scheduler tallied placement attempts on all
  // three allocator families, the pool counted its tasks, and the trace
  // recorded wall spans plus the simulated job timeline.
  for (obs::Registry* registry : {&serial_registry, &pooled_registry}) {
    EXPECT_GT(registry->counter_value("sched.alloc.cuboid.attempts"), 0u);
    EXPECT_GT(registry->counter_value("sched.alloc.dragonfly.attempts"), 0u);
    EXPECT_GT(registry->counter_value("sched.alloc.fattree.attempts"), 0u);
    EXPECT_GT(registry->counter_value("sched.jobs"), 0u);
    EXPECT_GT(registry->counter_value("pool.tasks"), 0u);
    EXPECT_GT(registry->trace().size(), 0u);
  }
}

TEST(ObsDeterminismTest, MetricsOnlyRegistryAlsoLeavesBytesUntouched) {
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const std::string reference = sched_topologies_csv(3);
  obs::Registry registry;  // metrics without tracing — the --metrics-out path
  EXPECT_EQ(instrumented_csv(3, registry), reference);
  EXPECT_EQ(registry.trace().size(), 0u);
  EXPECT_GT(registry.counter_value("pool.tasks"), 0u);
}

TEST(ObsDeterminismTest, CsvBytesIdenticalAt1_2_7_16Threads) {
  // The executor's acceptance pin: the same grid, fully instrumented, at
  // worker counts chosen to produce maximally different claim schedules —
  // 1 (one share, claimed in index order), 2, 7 (does not divide the row
  // count, so the shares are uneven), and 16 (more workers than some
  // grids have rows). Every CSV byte must match the serial run; the claim
  // schedule may only ever change timing.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const std::string reference = sched_topologies_csv(1);
  for (const int threads : {2, 7, 16}) {
    obs::Registry::Options options;
    options.tracing = true;
    obs::Registry registry(options);
    EXPECT_EQ(instrumented_csv(threads, registry), reference)
        << "threads=" << threads;
    EXPECT_GT(registry.counter_value("pool.tasks"), 0u)
        << "threads=" << threads;
  }
}

// One streaming-scheduler run rendered as text: every emitted record's
// fields, round-trip exact, in emission order — any instrumentation
// side-channel into the schedule flips bytes here.
std::string streaming_schedule_text(core::PartitionAllocator& allocator,
                                    core::SchedulerPolicy policy,
                                    std::uint64_t seed) {
  const auto sizes = core::feasible_unit_sizes(allocator);
  TraceConfig config;
  config.num_jobs = 240;
  config.mean_interarrival_seconds = 4.0;  // congested: backfill holes exist
  SyntheticJobSource source(sizes, config, seed);
  core::StreamingScheduler scheduler(allocator, policy);
  std::string text;
  scheduler.run(source, [&text](const core::ScheduledJob& record) {
    text += std::to_string(record.job.id) + "," + record.partition.label +
            "," + format_exact(record.start_seconds) + "," +
            format_exact(record.finish_seconds) + "," +
            format_exact(record.slowdown) + "\n";
  });
  return text;
}

TEST(ObsDeterminismTest, SchedulerInstrumentationNeverChangesScheduleBytes) {
  // The streaming scheduler's obs hooks (sched.events, sched.queue_depth,
  // sched.backfill.hits, sched.rescan.skips, the per-family attempt
  // tallies) must be write-only: the emitted schedule — including the
  // backfilling discipline's — is byte-identical with a fully-enabled
  // registry installed, whether the runs happen serially or fanned onto a
  // pool at 1, 3, or 8 workers.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  struct SchedCase {
    std::function<std::unique_ptr<core::PartitionAllocator>()> make;
    core::SchedulerPolicy policy;
  };
  topo::DragonflyConfig dragonfly;
  dragonfly.a = 4;
  dragonfly.h = 4;
  dragonfly.groups = 8;
  dragonfly.global_ports = 1;
  std::vector<SchedCase> cases;
  for (const core::SchedulerPolicy policy :
       {core::SchedulerPolicy::kBestBisection,
        core::SchedulerPolicy::kEasyBackfill}) {
    cases.push_back({[] { return core::make_allocator(bgq::mira()); }, policy});
    cases.push_back(
        {[dragonfly] {
           return core::make_allocator(
               topo::TopologySpec::dragonfly(dragonfly));
         },
         policy});
    cases.push_back(
        {[] { return core::make_allocator(topo::TopologySpec::fat_tree(8)); },
         policy});
  }
  const auto run_all = [&](int threads) {
    std::vector<std::string> texts(cases.size());
    ThreadPool pool(threads);
    pool.run_indexed(static_cast<std::int64_t>(cases.size()),
                     [&](std::int64_t i) {
                       const SchedCase& c =
                           cases[static_cast<std::size_t>(i)];
                       const auto allocator = c.make();
                       texts[static_cast<std::size_t>(i)] =
                           streaming_schedule_text(*allocator, c.policy, 42);
                     });
    std::string joined;
    for (const std::string& text : texts) joined += text;
    return joined;
  };

  const std::string reference = run_all(1);
  EXPECT_FALSE(reference.empty());
  for (const int threads : {1, 3, 8}) {
    obs::Registry::Options options;
    options.tracing = true;
    obs::Registry registry(options);
    {
      obs::ScopedRegistry scoped(registry);
      EXPECT_EQ(run_all(threads), reference) << "threads=" << threads;
    }
    // The instrumentation really observed the runs: every admission and
    // placement was counted (2 x 240 events per run floor — completions
    // still in flight at the end are not drained), the backfilling cases
    // logged reservation-window hits, the free-layout index logged
    // skipped rescans, and the queue-depth gauge was left at a run's peak.
    EXPECT_GE(registry.counter_value("sched.events"), 6u * 2u * 240u)
        << "threads=" << threads;
    EXPECT_GT(registry.counter_value("sched.backfill.hits"), 0u)
        << "threads=" << threads;
    EXPECT_GT(registry.counter_value("sched.rescan.skips"), 0u)
        << "threads=" << threads;
    EXPECT_GT(registry.gauge_value("sched.queue_depth"), 0.0)
        << "threads=" << threads;
    EXPECT_GT(registry.counter_value("sched.alloc.cuboid.attempts"), 0u)
        << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, GraphRoutingInstrumentationNeverChangesLoadBytes) {
  // The allocation-free GraphNetwork routing pipeline flushes counters and
  // the scratch-arena gauge once per route_all; like every obs hook, that
  // flush must be write-only — per-channel loads byte-identical with a
  // fully-enabled registry installed.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const topo::Torus torus({4, 4, 3});
  const simnet::GraphNetwork net(torus.build_graph());
  const auto flows = simnet::furthest_node_pairing(torus, 1.0e6);

  const simnet::LinkLoads reference = net.route_all(flows);

  obs::Registry::Options options;
  options.tracing = true;
  obs::Registry registry(options);
  {
    obs::ScopedRegistry scoped(registry);
    const simnet::LinkLoads cold = net.route_all(flows);
    const simnet::LinkLoads warm = net.route_all(flows);  // warm arenas
    ASSERT_EQ(cold.num_channels(), reference.num_channels());
    for (std::size_t c = 0; c < reference.num_channels(); ++c) {
      ASSERT_EQ(cold[c], reference[c]) << "channel " << c;
      ASSERT_EQ(warm[c], reference[c]) << "channel " << c;
    }
  }

  // The flush really fired: one count per call, per-flow totals, and the
  // scratch high-water gauge reflects live arenas.
  EXPECT_EQ(registry.counter_value("net.graph.route_all"), 2u);
  EXPECT_EQ(registry.counter_value("net.graph.flows"), 2 * flows.size());
  EXPECT_GT(registry.gauge_value("net.graph.scratch.bytes"), 0.0);
  EXPECT_GT(registry.trace().size(), 0u);
}

TEST(ObsDeterminismTest, GraphWorkCountersRepeatAtAnyThreadCount) {
  // net.graph.arcs_touched sums the arcs each destination's BFS scanned
  // before it stopped at its farthest source: a per-chunk count flushed
  // once per call, so it and net.graph.bfs_invocations (one per
  // destination group) must not depend on which thread routed which
  // chunk. The dragonfly pairing of the 512-host design tier (512
  // destinations in 32 chunks, sources 1-3 hops out) pins both, and the
  // loads, at 1, 3 and 8 kernel-pool threads.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  topo::DragonflyConfig config;
  config.a = 8;
  config.h = 4;
  config.groups = 16;
  config.global_ports = 1;
  const simnet::GraphNetwork net(topo::TopologySpec::dragonfly(config).build());
  std::vector<simnet::Flow> flows;
  const std::int64_t hosts = net.num_nodes();
  for (std::int64_t h = 0; h < hosts; ++h) {
    flows.push_back({h, (h + hosts / 2) % hosts, 1.0e6});
  }
  const simnet::LinkLoads reference = net.route_all(flows);
  std::uint64_t arcs_touched = 0;
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ScopedKernelPool kernel_pool(pool);
    obs::Registry registry;
    {
      obs::ScopedRegistry scoped(registry);
      const simnet::LinkLoads loads = net.route_all(flows);
      for (std::size_t c = 0; c < reference.num_channels(); ++c) {
        ASSERT_EQ(loads[c], reference[c])
            << "threads=" << threads << " channel " << c;
      }
    }
    EXPECT_EQ(registry.counter_value("net.graph.bfs_invocations"), 512u)
        << "threads=" << threads;
    if (threads == 1) {
      arcs_touched = registry.counter_value("net.graph.arcs_touched");
      // Stopping early scans fewer arcs than 512 full searches would.
      EXPECT_GT(arcs_touched, 0u);
      EXPECT_LT(arcs_touched, 512u * net.num_channels());
    }
    EXPECT_EQ(registry.counter_value("net.graph.arcs_touched"), arcs_touched)
        << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, CapsWorkCountersRepeatAtAnyThreadCount) {
  // The closed-form group exchange counts its work deterministically: the
  // node pairs each exchange stands for (net.torus.flows, what the flow
  // path would have routed) and the difference-array endpoints it wrote
  // (net.torus.ring_updates). One Figure 6 CAPS call pins both, and its
  // time, at 1, 3 and 8 kernel-pool threads.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const bgq::Geometry geometry(2, 1, 1, 1);
  const strassen::CapsParams params{9408, 2401, 4};
  const double reference = core::caps_comm_seconds(geometry, params);
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ScopedKernelPool kernel_pool(pool);
    obs::Registry::Options options;
    options.tracing = true;
    obs::Registry registry(options);
    {
      obs::ScopedRegistry scoped(registry);
      EXPECT_EQ(core::caps_comm_seconds(geometry, params), reference)
          << "threads=" << threads;
    }
    EXPECT_EQ(registry.counter_value("net.torus.route_all"), 4u)
        << "threads=" << threads;
    EXPECT_EQ(registry.counter_value("net.torus.flows"), 1228342u)
        << "threads=" << threads;
    EXPECT_EQ(registry.counter_value("net.torus.ring_updates"), 113484u)
        << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, FftWorkCountersRepeatAtAnyThreadCount) {
  // butterfly counts each phase's ranks (simmpi.rank_messages) and the
  // node flows it emits (simmpi.node_flows); route_all counts the flows it
  // routes. One FFT call, 2048 ranks on a
  // one-midplane torus (4 per node, so the first two butterfly phases stay
  // on node), pins all three, and its time, at 1, 3 and 8 threads.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const simnet::TorusNetwork network(bgq::Geometry(1, 1, 1, 1).node_torus());
  const simmpi::Communicator comm(&network, simmpi::RankMap(2048, 512));
  const apps::FftParams params{2048 * 64, 16.0};
  const double reference = apps::simulate_fft_communication(comm, params);
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ScopedKernelPool kernel_pool(pool);
    obs::Registry registry;
    {
      obs::ScopedRegistry scoped(registry);
      EXPECT_EQ(apps::simulate_fft_communication(comm, params), reference)
          << "threads=" << threads;
    }
    EXPECT_EQ(registry.counter_value("simmpi.rank_messages"), 22528u)
        << "threads=" << threads;
    EXPECT_EQ(registry.counter_value("simmpi.node_flows"), 4608u)
        << "threads=" << threads;
    EXPECT_EQ(registry.counter_value("net.torus.flows"), 4608u)
        << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, ShiftWorkCountersRepeatAtAnyThreadCount) {
  // The closed-form torus shift counts what route_all would have routed:
  // one call and the shift's flows. One furthest-node ping-pong (512
  // flows) and one halo phase (9 neighbours per node) on a one-midplane
  // torus pin both, and their times, at 1, 3 and 8 kernel-pool threads.
  ASSERT_EQ(obs::Registry::current(), nullptr);
  const simnet::TorusNetwork network(bgq::Geometry(1, 1, 1, 1).node_torus());
  const simmpi::Communicator comm(&network, simmpi::RankMap(512, 512));
  const double pingpong = simnet::run_pingpong(network).measured_seconds;
  const double halo = apps::simulate_halo_communication(comm, {1, 1.0e6});
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ScopedKernelPool kernel_pool(pool);
    obs::Registry::Options options;
    options.tracing = true;
    obs::Registry pingpong_registry(options);
    {
      obs::ScopedRegistry scoped(pingpong_registry);
      EXPECT_EQ(simnet::run_pingpong(network).measured_seconds, pingpong)
          << "threads=" << threads;
    }
    EXPECT_EQ(pingpong_registry.counter_value("net.torus.route_all"), 1u)
        << "threads=" << threads;
    EXPECT_EQ(pingpong_registry.counter_value("net.torus.flows"), 512u)
        << "threads=" << threads;
    obs::Registry halo_registry(options);
    {
      obs::ScopedRegistry scoped(halo_registry);
      EXPECT_EQ(apps::simulate_halo_communication(comm, {1, 1.0e6}), halo)
          << "threads=" << threads;
    }
    EXPECT_EQ(halo_registry.counter_value("net.torus.route_all"), 1u)
        << "threads=" << threads;
    EXPECT_EQ(halo_registry.counter_value("net.torus.flows"), 4608u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace npac::sweep
