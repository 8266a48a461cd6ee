// Tests of the benchmark's own code: the decorators forward exactly, the
// tracer's self times fit in the wall time, work counts repeat at one seed,
// and the workloads' operations reproduce the library's own drivers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/experiments.hpp"
#include "core/scheduler_stream.hpp"
#include "decorators.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/traffic.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace bgq = npac::bgq;
namespace sweep = npac::sweep;
namespace topo = npac::topo;

using Clock = std::chrono::steady_clock;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The benchmark's output tolerance (multi-threaded torus routing sums its
/// partial loads in no fixed order).
bool close(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

WorkloadConfig smoke_config() { return {42, 2, true}; }

struct TracedRun {
  std::vector<OpResult> plain;
  std::vector<OpResult> traced;
  Report setup;
  Report pass;
  double traced_wall = 0.0;
  int workers = 1;
};

TracedRun run_traced(const std::string& name) {
  TracedRun run;
  Tracer tracer;
  auto workload = make_workload(name, smoke_config());
  tracer.start();
  workload->setup(&tracer);
  run.setup = tracer.stop();
  run.plain = workload->pass(nullptr);
  tracer.start();
  const auto start = Clock::now();
  run.traced = workload->pass(&tracer);
  run.traced_wall = std::chrono::duration<double>(Clock::now() - start).count();
  run.pass = tracer.stop();
  run.workers = workload->pool_workers();
  return run;
}

// --- each decorator forwards exactly -------------------------------------

TEST(Decorators, TracedPassesReproducePlainPasses) {
  for (const std::string& name : workload_names()) {
    const TracedRun run = run_traced(name);
    ASSERT_EQ(run.plain.size(), run.traced.size()) << name;
    ASSERT_FALSE(run.plain.empty()) << name;
    for (std::size_t i = 0; i < run.plain.size(); ++i) {
      EXPECT_EQ(run.plain[i].error, "") << name << " " << run.plain[i].key;
      EXPECT_TRUE(same_outputs(run.plain[i], run.traced[i]))
          << name << " " << run.plain[i].key;
    }
  }
}

struct Record {
  std::int64_t id;
  double start, finish, slowdown;
  std::string label;
};

std::vector<Record> schedule(core::PartitionAllocator& allocator,
                             core::JobSource& source,
                             core::SchedulerPolicy policy,
                             core::StreamStats& stats, Tracer* tracer) {
  std::vector<Record> records;
  const core::ScheduledJobSink sink = [&](const core::ScheduledJob& r) {
    records.push_back({r.job.id, r.start_seconds, r.finish_seconds, r.slowdown,
                       r.partition.label});
  };
  if (tracer == nullptr) {
    stats = core::StreamingScheduler(allocator, policy).run(source, sink);
  } else {
    TracedAllocator traced_allocator(allocator, *tracer);
    TracedJobSource traced_source(source, *tracer);
    const auto traced = traced_sink(sink, *tracer);
    stats = core::StreamingScheduler(traced_allocator, policy)
                .run(traced_source, traced);
  }
  return records;
}

TEST(Decorators, AllocatorJobSourceAndSinkForwardExactly) {
  for (const auto policy : {core::SchedulerPolicy::kBestBisection,
                            core::SchedulerPolicy::kEasyBackfill}) {
    Tracer tracer;
    tracer.start();
    auto plain_alloc = core::make_allocator(bgq::mira());
    auto traced_alloc = core::make_allocator(bgq::mira());
    const auto sizes = core::feasible_unit_sizes(*plain_alloc);
    sweep::TraceConfig config;
    config.num_jobs = 400;
    config.mean_interarrival_seconds = 4.0;
    sweep::SyntheticJobSource plain_source(sizes, config, 7);
    sweep::SyntheticJobSource traced_source(sizes, config, 7);
    core::StreamStats plain_stats;
    core::StreamStats traced_stats;
    const auto plain = schedule(*plain_alloc, plain_source, policy, plain_stats, nullptr);
    const auto traced =
        schedule(*traced_alloc, traced_source, policy, traced_stats, &tracer);
    const Report report = tracer.stop();

    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].id, traced[i].id);
      EXPECT_TRUE(same_bits(plain[i].start, traced[i].start));
      EXPECT_TRUE(same_bits(plain[i].finish, traced[i].finish));
      EXPECT_TRUE(same_bits(plain[i].slowdown, traced[i].slowdown));
      EXPECT_EQ(plain[i].label, traced[i].label);
    }
    EXPECT_EQ(plain_stats.events, traced_stats.events);
    EXPECT_EQ(plain_stats.rescans_skipped, traced_stats.rescans_skipped);
    EXPECT_EQ(plain_alloc->free_units(), traced_alloc->free_units());
    EXPECT_GT(report.at(Layer::kAllocTryPlace).calls, 0u);
    EXPECT_EQ(report.at(Layer::kTraceNext).calls, config.num_jobs + 1u);
    EXPECT_EQ(report.at(Layer::kSink).calls, plain.size());
  }
}

TEST(Decorators, NetworkForwardsLoadsAndPrices) {
  simnet::NetworkOptions options;
  options.injection_bytes_per_second = 1.0e9;  // exercises the floor too
  const simnet::TorusNetwork torus(bgq::Geometry(2, 1, 1, 1).node_torus(), options);
  const auto graph = simnet::make_network(topo::TopologySpec::hypercube(6), options);
  Tracer tracer;
  const simnet::Network* networks[] = {&torus, graph.get()};
  for (const simnet::Network* inner : networks) {
    const TracedNetwork traced(*inner, tracer, Layer::kGraphRoute);
    std::vector<simnet::Flow> flows;
    for (std::int64_t u = 0; u < inner->num_nodes(); ++u) {
      flows.push_back({u, (u * 7 + 3) % inner->num_nodes(), 1.0e6 + u});
    }
    const auto a = inner->route_all(flows);
    const double a_seconds = inner->completion_seconds(flows);
    tracer.start();
    const auto b = traced.route_all(flows);
    const double b_seconds = traced.completion_seconds(flows);
    const Report report = tracer.stop();
    ASSERT_EQ(a.num_channels(), b.num_channels());
    for (std::size_t c = 0; c < a.num_channels(); ++c) {
      EXPECT_TRUE(same_bits(a[c], b[c]));
    }
    EXPECT_TRUE(same_bits(a_seconds, b_seconds));
    EXPECT_EQ(inner->num_nodes(), traced.num_nodes());
    EXPECT_EQ(inner->num_channels(), traced.num_channels());
    EXPECT_EQ(inner->path_hops(flows[1]), traced.path_hops(flows[1]));
    EXPECT_EQ(inner->halo_flows(1.0).size(), traced.halo_flows(1.0).size());
    // Two decorated route_all calls; the library's own trace events for
    // them are the same calls and are not folded in again.
    EXPECT_EQ(report.at(Layer::kGraphRoute).calls, 2u);
    EXPECT_EQ(report.at(Layer::kTorusRoute).calls, 0u);
    for (const auto& span : report.spans) {
      if (span.layer == Layer::kGraphRoute) {
        EXPECT_EQ(span.flows, static_cast<std::int64_t>(flows.size()));
      }
    }
  }
}

TEST(Tracing, LibraryRoutingFoldsUnderTheEngineSpan) {
  core::ExperimentEngine plain;
  Tracer tracer;
  tracer.start();
  TracedEngine traced(plain, tracer);
  const double seconds =
      traced.caps_comm_seconds(bgq::Geometry(2, 1, 1, 1), {9408, 2401, 4});
  const Report report = tracer.stop();
  EXPECT_TRUE(same_bits(
      seconds, plain.caps_comm_seconds(bgq::Geometry(2, 1, 1, 1), {9408, 2401, 4})));
  // core::caps_comm_seconds builds its own network: its route_all calls
  // come from the library's obs trace, nested under the engine's span.
  const double calls = report.counter("obs.net.torus.route_all");
  EXPECT_GT(calls, 0.0);
  EXPECT_EQ(static_cast<double>(report.at(Layer::kTorusRoute).calls), calls);
  const auto [mpi_calls, mpi_flows] = report.routes_under(Layer::kSimmpi);
  EXPECT_EQ(mpi_calls, calls);
  EXPECT_EQ(mpi_flows, report.counter("obs.net.torus.flows"));
  const auto& simmpi = report.at(Layer::kSimmpi);
  EXPECT_EQ(simmpi.total_ns - simmpi.self_ns, report.at(Layer::kTorusRoute).total_ns);
}

TEST(Decorators, OracleAndEngineForwardExactly) {
  sweep::SweepContext plain_context;
  sweep::SweepContext traced_context;
  sweep::ThreadPool pool(2);
  sweep::SweepEngine plain(plain_context, pool);
  sweep::SweepEngine inner(traced_context, pool);
  Tracer tracer;
  tracer.start();
  TracedEngine traced(inner, tracer);

  const bgq::Machine mira = bgq::mira();
  EXPECT_EQ(*plain.feasible_sizes(mira), *traced.feasible_sizes(mira));
  EXPECT_EQ(plain.best_geometry(mira, 8), traced.best_geometry(mira, 8));
  EXPECT_EQ(plain.worst_geometry(mira, 8), traced.worst_geometry(mira, 8));
  EXPECT_EQ(plain.propose_improvement(mira, bgq::Geometry(4, 2, 1, 1)),
            traced.propose_improvement(mira, bgq::Geometry(4, 2, 1, 1)));
  const auto config = core::paper_pingpong_config();
  EXPECT_TRUE(same_bits(
      plain.pingpong(bgq::Geometry(2, 1, 1, 1), config).measured_seconds,
      traced.pingpong(bgq::Geometry(2, 1, 1, 1), config).measured_seconds));
  EXPECT_TRUE(same_bits(
      plain.caps_comm_seconds(bgq::Geometry(2, 1, 1, 1), {9408, 2401, 4}),
      traced.caps_comm_seconds(bgq::Geometry(2, 1, 1, 1), {9408, 2401, 4})));
  const auto spec = topo::TopologySpec::hypercube(6);
  EXPECT_TRUE(same_bits(plain.topology_bisection(spec).value,
                        traced.topology_bisection(spec).value));
  EXPECT_TRUE(same_bits(plain.topology_pairing_seconds(spec, 1.0e9),
                        traced.topology_pairing_seconds(spec, 1.0e9)));

  const auto& plain_oracle = plain.partition_oracle();
  const auto& traced_oracle = traced.partition_oracle();
  EXPECT_EQ(*plain_oracle.geometries(mira, 6), *traced_oracle.geometries(mira, 6));
  EXPECT_TRUE(same_bits(plain_oracle.bisection(spec).value,
                        traced_oracle.bisection(spec).value));

  std::vector<int> seen(50, 0);
  traced.parallel_for(50, [&](std::int64_t i) { ++seen[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(seen, std::vector<int>(50, 1));
  const Report report = tracer.stop();
  EXPECT_EQ(report.at(Layer::kGeometry).calls, 4u);
  EXPECT_EQ(report.at(Layer::kOracleGeometries).calls, 1u);
  EXPECT_GT(report.counter("sweep.pool.wall_s"), 0.0);
}

// --- the tracer's accounting ----------------------------------------------

TEST(Tracing, SelfTimesSumToNoMoreThanWallTime) {
  for (const std::string& name : workload_names()) {
    const TracedRun run = run_traced(name);
    double self = 0.0;
    for (const auto& layer : run.pass.layers) {
      self += static_cast<double>(layer.self_ns) * 1e-9;
    }
    // Every recorded nanosecond belongs to exactly one layer's self time,
    // so the sum is the traced operations' time: at most wall x workers.
    EXPECT_GT(self, 0.0) << name;
    EXPECT_LE(self, run.traced_wall * run.workers) << name;
    EXPECT_NEAR(self, run.pass.root_seconds(Layer::kOp), 1e-6) << name;
  }
}

TEST(Tracing, WorkCountsRepeatAtOneSeed) {
  for (const std::string& name : workload_names()) {
    const TracedRun a = run_traced(name);
    const TracedRun b = run_traced(name);
    for (const Layer layer : {Layer::kAllocTryPlace, Layer::kAllocRelease,
                              Layer::kTorusRoute, Layer::kGraphRoute,
                              Layer::kTraceNext, Layer::kOp}) {
      EXPECT_EQ(a.pass.at(layer).calls, b.pass.at(layer).calls)
          << name << " " << layer_name(layer);
    }
    for (const char* counter :
         {"core.sched.events", "obs.net.torus.flows", "obs.net.torus.route_all",
          "obs.net.graph.flows", "obs.net.graph.route_all"}) {
      EXPECT_EQ(a.pass.counter(counter), b.pass.counter(counter))
          << name << " " << counter;
    }
    EXPECT_EQ(a.pass.routes_under(Layer::kSimmpi), b.pass.routes_under(Layer::kSimmpi))
        << name;
    // Each workload records the work it exists for.
    EXPECT_GT(a.pass.counter(name == "sched_stream" ? "core.sched.events"
                                                    : "obs.net.torus.flows"),
              0.0)
        << name;
  }
}

// --- the operations reproduce the library's drivers ------------------------

const OpResult& find(const std::vector<OpResult>& results, const std::string& key) {
  for (const OpResult& r : results) {
    if (r.key == key) return r;
  }
  throw std::runtime_error("no operation " + key);
}

double value(const OpResult& r, const std::string& field) {
  for (const auto& [name, v] : r.values) {
    if (name == field) return v;
  }
  throw std::runtime_error("no field " + field + " in " + r.key);
}

TEST(LibraryParity, SchedulerRowsMatchTheTopologySchedulerSweep) {
  auto workload = make_workload("design_sweep", smoke_config());
  workload->setup(nullptr);
  const auto results = workload->pass(nullptr);
  const auto grid = sweep::ext_sched_topologies_grid(true);
  sweep::SweepContext context;
  const auto expected = sweep::run_topology_scheduler_sweep(grid, {1, 42}, context);
  ASSERT_FALSE(expected.empty());
  for (const auto& row : expected) {
    std::size_t fraction = 0;
    while (grid.contention_fractions[fraction] != row.contention_fraction) ++fraction;
    const OpResult& r =
        find(results, "sched/" + row.machine + "/" + core::to_string(row.policy));
    const std::string prefix = "f" + std::to_string(fraction) + ".r" +
                               std::to_string(row.replication) + ".";
    EXPECT_TRUE(same_bits(value(r, prefix + "makespan_s"), row.makespan_seconds))
        << r.key << " " << prefix;
    EXPECT_TRUE(same_bits(value(r, prefix + "mean_slowdown"), row.mean_slowdown))
        << r.key << " " << prefix;
    EXPECT_TRUE(same_bits(value(r, prefix + "mean_wait_s"), row.mean_wait_seconds))
        << r.key << " " << prefix;
  }
}

TEST(LibraryParity, TopologyRowsMatchTopologyDesignRow) {
  auto workload = make_workload("design_sweep", smoke_config());
  workload->setup(nullptr);
  const auto results = workload->pass(nullptr);
  for (const auto& design_case : core::topology_design_cases(true)) {
    const auto expected = core::topology_design_row(design_case);
    const OpResult& row =
        find(results, "topo/" + design_case.tier + "/" + design_case.spec.id());
    EXPECT_TRUE(same_bits(value(row, "bisection"), expected.bisection.value)) << row.key;
    EXPECT_TRUE(same_bits(value(row, "pairing_s"), expected.pairing_seconds)) << row.key;
  }
}

TEST(LibraryParity, CapsCallsMatchFigureSix) {
  auto workload = make_workload("caps_bulk", smoke_config());
  workload->setup(nullptr);
  const auto results = workload->pass(nullptr);
  for (const auto& point : core::fig6_strong_scaling()) {
    if (point.midplanes > 4) continue;  // the smoke workload stops at 4
    const std::string prefix = "fig6/" + std::to_string(point.midplanes) + "mp/";
    EXPECT_TRUE(close(value(find(results, prefix + "current"), "comm_s"),
                          point.current_comm_seconds));
    if (point.proposed != point.current) {
      EXPECT_TRUE(close(value(find(results, prefix + "proposed"), "comm_s"),
                            point.proposed_comm_seconds));
    }
  }
}

}  // namespace
}  // namespace perfbench
