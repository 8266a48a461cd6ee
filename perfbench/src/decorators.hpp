// Forwarding decorators over the npac library's public seams.
//
// Each decorator owns no state of the wrapped object: it forwards every
// call unchanged and times it into a Tracer from outside the library. A
// decorated run must therefore produce exactly the outputs of a plain run;
// perfbench/tests/perfbench_test.cpp pins that for every decorator, and
// every traced benchmark run re-checks it against its own plain passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/experiments.hpp"
#include "core/scheduler_stream.hpp"
#include "simnet/network.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace core = npac::core;
namespace simnet = npac::simnet;

/// core::PartitionOracle: layout scoring (cuboid enumerations, sub-network
/// bisections) — the set-up cost of the allocator families.
class TracedOracle final : public core::PartitionOracle {
 public:
  TracedOracle(const core::PartitionOracle& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  std::shared_ptr<const std::vector<npac::bgq::Geometry>> geometries(
      const npac::bgq::Machine& machine, std::int64_t midplanes) const override {
    Tracer::Span span(tracer_, Layer::kOracleGeometries);
    return inner_->geometries(machine, midplanes);
  }

  core::TopologyBisection bisection(
      const npac::topo::TopologySpec& spec) const override {
    Tracer::Span span(tracer_, Layer::kOracleBisection);
    return inner_->bisection(spec);
  }

 private:
  const core::PartitionOracle* inner_;
  Tracer* tracer_;
};

/// core::PartitionAllocator: placement probes (try_place), releases and
/// candidate-quality queries. try_place and release are hot, so they are
/// aggregated rather than recorded as spans.
class TracedAllocator final : public core::PartitionAllocator {
 public:
  TracedAllocator(core::PartitionAllocator& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {
    set_position_scoring(inner.position_scoring());
  }

  std::string descriptor() const override { return inner_->descriptor(); }
  std::string family() const override { return inner_->family(); }
  std::int64_t total_units() const override { return inner_->total_units(); }
  std::int64_t free_units() const override { return inner_->free_units(); }

  std::vector<double> candidate_qualities(std::int64_t size) const override {
    Tracer::Span span(tracer_, Layer::kAllocQualities);
    return inner_->candidate_qualities(size);
  }

  std::optional<core::Partition> try_place(std::int64_t size,
                                           std::size_t candidate,
                                           std::int64_t job_id) override {
    Tracer::Hot hot(tracer_, Layer::kAllocTryPlace);
    auto partition = inner_->try_place(size, candidate, job_id);
    if (!partition) tracer_->add("core.alloc.try_place.fails", 1.0);
    return partition;
  }

  std::int64_t release(std::int64_t job_id) override {
    Tracer::Hot hot(tracer_, Layer::kAllocRelease);
    return inner_->release(job_id);
  }

 private:
  core::PartitionAllocator* inner_;
  Tracer* tracer_;
};

/// core::JobSource: the trace generator the scheduler pulls from.
class TracedJobSource final : public core::JobSource {
 public:
  TracedJobSource(core::JobSource& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  std::optional<core::Job> next() override {
    Tracer::Hot hot(tracer_, Layer::kTraceNext);
    return inner_->next();
  }

 private:
  core::JobSource* inner_;
  Tracer* tracer_;
};

/// core::ScheduledJobSink: times the consumer of placement records (the
/// benchmark's own digest and invariant checks).
inline core::ScheduledJobSink traced_sink(const core::ScheduledJobSink& inner,
                                          Tracer& tracer) {
  return [&inner, &tracer](const core::ScheduledJob& record) {
    Tracer::Hot hot(&tracer, Layer::kSink);
    inner(record);
  };
}

/// simnet::Network, as handed to simmpi::Communicator: every route_all
/// becomes a span of `route_layer` that records its flow count, so the
/// report can tell the flows a communicator generated (route spans under a
/// simmpi span) from the rest.
class TracedNetwork final : public simnet::Network {
 public:
  TracedNetwork(const simnet::Network& inner, Tracer& tracer, Layer route_layer)
      : simnet::Network(inner.options()),
        inner_(&inner),
        tracer_(&tracer),
        route_layer_(route_layer) {}

  std::int64_t num_nodes() const override { return inner_->num_nodes(); }
  std::size_t num_channels() const override { return inner_->num_channels(); }
  simnet::LinkLoads make_loads() const override { return inner_->make_loads(); }

  void route_flow(const simnet::Flow& flow,
                  simnet::LinkLoads& loads) const override {
    inner_->route_flow(flow, loads);
  }

  simnet::LinkLoads route_all(std::span<const simnet::Flow> flows) const override {
    Tracer::Span span(tracer_, route_layer_);
    span.set_flows(static_cast<std::int64_t>(flows.size()));
    return inner_->route_all(flows);
  }

  std::int64_t path_hops(const simnet::Flow& flow) const override {
    return inner_->path_hops(flow);
  }

  std::vector<simnet::Flow> halo_flows(double bytes) const override {
    return inner_->halo_flows(bytes);
  }

 protected:
  /// The inner backend's drain time. completion_seconds with no flows adds
  /// no injection floor, so this is exactly the inner channel_seconds; the
  /// floor itself is applied by the base class from the same options.
  double channel_seconds(const simnet::LinkLoads& loads) const override {
    Tracer::Hot hot(tracer_, Layer::kPrice);
    return inner_->completion_seconds(loads, {});
  }

 private:
  const simnet::Network* inner_;
  Tracer* tracer_;
  Layer route_layer_;
};

/// core::ExperimentEngine forwarding to a sweep::SweepEngine (or any
/// engine). Geometry, bisection and pricing hooks become spans (the
/// routing inside them is folded in from the library's obs trace, see
/// tracer.hpp); the
/// engine's partition oracle is handed out decorated; parallel_for records
/// the pool's busy and wall time.
class TracedEngine final : public core::ExperimentEngine {
 public:
  TracedEngine(core::ExperimentEngine& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer), oracle_(inner.partition_oracle(), tracer) {}

  std::shared_ptr<const std::vector<std::int64_t>> feasible_sizes(
      const npac::bgq::Machine& machine) override {
    Tracer::Span span(tracer_, Layer::kGeometry);
    return inner_->feasible_sizes(machine);
  }
  std::optional<npac::bgq::Geometry> best_geometry(
      const npac::bgq::Machine& machine, std::int64_t midplanes) override {
    Tracer::Span span(tracer_, Layer::kGeometry);
    return inner_->best_geometry(machine, midplanes);
  }
  std::optional<npac::bgq::Geometry> worst_geometry(
      const npac::bgq::Machine& machine, std::int64_t midplanes) override {
    Tracer::Span span(tracer_, Layer::kGeometry);
    return inner_->worst_geometry(machine, midplanes);
  }
  std::optional<npac::bgq::Geometry> propose_improvement(
      const npac::bgq::Machine& machine,
      const npac::bgq::Geometry& current) override {
    Tracer::Span span(tracer_, Layer::kGeometry);
    return inner_->propose_improvement(machine, current);
  }
  simnet::PingPongResult pingpong(const npac::bgq::Geometry& geometry,
                                  const simnet::PingPongConfig& config) override {
    Tracer::Span span(tracer_, Layer::kPingpong);
    return inner_->pingpong(geometry, config);
  }
  core::PairingComparison pairing(const npac::bgq::Geometry& baseline,
                                  const npac::bgq::Geometry& proposed,
                                  const simnet::PingPongConfig& config) override {
    Tracer::Span span(tracer_, Layer::kPingpong);
    return inner_->pairing(baseline, proposed, config);
  }
  double caps_comm_seconds(const npac::bgq::Geometry& geometry,
                           const npac::strassen::CapsParams& params) override {
    Tracer::Span span(tracer_, Layer::kSimmpi);
    return inner_->caps_comm_seconds(geometry, params);
  }
  core::TopologyBisection topology_bisection(
      const npac::topo::TopologySpec& spec) override {
    Tracer::Span span(tracer_, Layer::kBisection);
    return inner_->topology_bisection(spec);
  }
  double topology_pairing_seconds(const npac::topo::TopologySpec& spec,
                                  double bytes_per_pair) override {
    Tracer::Span span(tracer_, Layer::kPairing);
    return inner_->topology_pairing_seconds(spec, bytes_per_pair);
  }
  const core::PartitionOracle& partition_oracle() override { return oracle_; }

  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn) override {
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    const auto start = Clock::now();
    inner_->parallel_for(n, [&](std::int64_t i) {
      const auto task_start = Clock::now();
      fn(i);
      tracer_->add("sweep.pool.busy_s", seconds(task_start, Clock::now()));
    });
    tracer_->add("sweep.pool.wall_s", seconds(start, Clock::now()));
  }

 private:
  core::ExperimentEngine* inner_;
  Tracer* tracer_;
  TracedOracle oracle_;
};

}  // namespace perfbench
