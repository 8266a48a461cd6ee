#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "apps/kernels.hpp"
#include "bgq/machine.hpp"
#include "bgq/policy.hpp"
#include "core/allocator.hpp"
#include "core/experiments.hpp"
#include "core/scheduler_stream.hpp"
#include "decorators.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/rank_map.hpp"
#include "simnet/network.hpp"
#include "strassen/caps.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"
#include "sweep/trace.hpp"

namespace perfbench {

namespace {

namespace bgq = npac::bgq;
namespace simmpi = npac::simmpi;
namespace strassen = npac::strassen;
namespace sweep = npac::sweep;
namespace topo = npac::topo;
namespace apps = npac::apps;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void set_omp_team(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Runs one operation under a root span, capturing its wall time and any
/// exception as the operation's error.
template <typename Body>
OpResult run_op(Tracer* tracer, std::string key, bool seeded, Body&& body) {
  OpResult result;
  result.key = std::move(key);
  result.seeded = seeded;
  const auto start = Clock::now();
  try {
    Tracer::Span span(tracer, Layer::kOp, result.key);
    body(result);
  } catch (const std::exception& e) {
    result.error = std::string("exception: ") + e.what();
  }
  result.seconds = seconds_since(start);
  return result;
}

// --------------------------------------------------------------------------
// Scheduler streams (sched_stream, and the scheduler rows of design_sweep)
// --------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void fnv_double(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv_u64(hash, bits);
}

/// The placement-record consumer of every stream: the FNV-1a schedule
/// digest bench/ext_sched_scale prints, plus the stream invariants (each
/// job emitted once, start >= arrival, slowdown >= 1, partition size ==
/// job size, held units within the machine). Keeps the first violation.
class StreamCheck {
 public:
  StreamCheck(const core::PartitionAllocator& allocator, std::int64_t jobs)
      : allocator_(&allocator), seen_(static_cast<std::size_t>(jobs), 0) {}

  void record(const core::ScheduledJob& r) {
    fnv_u64(digest_, static_cast<std::uint64_t>(r.job.id));
    fnv_u64(digest_, static_cast<std::uint64_t>(r.job.midplanes));
    fnv_double(digest_, r.start_seconds);
    fnv_double(digest_, r.finish_seconds);
    fnv_double(digest_, r.slowdown);
    for (const char c : r.partition.label) {
      digest_ ^= static_cast<unsigned char>(c);
      digest_ *= kFnvPrime;
    }
    ++emitted_;
    if (!error_.empty()) return;
    const char* broken = nullptr;
    if (r.job.id < 0 || static_cast<std::size_t>(r.job.id) >= seen_.size()) {
      broken = "has an id outside the trace";
    } else if (seen_[static_cast<std::size_t>(r.job.id)]++ != 0) {
      broken = "was emitted twice";
    } else if (!(r.start_seconds >= r.job.arrival_seconds)) {
      broken = "starts before it arrives";
    } else if (!(r.slowdown >= 1.0)) {
      broken = "has slowdown below 1";
    } else if (r.partition.units != r.job.midplanes) {
      broken = "holds a partition of another size";
    } else if (allocator_->free_units() < 0 ||
               allocator_->free_units() > allocator_->total_units()) {
      broken = "leaves held units outside the machine";
    }
    if (broken != nullptr) {
      error_ = "job " + std::to_string(r.job.id) + " " + broken;
    }
  }

  /// The first violation, or a missing-job error, or "".
  std::string finish() const {
    if (!error_.empty()) return error_;
    if (emitted_ != seen_.size()) {
      return "stream emitted " + std::to_string(emitted_) + " of " +
             std::to_string(seen_.size()) + " jobs";
    }
    return {};
  }

  std::uint64_t digest() const { return digest_; }

 private:
  const core::PartitionAllocator* allocator_;
  std::vector<char> seen_;
  std::uint64_t emitted_ = 0;
  std::uint64_t digest_ = kFnvOffset;
  std::string error_;
};

/// Streams `source` through a StreamingScheduler on `allocator`, checking
/// every record, and fills `result`. Traced: the allocator, source and sink
/// go through their decorators and run() becomes a core.sched span.
void run_stream(core::PartitionAllocator& allocator, core::SchedulerPolicy policy,
                core::JobSource& source, std::int64_t jobs, Tracer* tracer,
                OpResult& result) {
  StreamCheck check(allocator, jobs);
  const core::ScheduledJobSink sink = [&check](const core::ScheduledJob& r) {
    check.record(r);
  };
  std::optional<TracedAllocator> traced_allocator;
  std::optional<TracedJobSource> traced_source;
  core::ScheduledJobSink traced;
  core::PartitionAllocator* use_allocator = &allocator;
  core::JobSource* use_source = &source;
  const core::ScheduledJobSink* use_sink = &sink;
  if (tracer != nullptr) {
    traced_allocator.emplace(allocator, *tracer);
    traced_source.emplace(source, *tracer);
    traced = traced_sink(sink, *tracer);
    use_allocator = &*traced_allocator;
    use_source = &*traced_source;
    use_sink = &traced;
  }

  const auto start = Clock::now();
  core::StreamStats stats;
  {
    Tracer::Span span(tracer, Layer::kSched);
    stats = core::StreamingScheduler(*use_allocator, policy)
                .run(*use_source, *use_sink);
  }
  result.run_seconds = seconds_since(start);
  result.jobs = static_cast<double>(stats.jobs);
  result.error = check.finish();
  result.exact = {{"digest", check.digest()},
                  {"jobs", stats.jobs},
                  {"events", stats.events},
                  {"backfill_hits", stats.backfill_hits},
                  {"rescans_skipped", stats.rescans_skipped},
                  {"peak_resident", stats.peak_resident_jobs}};
  result.values = {{"makespan_s", stats.makespan_seconds},
                   {"mean_slowdown", stats.mean_slowdown},
                   {"mean_wait_s", stats.mean_wait_seconds}};
  if (tracer != nullptr) {
    tracer->add("core.sched.events", static_cast<double>(stats.events));
    tracer->add("core.sched.rescans_skipped",
                static_cast<double>(stats.rescans_skipped));
    tracer->add("core.sched.backfill_hits",
                static_cast<double>(stats.backfill_hits));
    tracer->max("core.sched.peak_resident",
                static_cast<double>(stats.peak_resident_jobs));
  }
}

/// bench/ext_sched_scale's interarrival rule: mean service demand over
/// half the machine's units, which keeps every family near saturation
/// with a flat queue.
sweep::TraceConfig scale_config(const core::PartitionAllocator& allocator,
                                const std::vector<std::int64_t>& sizes,
                                int jobs) {
  sweep::TraceConfig config;
  config.num_jobs = jobs;
  const double mean_size =
      static_cast<double>(
          std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0})) /
      static_cast<double>(sizes.size());
  const double mean_base =
      0.5 * (config.min_base_seconds + config.max_base_seconds);
  config.mean_interarrival_seconds =
      mean_size * mean_base /
      (0.5 * static_cast<double>(allocator.total_units()));
  return config;
}

topo::DragonflyConfig scale_dragonfly() {
  topo::DragonflyConfig config;
  config.a = 4;
  config.h = 4;
  config.groups = 8;
  config.global_ports = 1;
  return config;
}

class SchedStream final : public Workload {
 public:
  explicit SchedStream(const WorkloadConfig& config) : config_(config) {
    using P = core::SchedulerPolicy;
    const int big = config.smoke ? 2000 : 100000;
    const int best_fit = config.smoke ? 500 : 5000;
    const int small = config.smoke ? 1000 : 10000;
    cases_ = {{"mira", P::kBestBisection, big, false},
              {"mira", P::kWaitForBest, big, false},
              {"mira", P::kEasyBackfill, big, false},
              {"mira", P::kEasyBackfill, best_fit, true},
              {"dragonfly", P::kBestBisection, small, false},
              {"fattree", P::kBestBisection, small, false}};
  }

  void setup(Tracer* tracer) override {
    // Single-threaded, set-up's layout scoring included: its brute-force
    // bisections opened OpenMP teams whose barriers made set-up time swing
    // 5x with the load on the other vCPUs.
    set_omp_team(1);
    prepared_.clear();  // allocators hold the oracle: drop them first
    oracle_.reset();
    Tracer::Span span(tracer, Layer::kSetup, "setup");
    if (tracer != nullptr) {
      oracle_ = std::make_unique<TracedOracle>(core::default_partition_oracle(),
                                               *tracer);
    }
    const core::PartitionOracle& oracle =
        oracle_ ? *oracle_ : core::default_partition_oracle();
    for (const Case& c : cases_) {
      Prepared p;
      p.key = c.family + "/" + core::to_string(c.policy) +
              (c.best_fit ? "+best-fit" : "") + "/" + std::to_string(c.jobs);
      if (c.family == "mira") {
        p.allocator = core::make_allocator(bgq::mira(), oracle);
      } else if (c.family == "dragonfly") {
        p.allocator = core::make_allocator(
            topo::TopologySpec::dragonfly(scale_dragonfly()), oracle);
      } else {
        p.allocator =
            core::make_allocator(topo::TopologySpec::fat_tree(8), oracle);
      }
      if (c.best_fit) {
        p.allocator->set_position_scoring(core::PositionScoring::kBestFit);
      }
      // feasible_unit_sizes queries candidate_qualities for every size:
      // the layout-scoring warm-up the streams then reuse.
      if (tracer != nullptr) {
        TracedAllocator view(*p.allocator, *tracer);
        p.sizes = core::feasible_unit_sizes(view);
      } else {
        p.sizes = core::feasible_unit_sizes(*p.allocator);
      }
      p.trace = scale_config(*p.allocator, p.sizes, c.jobs);
      p.policy = c.policy;
      p.jobs = c.jobs;
      prepared_.push_back(std::move(p));
    }
  }

  std::vector<OpResult> pass(Tracer* tracer) override {
    std::vector<OpResult> results;
    for (Prepared& p : prepared_) {
      results.push_back(run_op(tracer, p.key, true, [&](OpResult& r) {
        sweep::SyntheticJobSource source(p.sizes, p.trace, config_.seed);
        run_stream(*p.allocator, p.policy, source, p.jobs, tracer, r);
      }));
      // Return the jobs still running when the stream drained, so the
      // next pass starts from an empty machine (outside the timed op).
      for (std::int64_t id = 0; id < p.jobs; ++id) p.allocator->release(id);
      if (p.allocator->free_units() != p.allocator->total_units() &&
          results.back().error.empty()) {
        results.back().error = "units still held after releasing every job";
      }
    }
    return results;
  }

  int pool_workers() const override { return 1; }
  int omp_team() const override { return 1; }
  double nominal_pass_seconds() const override { return 10.0; }

 private:
  struct Case {
    std::string family;
    core::SchedulerPolicy policy;
    int jobs;
    bool best_fit;
  };
  struct Prepared {
    std::string key;
    std::unique_ptr<core::PartitionAllocator> allocator;
    std::vector<std::int64_t> sizes;
    sweep::TraceConfig trace;
    core::SchedulerPolicy policy = core::SchedulerPolicy::kFirstFit;
    std::int64_t jobs = 0;
  };

  WorkloadConfig config_;
  std::vector<Case> cases_;
  std::unique_ptr<TracedOracle> oracle_;
  std::vector<Prepared> prepared_;
};

// --------------------------------------------------------------------------
// caps_bulk
// --------------------------------------------------------------------------

/// Ordered node pairs one all-to-all within consecutive rank groups of
/// `group` ranks touches: a blocked rank map puts each group on a
/// contiguous node range of k nodes, which exchange k(k-1) node flows.
double node_pairs_in_groups(const simmpi::RankMap& map, std::int64_t group) {
  double pairs = 0.0;
  for (std::int64_t first = 0; first < map.num_ranks(); first += group) {
    const auto k = static_cast<double>(map.node_of(first + group - 1) -
                                       map.node_of(first) + 1);
    pairs += k * (k - 1.0);
  }
  return pairs;
}

class CapsBulk final : public Workload {
 public:
  explicit CapsBulk(const WorkloadConfig& config) : config_(config) {}

  void setup(Tracer* tracer) override {
    set_omp_team(config_.threads);
    Tracer::Span span(tracer, Layer::kSetup, "setup");
    calls_.clear();
    const bgq::Machine mira = bgq::mira();
    const auto list = bgq::mira_scheduler_partitions();
    const auto current = [&list](std::int64_t midplanes) {
      for (const bgq::PolicyEntry& entry : list) {
        if (entry.midplanes == midplanes) return entry.geometry;
      }
      throw std::logic_error("size missing from the Mira scheduler list");
    };
    const auto add_caps = [&](const std::string& prefix, std::int64_t midplanes,
                              strassen::CapsParams params) {
      const bgq::Geometry now = current(midplanes);
      const bgq::Geometry best = *bgq::best_geometry(mira, midplanes);
      add_call(prefix + "/current", now, params, 0);
      if (best != now) add_call(prefix + "/proposed", best, params, 0);
    };
    // Figure 5 at 4 and 8 midplanes (n = 32928, 31213 ranks, 4 BFS steps)
    // and the Figure 6 points at 2 and 4 midplanes (n = 9408). Left out
    // for run time and memory: Figure 5 at 16 and 24 midplanes and Figure
    // 6 at 8, whose geometries Figure 5's 8-midplane pair already prices.
    if (!config_.smoke) {
      add_caps("fig5/4mp", 4, {32928, 31213, 4});
      add_caps("fig5/8mp", 8, {32928, 31213, 4});
    }
    add_caps("fig6/2mp", 2, {9408, 2401, 4});
    add_caps("fig6/4mp", 4, {9408, 4802, 4});
    // bench/ext_kernels' 4-midplane N-body all-to-all pair.
    const std::int64_t bodies = config_.smoke ? 1 << 16 : 1 << 20;
    add_call("nbody/4mp/worse", bgq::Geometry(4, 1, 1, 1), std::nullopt, bodies);
    add_call("nbody/4mp/better", bgq::Geometry(2, 2, 1, 1), std::nullopt, bodies);

    // The seed only permutes the call order; every call is seed-free.
    order_.resize(calls_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::uint64_t state = config_.seed;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[static_cast<std::size_t>(sweep::next_u64(state) % i)]);
    }
  }

  std::vector<OpResult> pass(Tracer* tracer) override {
    std::optional<TracedEngine> traced;
    if (tracer != nullptr) traced.emplace(engine_, *tracer);
    core::ExperimentEngine& e =
        traced ? static_cast<core::ExperimentEngine&>(*traced) : engine_;
    std::vector<OpResult> results(calls_.size());
    for (const std::size_t i : order_) {
      const Call& call = calls_[i];
      results[i] = run_op(tracer, call.key, false,
                          [&](OpResult& r) { price(call, e, tracer, r); });
    }
    return results;
  }

  int pool_workers() const override { return 1; }
  int omp_team() const override { return config_.threads; }
  double nominal_pass_seconds() const override { return 6.0; }

 private:
  struct Call {
    std::string key;
    bgq::Geometry geometry;
    std::optional<strassen::CapsParams> caps;  ///< nullopt = N-body
    std::int64_t bodies = 0;
    double node_pairs = 0.0;
  };

  void add_call(std::string key, const bgq::Geometry& geometry,
                std::optional<strassen::CapsParams> caps, std::int64_t bodies) {
    const std::int64_t nodes = geometry.nodes();
    Call call{std::move(key), geometry, caps, bodies, 0.0};
    const simmpi::RankMap map(caps ? caps->ranks : nodes, nodes);
    if (caps) {
      std::int64_t group = caps->ranks;
      for (int step = 0; step < caps->bfs_steps; ++step, group /= 7) {
        // Scatter and gather both price the step's group all-to-all.
        call.node_pairs += 2.0 * node_pairs_in_groups(map, group);
      }
    } else {
      call.node_pairs = node_pairs_in_groups(map, nodes);
    }
    calls_.push_back(std::move(call));
  }

  /// CAPS: the engine's caps_comm_seconds (core::caps_comm_seconds builds
  /// the node torus, rank map and communicator inside the call). N-body:
  /// the step apps::kernel_sensitivity prices, on a network built here and
  /// decorated when traced.
  static void price(const Call& call, core::ExperimentEngine& e, Tracer* tracer,
                    OpResult& r) {
    double seconds = 0.0;
    if (call.caps) {
      seconds = e.caps_comm_seconds(call.geometry, *call.caps);
    } else {
      const simnet::TorusNetwork network(call.geometry.node_torus());
      std::optional<TracedNetwork> traced;
      if (tracer != nullptr) traced.emplace(network, *tracer, Layer::kTorusRoute);
      const simnet::Network& net =
          traced ? static_cast<const simnet::Network&>(*traced) : network;
      const std::int64_t nodes = network.num_nodes();
      Tracer::Span span(tracer, Layer::kSimmpi);
      const simmpi::Communicator comm(&net, simmpi::RankMap(nodes, nodes));
      seconds = apps::simulate_nbody_communication(comm, {call.bodies, 1, 32.0});
    }
    r.values = {{"comm_s", seconds}};
    r.node_pairs = call.node_pairs;
    if (!std::isfinite(seconds) || seconds <= 0.0) {
      r.error = "communication time is not a positive number";
    }
  }

  WorkloadConfig config_;
  core::ExperimentEngine engine_;  // the library's default engine: no memo
  std::vector<Call> calls_;
  std::vector<std::size_t> order_;
};

// --------------------------------------------------------------------------
// design_sweep
// --------------------------------------------------------------------------

std::uint64_t pack_dims(const bgq::Geometry& g) {
  std::uint64_t packed = 0;
  for (const std::int64_t d : g.dims()) {
    packed = packed * 256 + static_cast<std::uint64_t>(d);
  }
  return packed;
}

class DesignSweep final : public Workload {
 public:
  // The pool lives as long as the process: thread start-up is not set-up
  // work a pass reuses, and its wake-up latency made setup_s bimodal.
  explicit DesignSweep(const WorkloadConfig& config)
      : config_(config),
        machines_{bgq::mira(), bgq::juqueen()},
        pool_(std::make_unique<sweep::ThreadPool>(config.threads)) {}

  void setup(Tracer* tracer) override {
    Tracer::Span span(tracer, Layer::kSetup, "setup");
    rows_.clear();
    // One row per size feasible on Mira or JUQUEEN, pricing both machines'
    // geometries of that size. Every geometry then belongs to one row, so
    // the engine's ping-pong memo never races two misses on one key and
    // the routing counts repeat exactly.
    std::vector<std::int64_t> sizes;
    for (const bgq::Machine& machine : machines_) {
      const auto feasible = bgq::feasible_sizes(machine);
      sizes.insert(sizes.end(), feasible.begin(), feasible.end());
    }
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    for (const std::int64_t size : sizes) {
      if (config_.smoke && size > 4) continue;
      Row row;
      row.kind = Row::kGeometry;
      row.key = "geom/" + std::to_string(size);
      row.size = size;
      rows_.push_back(row);
    }
    designs_ = core::topology_design_cases(config_.smoke);
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      Row row;
      row.kind = Row::kTopology;
      row.key = "topo/" + designs_[i].tier + "/" + designs_[i].spec.id();
      row.index = i;
      rows_.push_back(row);
    }
    // Heaviest rows first: topology designs by host count, then geometry
    // rows by size (the scheduler rows below are light).
    const auto cost = [this](const Row& row) -> double {
      if (row.kind == Row::kTopology) {
        return 1e12 + static_cast<double>(designs_[row.index].spec.num_hosts());
      }
      return static_cast<double>(row.size);
    };
    std::stable_sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
      return cost(a) > cost(b);
    });
    // One row per (machine, policy) cell of the scheduler grid, streaming
    // all its (mix, replication) traces.
    grid_ = sweep::ext_sched_topologies_grid(config_.smoke);
    for (std::size_t m = 0; m < grid_.machines.size(); ++m) {
      for (const core::SchedulerPolicy policy : grid_.policies) {
        Row row;
        row.kind = Row::kSched;
        row.key = "sched/" + grid_.machines[m].label + "/" + core::to_string(policy);
        row.index = m;
        row.policy = policy;
        rows_.push_back(row);
      }
    }
    // The pool seeds each worker with a contiguous share of the indices:
    // deal the rows round-robin into one lane per worker, so every share
    // starts with its part of the heavy rows.
    const auto lanes = static_cast<std::size_t>(config_.threads);
    std::vector<Row> dealt;
    dealt.reserve(rows_.size());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t i = lane; i < rows_.size(); i += lanes) {
        dealt.push_back(rows_[i]);
      }
    }
    rows_ = std::move(dealt);
  }

  std::vector<OpResult> pass(Tracer* tracer) override {
    // A fresh memo layer per pass, so every pass pays the same misses.
    sweep::SweepContext context;
    sweep::SweepEngine engine(context, *pool_);
    std::optional<TracedEngine> traced;
    if (tracer != nullptr) traced.emplace(engine, *tracer);
    core::ExperimentEngine& e =
        traced ? static_cast<core::ExperimentEngine&>(*traced) : engine;

    std::vector<OpResult> results(rows_.size());
    e.parallel_for(static_cast<std::int64_t>(rows_.size()), [&](std::int64_t i) {
      // Pool workers must not open OpenMP teams of their own.
      set_omp_team(1);
      const Row& row = rows_[static_cast<std::size_t>(i)];
      results[static_cast<std::size_t>(i)] =
          run_op(tracer, row.key, row.kind == Row::kSched,
                 [&](OpResult& r) { run_row(row, e, tracer, r); });
    });

    if (tracer != nullptr) {
      double hits = 0.0;
      double misses = 0.0;
      for (const auto& named : context.all_stats()) {
        hits += static_cast<double>(named.stats.hits);
        misses += static_cast<double>(named.stats.misses);
      }
      tracer->add("sweep.cache.hits", hits);
      tracer->add("sweep.cache.misses", misses);
    }
    return results;
  }

  int pool_workers() const override { return config_.threads; }
  int omp_team() const override { return 1; }
  double nominal_pass_seconds() const override { return 1.2; }

 private:
  struct Row {
    enum Kind { kGeometry, kTopology, kSched } kind = kGeometry;
    std::string key;
    std::int64_t size = 0;
    std::size_t index = 0;  ///< design point or scheduler machine
    core::SchedulerPolicy policy = core::SchedulerPolicy::kFirstFit;
  };

  void run_row(const Row& row, core::ExperimentEngine& e, Tracer* tracer,
               OpResult& r) const {
    switch (row.kind) {
      case Row::kGeometry: return geometry_row(row, e, tracer, r);
      case Row::kTopology: return topology_row(row, e, r);
      case Row::kSched: return sched_row(row, e, tracer, r);
    }
  }

  /// Best vs worst geometry of one size on each machine that has it: the
  /// engine's furthest-node ping-pong, one halo phase and the FFT
  /// butterfly phases on each node torus. Fields are prefixed
  /// "<machine>.<worst|best>.".
  void geometry_row(const Row& row, core::ExperimentEngine& e, Tracer* tracer,
                    OpResult& r) const {
    for (const bgq::Machine& machine : machines_) {
      const auto worst = e.worst_geometry(machine, row.size);
      const auto best = e.best_geometry(machine, row.size);
      if (!worst || !best) continue;  // the size does not fit this machine
      r.exact.emplace_back(machine.name + ".worst_dims", pack_dims(*worst));
      r.exact.emplace_back(machine.name + ".best_dims", pack_dims(*best));
      for (const auto& [label, geometry] :
           {std::pair<std::string, bgq::Geometry>{"worst", *worst},
            std::pair<std::string, bgq::Geometry>{"best", *best}}) {
        const std::string prefix = machine.name + "." + label + ".";
        const double pingpong =
            e.pingpong(geometry, core::paper_pingpong_config()).measured_seconds;
        const simnet::TorusNetwork network(geometry.node_torus());
        std::optional<TracedNetwork> traced;
        if (tracer != nullptr) traced.emplace(network, *tracer, Layer::kTorusRoute);
        const simnet::Network& net =
            traced ? static_cast<const simnet::Network&>(*traced) : network;
        const std::int64_t nodes = network.num_nodes();
        double halo = 0.0;
        double fft = 0.0;
        {
          Tracer::Span span(tracer, Layer::kSimmpi);
          const simmpi::Communicator comm(&net, simmpi::RankMap(nodes, nodes));
          halo = apps::simulate_halo_communication(comm, {1, 1.0e6});
        }
        {
          Tracer::Span span(tracer, Layer::kSimmpi);
          // The butterfly needs a power-of-two rank count: the largest that
          // fits, as bench/ext_kernels runs it.
          std::int64_t p = 1;
          while (p * 2 <= nodes) p *= 2;
          const simmpi::Communicator comm(&net, simmpi::RankMap(p, nodes));
          fft = apps::simulate_fft_communication(comm, {std::int64_t{1} << 24, 16.0});
        }
        r.values.emplace_back(prefix + "pingpong_s", pingpong);
        r.values.emplace_back(prefix + "halo_s", halo);
        r.values.emplace_back(prefix + "fft_s", fft);
        for (const double v : {pingpong, halo, fft}) {
          if (!std::isfinite(v) || v <= 0.0) {
            r.error = prefix + " priced a non-positive time";
          }
        }
      }
    }
    if (r.exact.empty()) throw std::logic_error("size fits neither machine");
  }

  /// One ext_topologies design point: core::topology_design_row through
  /// the engine (graph build, bisection, and the bisection pairing on the
  /// family's Network backend).
  void topology_row(const Row& row, core::ExperimentEngine& e, OpResult& r) const {
    const core::TopologyDesignRow d = core::topology_design_row(designs_[row.index], &e);
    r.exact = {{"vertices", static_cast<std::uint64_t>(d.vertices)},
               {"edges", static_cast<std::uint64_t>(d.edges)},
               {"hosts", static_cast<std::uint64_t>(d.hosts)}};
    r.values = {{"capacity", d.link_capacity_total},
                {"bisection", d.bisection.value},
                {"pairing_s", d.pairing_seconds}};
    if (!(d.bisection.value > 0.0) || !(d.pairing_seconds > 0.0)) {
      r.error = "non-positive bisection or pairing time";
    }
  }

  /// One ext_sched_topologies (machine, policy) cell: the trace of every
  /// (mix, replication), exactly as sweep::run_topology_scheduler_sweep
  /// computes it. Stream outputs are prefixed "f<mix>.r<replication>.".
  void sched_row(const Row& row, core::ExperimentEngine& e, Tracer* tracer,
                 OpResult& r) const {
    const sweep::TopologyMachineCase& machine = grid_.machines[row.index];
    const auto fractions =
        static_cast<std::int64_t>(grid_.contention_fractions.size());
    for (std::int64_t f = 0; f < fractions; ++f) {
      for (std::int64_t rep = 0; rep < grid_.replications; ++rep) {
        sweep::TraceConfig trace = grid_.trace;
        trace.contention_fraction =
            grid_.contention_fractions[static_cast<std::size_t>(f)];
        const std::uint64_t seed =
            sweep::task_seed(config_.seed, f * grid_.replications + rep);
        const auto allocator =
            core::make_allocator(machine.spec, e.partition_oracle());
        sweep::SyntheticJobSource source(machine.size_pool, trace, seed);
        OpResult stream;
        run_stream(*allocator, row.policy, source, trace.num_jobs, tracer, stream);
        const std::string prefix =
            "f" + std::to_string(f) + ".r" + std::to_string(rep) + ".";
        for (const auto& [name, v] : stream.values) r.values.emplace_back(prefix + name, v);
        for (const auto& [name, v] : stream.exact) r.exact.emplace_back(prefix + name, v);
        r.jobs += stream.jobs;
        r.run_seconds += stream.run_seconds;
        if (r.error.empty() && !stream.error.empty()) r.error = prefix + stream.error;
      }
    }
  }

  WorkloadConfig config_;
  std::vector<bgq::Machine> machines_;
  std::unique_ptr<sweep::ThreadPool> pool_;
  std::vector<Row> rows_;
  std::vector<core::TopologyDesignCase> designs_;
  sweep::TopologySchedulerGrid grid_;
};

}  // namespace

bool same_outputs(const OpResult& a, const OpResult& b) {
  if (a.key != b.key || a.error != b.error || a.exact != b.exact ||
      a.values.size() != b.values.size()) {
    return false;
  }
  // Values agree to 1e-9 relative, not bit for bit: TorusNetwork::route_all
  // adds its OpenMP threads' partial loads in arrival order, so the last
  // bits of a priced time are not fixed from run to run.
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const auto& [name_a, va] = a.values[i];
    const auto& [name_b, vb] = b.values[i];
    if (name_a != name_b) return false;
    if (!(std::fabs(va - vb) <= 1e-9 * std::fabs(vb))) return false;
  }
  return true;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sched_stream", "caps_bulk",
                                                 "design_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "sched_stream") return std::make_unique<SchedStream>(config);
  if (name == "caps_bulk") return std::make_unique<CapsBulk>(config);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(config);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
