// Machine-readable perf snapshot of the whole stack: one timed phase per
// subsystem (bisection search, routing, scheduler sweep, topology design,
// CAPS simulation), written as BENCH_<date>.json together with the obs
// metrics the phases produced. A checked-in snapshot under bench/baselines/
// is the CI reference: --baseline=PATH compares phase times against it and
// exits nonzero when any phase regresses more than 2x.
//
// Flags (not a Runner driver — the artifact is JSON, not a table):
//   --fast             smaller grids (the CI configuration)
//   --threads N        worker count (< 1 selects hardware concurrency)
//   --seed S           base seed for the sweep phases
//   --out PATH         snapshot path (default BENCH_<YYYY-MM-DD>.json)
//   --baseline PATH    compare against a previous snapshot; >2x = exit 1
//   --trace-out PATH   also write a Chrome trace_event JSON of the run
//
// Comparison floor: a phase faster than 10 ms in the baseline is compared
// against a 10 ms floor, so micro-phase jitter cannot fail CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/scheduler_stream.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/traffic.hpp"
#include "sweep/runner.hpp"
#include "sweep/trace.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"

namespace {

using namespace npac;

constexpr const char* kUsage =
    "flags: [--fast] [--threads N] [--seed S] [--out PATH] "
    "[--baseline PATH] [--trace-out PATH]";

struct ReportOptions {
  bool fast = false;
  int threads = 0;
  std::uint64_t seed = 42;
  std::string out;
  std::string baseline;
  std::string trace_out;
};

ReportOptions parse_flags(int argc, char** argv) {
  ReportOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&](const char* prefix) -> std::string {
      if (flag.rfind(std::string(prefix) + "=", 0) == 0) {
        return flag.substr(std::string(prefix).size() + 1);
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + ": missing value\n" + kUsage);
      }
      return argv[++i];
    };
    if (flag == "--fast") {
      options.fast = true;
    } else if (flag == "--threads" || flag.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(value("--threads").c_str());
    } else if (flag == "--seed" || flag.rfind("--seed=", 0) == 0) {
      options.seed =
          static_cast<std::uint64_t>(std::atoll(value("--seed").c_str()));
    } else if (flag == "--out" || flag.rfind("--out=", 0) == 0) {
      options.out = value("--out");
    } else if (flag == "--baseline" || flag.rfind("--baseline=", 0) == 0) {
      options.baseline = value("--baseline");
    } else if (flag == "--trace-out" || flag.rfind("--trace-out=", 0) == 0) {
      options.trace_out = value("--trace-out");
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'\n" + kUsage);
    }
  }
  return options;
}

std::string today() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  gmtime_r(&now, &parts);
  char text[16];
  std::strftime(text, sizeof text, "%Y-%m-%d", &parts);
  return text;
}

struct PhaseResult {
  std::string name;
  double seconds = 0.0;
  std::int64_t rows = 0;
};

/// The contended-cache kernel: n tiny tasks, each reading one seed-selected
/// word of one of 64 cached 16 KiB payloads (few keys, so every worker
/// hammers the same entries) into its own slot.
void striped_contended_run(int threads, std::int64_t n) {
  constexpr std::int64_t kKeys = 64;
  constexpr std::size_t kWords = 2048;
  sweep::ThreadPool pool(threads);
  sweep::MemoCache<std::int64_t, std::vector<std::uint64_t>> cache;
  std::vector<std::uint64_t> slots(static_cast<std::size_t>(n));
  pool.run_indexed(n, [&](std::int64_t i) {
    const std::int64_t key = i % kKeys;
    const auto payload = cache.get_or_compute(key, [key] {
      std::vector<std::uint64_t> words(kWords);
      for (std::size_t j = 0; j < kWords; ++j) {
        words[j] = sweep::task_seed(static_cast<std::uint64_t>(key),
                                    static_cast<std::int64_t>(j));
      }
      return words;
    });
    slots[static_cast<std::size_t>(i)] =
        (*payload)[sweep::task_seed(5, i) % kWords] ^ sweep::task_seed(99, i);
  });
}

/// The balanced-load scheduler workload: job sizes across Mira's feasible
/// ladder, interarrival tuned to ~0.7 effective utilization, so the queue
/// depth is flat in trace length while the head still blocks on most
/// arrivals.
sweep::TraceConfig scale_trace_config(int num_jobs) {
  sweep::TraceConfig config;
  config.num_jobs = num_jobs;
  config.mean_interarrival_seconds = 18.0;
  config.min_base_seconds = 20.0;
  config.max_base_seconds = 40.0;
  return config;
}

std::vector<std::int64_t> scale_size_pool() {
  return {1, 2, 4, 8, 16, 32, 48, 64, 96};
}

/// Streams the balanced-load trace through the streaming scheduler on an
/// empty Mira, best-bisection policy.
core::StreamStats streaming_run(int num_jobs, std::uint64_t seed) {
  const auto allocator = core::make_allocator(bgq::mira());
  sweep::SyntheticJobSource source(scale_size_pool(),
                                   scale_trace_config(num_jobs), seed);
  return core::StreamingScheduler(*allocator,
                                  core::SchedulerPolicy::kBestBisection)
      .run(source, [](const core::ScheduledJob&) {});
}

std::string report_json(const ReportOptions& options, int resolved_threads,
                        const std::vector<PhaseResult>& phases,
                        const obs::Registry& registry) {
  std::ostringstream out;
  char buffer[64];
  out << "{\"schema\":\"npac-perf-1\",\"date\":\"" << today() << "\","
      << "\"fast\":" << (options.fast ? "true" : "false") << ","
      << "\"threads\":" << resolved_threads << ","
      << "\"seed\":" << options.seed << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%.6f", phases[i].seconds);
    out << (i > 0 ? "," : "") << "{\"name\":\"" << phases[i].name
        << "\",\"seconds\":" << buffer << ",\"rows\":" << phases[i].rows
        << "}";
  }
  out << "],\"metrics\":" << registry.metrics_json() << "}\n";
  return out.str();
}

/// Nonzero when any phase is more than 2x slower than its baseline entry
/// (with a 10 ms floor so sub-10 ms phases never flake).
int compare_against_baseline(const std::string& path,
                             const std::vector<PhaseResult>& phases) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read baseline '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const obs::JsonValue baseline = obs::JsonValue::parse(text.str());
  int regressions = 0;
  for (const PhaseResult& phase : phases) {
    double base_seconds = -1.0;
    for (const obs::JsonValue& entry : baseline.at("phases").array()) {
      if (entry.at("name").string() == phase.name) {
        base_seconds = entry.at("seconds").number();
        break;
      }
    }
    if (base_seconds < 0.0) {
      std::fprintf(stderr, "perf_report: phase '%s' has no baseline entry\n",
                   phase.name.c_str());
      continue;
    }
    const double limit = 2.0 * std::max(base_seconds, 0.01);
    if (phase.seconds > limit) {
      std::fprintf(stderr,
                   "perf_report: REGRESSION in '%s': %.3f s vs baseline "
                   "%.3f s (limit %.3f s)\n",
                   phase.name.c_str(), phase.seconds, base_seconds, limit);
      ++regressions;
    } else {
      std::fprintf(stderr, "perf_report: '%s' ok: %.3f s (baseline %.3f s)\n",
                   phase.name.c_str(), phase.seconds, base_seconds);
    }
  }
  return regressions > 0 ? 1 : 0;
}

int run_report(const ReportOptions& options) {
  obs::Registry::Options registry_options;
  registry_options.tracing = !options.trace_out.empty();
  obs::Registry registry(registry_options);
  obs::ScopedRegistry scoped(registry);

  sweep::SweepContext context;
  sweep::ThreadPool pool(options.threads);
  sweep::SweepEngine engine(context, pool);
  sweep::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  sweep_options.base_seed = options.seed;

  std::vector<PhaseResult> phases;
  const auto phase = [&](const char* name, const auto& body) {
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t rows = body();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    phases.push_back({name, seconds, rows});
    std::fprintf(stderr, "perf_report: %s — %lld rows in %.3f s\n", name,
                 static_cast<long long>(rows), seconds);
  };

  phase("mira_bisection", [&] {
    return static_cast<std::int64_t>(
        sweep::mira_bisection_sweep(sweep_options, context).size());
  });

  phase("routing_sweep", [&] {
    sweep::RoutingSweepGrid grid;
    grid.geometries = {bgq::Geometry(2, 2, 1, 1), bgq::Geometry(4, 3, 2, 1),
                       bgq::Geometry(3, 2, 2, 2)};
    if (!options.fast) {
      grid.geometries.push_back(bgq::Geometry(4, 4, 2, 1));
      grid.geometries.push_back(bgq::Geometry(4, 2, 2, 2));
    }
    grid.tie_breaks = {simnet::TieBreak::kSplit, simnet::TieBreak::kPositive};
    grid.config.total_rounds = 1;
    grid.config.warmup_rounds = 0;
    grid.config.bytes_per_round = 2147483648.0;
    return static_cast<std::int64_t>(
        sweep::run_routing_sweep(grid, sweep_options, context).size());
  });

  // The GraphNetwork routing hot path on the two non-torus families the
  // procurement grids sweep: ECMP route_all (one BFS + level propagation
  // per destination group) over a Cray-style dragonfly and a k-ary
  // fat-tree, under both tie-break policies. This is the kernel the
  // allocation-free CSR scratch path targets; the committed baseline keeps
  // it honest. Graphs AND workload flow vectors are prebuilt outside the
  // timed body — generation cost is identical across routing
  // implementations and would only dilute the signal.
  topo::DragonflyConfig dragonfly;
  topo::FatTreeConfig fat_tree;
  int graph_route_reps = 3;
  if (options.fast) {
    dragonfly.a = 8;
    dragonfly.h = 4;
    dragonfly.groups = 16;
    fat_tree.k = 10;
  } else {
    fat_tree.k = 12;
    graph_route_reps = 5;
  }
  struct GraphRouteCase {
    topo::Graph graph;
    std::vector<simnet::Flow> pairing;
    std::vector<simnet::Flow> all_to_all;
  };
  GraphRouteCase graph_route_cases[2] = {{topo::make_dragonfly(dragonfly), {}, {}},
                                         {topo::make_fat_tree(fat_tree), {}, {}}};
  for (GraphRouteCase& c : graph_route_cases) {
    c.pairing = simnet::furthest_node_pairing(c.graph, 1.0e6);
    c.all_to_all = simnet::block_all_to_all(0, c.graph.num_vertices(), 1.0e6);
  }
  phase("graph_route", [&] {
    std::int64_t rows = 0;
    for (int rep = 0; rep < graph_route_reps; ++rep) {
      for (const GraphRouteCase& c : graph_route_cases) {
        for (const simnet::TieBreak tie :
             {simnet::TieBreak::kSplit, simnet::TieBreak::kPositive}) {
          simnet::NetworkOptions net_options;
          net_options.tie_break = tie;
          const simnet::GraphNetwork net(c.graph, net_options);
          (void)net.route_all(c.pairing).max_load();
          (void)net.route_all(c.all_to_all).max_load();
          rows += 2;
        }
      }
    }
    return rows;
  });

  phase("sched_topologies", [&] {
    const auto grid = sweep::ext_sched_topologies_grid(options.fast);
    return static_cast<std::int64_t>(
        sweep::run_topology_scheduler_sweep(grid, sweep_options, context)
            .size());
  });

  phase("topology_design", [&] {
    const auto cases = core::topology_design_cases(options.fast);
    pool.run_indexed(static_cast<std::int64_t>(cases.size()),
                     [&](std::int64_t i) {
                       core::topology_design_row(
                           cases[static_cast<std::size_t>(i)], &engine);
                     });
    return static_cast<std::int64_t>(cases.size());
  });

  phase("caps", [&] {
    if (options.fast) {
      // Two small CAPS runs — same kernel, a fraction of fig5's rank
      // count, so the CI phase stays in the hundreds of milliseconds.
      const strassen::CapsParams params{/*n=*/8192, /*ranks=*/343,
                                        /*bfs_steps=*/2};
      context.caps_comm_seconds(bgq::Geometry(2, 2, 1, 1), params);
      context.caps_comm_seconds(bgq::Geometry(4, 2, 1, 1), params);
      return std::int64_t{2};
    }
    // The Figure 5 points without the 24-midplane outlier (which routes
    // ~1.5e8 node-level flows — a benchmark of patience, not the kernel).
    return static_cast<std::int64_t>(
        core::fig5_matmul(/*include_24_midplanes=*/false,
                          /*bfs_steps=*/4, &engine)
            .size());
  });

  // The executor substrate itself: the contended-cache kernel on the
  // work-stealing pool and striped memo cache at 16 oversubscribed
  // workers; the regression gate keeps pool_steal honest release over
  // release.
  const std::int64_t pool_tasks = options.fast ? (1 << 14) : (1 << 16);
  phase("pool_steal", [&] {
    striped_contended_run(/*threads=*/16, pool_tasks);
    return pool_tasks;
  });

  // The streaming scheduler on a 10^5-job balanced-load Mira trace,
  // best-bisection policy. The phase time covers two runs; the stderr line
  // reports events/second of the faster one.
  const int sched_jobs = 100000;
  double sched_min_seconds = 1.0e300;
  std::uint64_t sched_events = 0;
  phase("sched_stream", [&] {
    for (int rep = 0; rep < 2; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      sched_events = streaming_run(sched_jobs, options.seed).events;
      sched_min_seconds = std::min(
          sched_min_seconds,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    }
    return std::int64_t{sched_jobs};
  });
  std::fprintf(stderr, "perf_report: sched_stream %.0f events/s (faster of two runs)\n",
               static_cast<double>(sched_events) / sched_min_seconds);

  context.publish_metrics(registry);

  const std::string out_path =
      options.out.empty() ? "BENCH_" + today() + ".json" : options.out;
  const std::string body = report_json(
      options, pool.num_threads(), phases, registry);
  {
    std::ofstream out(out_path, std::ios::binary);
    out << body;
    if (!out) {
      std::fprintf(stderr, "error: cannot write snapshot '%s'\n",
                   out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "perf_report: wrote %s\n", out_path.c_str());

  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out, std::ios::binary);
    out << registry.trace().json();
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "perf_report: wrote %s\n", options.trace_out.c_str());
  }

  if (!options.baseline.empty()) {
    return compare_against_baseline(options.baseline, phases);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_report(parse_flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
