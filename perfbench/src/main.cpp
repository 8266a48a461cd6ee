// npac_perfbench: runs one benchmark workload and prints its metrics.
//
//   npac_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--pins FILE] [--spans-out FILE] [--git-sha SHA]
//                  [--smoke] [--emit-pins]
//
// The workload is set up (plain runs: repeatedly, in timed batches), then
// runs a fixed number of passes, about S seconds' worth on the reference
// host. --trace 0 runs plain passes and reports the end-to-end metrics;
// --trace 1 alternates plain and traced passes and reports the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it give every metric by name with its unit and the run's
// fingerprint. perfbench/README.md documents each metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simnet/flow.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Layer;
using perfbench::OpResult;
using perfbench::Report;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 10;
  int trace = 0;
  std::string pins;
  std::string spans_out;
  std::string git_sha = "unavailable";
  bool smoke = false;
  bool emit_pins = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value());
    } else if (flag == "--pins") {
      args.pins = value();
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--emit-pins") {
      args.emit_pins = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.trace != 0 && args.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (args.seconds < 0) {
    throw std::invalid_argument("--seconds must be >= 0");
  }
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile of q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --------------------------------------------------------------------------
// Pins: values of the current tree at the default seed.
// --------------------------------------------------------------------------

struct Pin {
  std::string seed;  // "*" = every seed
  std::string value;
  bool used = false;
};

/// Lines "workload seed op field value"; '#' starts a comment.
std::map<std::string, Pin> load_pins(const std::string& path,
                                     const std::string& workload) {
  std::map<std::string, Pin> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, seed, op, field, value;
    if (!(fields >> w >> seed >> op >> field >> value)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": expected 5 fields");
    }
    if (w == workload) pins[op + " " + field] = {seed, value};
  }
  return pins;
}

/// Checks one result against the pins; returns the first mismatch or "".
std::string check_pins(const OpResult& r, std::uint64_t seed,
                       std::map<std::string, Pin>& pins) {
  const std::string seed_text = std::to_string(seed);
  const auto find = [&](const std::string& field) -> Pin* {
    const auto it = pins.find(r.key + " " + field);
    if (it == pins.end()) return nullptr;
    if (it->second.seed != "*" && it->second.seed != seed_text) return nullptr;
    it->second.used = true;
    return &it->second;
  };
  for (const auto& [field, v] : r.values) {
    if (Pin* pin = find(field)) {
      const double want = std::stod(pin->value);
      if (!(std::fabs(v - want) <= 1e-9 * std::fabs(want))) {
        return field + " = " + number(v) + ", pinned " + pin->value;
      }
    }
  }
  for (const auto& [field, v] : r.exact) {
    if (Pin* pin = find(field)) {
      if (std::to_string(v) != pin->value) {
        return field + " = " + std::to_string(v) + ", pinned " + pin->value;
      }
    }
  }
  return {};
}

// --------------------------------------------------------------------------
// Per-layer metrics from one traced set-up plus one traced pass.
// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> layer_metrics(const Report& setup, const Report& pass,
                                  int pool_workers) {
  const auto calls = [&](Layer l) {
    return static_cast<double>(setup.at(l).calls + pass.at(l).calls);
  };
  const auto total = [&](Layer l) {
    return static_cast<double>(setup.at(l).total_ns + pass.at(l).total_ns) * 1e-9;
  };
  const auto self = [&](Layer l) {
    return static_cast<double>(setup.at(l).self_ns + pass.at(l).self_ns) * 1e-9;
  };
  const auto count = [&](const char* name) {
    return setup.counter(name) + pass.counter(name);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double op_seconds = pass.root_seconds(Layer::kOp);

  const double tries = calls(Layer::kAllocTryPlace);
  const double fails = count("core.alloc.try_place.fails");
  const double alloc_self =
      self(Layer::kAllocTryPlace) + self(Layer::kAllocRelease) +
      self(Layer::kAllocQualities);
  // Route spans a communicator issued: decorated ones and the library's
  // own, folded in from its obs trace.
  const auto [mpi_phases, mpi_flows] = [&] {
    const auto a = setup.routes_under(Layer::kSimmpi);
    const auto b = pass.routes_under(Layer::kSimmpi);
    return std::pair{a.first + b.first, a.second + b.second};
  }();
  // Routing counts come from the library's own obs counters.
  const double torus_route = total(Layer::kTorusRoute);
  const double torus_flows = count("obs.net.torus.flows");
  const double torus_calls = count("obs.net.torus.route_all");
  const double pool_busy = count("sweep.pool.busy_s");
  const double pool_wall = count("sweep.pool.wall_s");
  const double hits = count("sweep.cache.hits");
  const double misses = count("sweep.cache.misses");

  return {
      {"core.alloc.self_s", alloc_self, "s"},
      {"core.alloc.try_place.calls", tries, "count"},
      {"core.alloc.try_place.fails", fails, "count"},
      {"core.alloc.place_ratio", ratio(tries - fails, tries), "ratio"},
      {"core.alloc.release.calls", calls(Layer::kAllocRelease), "count"},
      {"core.alloc.qualities_s", total(Layer::kAllocQualities), "s"},
      {"core.alloc.share", ratio(alloc_self, op_seconds), "ratio"},
      {"core.oracle.geometries.calls", calls(Layer::kOracleGeometries), "count"},
      {"core.oracle.bisection.calls", calls(Layer::kOracleBisection), "count"},
      {"core.oracle.self_s",
       self(Layer::kOracleGeometries) + self(Layer::kOracleBisection), "s"},
      {"core.sched.self_s", self(Layer::kSched), "s"},
      {"core.sched.events", count("core.sched.events"), "count"},
      {"core.sched.rescans_skipped", count("core.sched.rescans_skipped"), "count"},
      {"core.sched.backfill_hits", count("core.sched.backfill_hits"), "count"},
      {"core.sched.peak_resident", count("core.sched.peak_resident"), "count"},
      {"core.sched.share", ratio(self(Layer::kSched), op_seconds), "ratio"},
      {"sweep.trace.next.calls", calls(Layer::kTraceNext), "count"},
      {"sweep.trace.self_s", self(Layer::kTraceNext), "s"},
      {"simmpi.self_s", self(Layer::kSimmpi), "s"},
      {"simmpi.phases", mpi_phases, "count"},
      {"simmpi.flows", mpi_flows, "count"},
      {"simmpi.flow_mb",
       mpi_flows * static_cast<double>(sizeof(npac::simnet::Flow)) * 1e-6, "MB"},
      {"simmpi.share", ratio(self(Layer::kSimmpi), op_seconds), "ratio"},
      {"simnet.torus.route_s", torus_route, "s"},
      {"simnet.torus.flows", torus_flows, "count"},
      {"simnet.torus.ns_per_flow", ratio(torus_route * 1e9, torus_flows), "ns"},
      {"simnet.torus.route_all.calls", torus_calls, "count"},
      {"simnet.torus.us_per_call", ratio(torus_route * 1e6, torus_calls), "us"},
      {"simnet.torus.share", ratio(torus_route, op_seconds), "ratio"},
      {"simnet.torus.route_s.fig5_4mp",
       pass.seconds_under(Layer::kTorusRoute, "fig5/4mp/"), "s"},
      {"simnet.torus.route_s.fig5_8mp",
       pass.seconds_under(Layer::kTorusRoute, "fig5/8mp/"), "s"},
      {"simnet.price_s", self(Layer::kPrice), "s"},
      {"simnet.graph.route_s", total(Layer::kGraphRoute), "s"},
      {"simnet.graph.route_all.calls", count("obs.net.graph.route_all"), "count"},
      {"simnet.graph.flows", count("obs.net.graph.flows"), "count"},
      {"simnet.graph.bfs_invocations", count("obs.net.graph.bfs_invocations"),
       "count"},
      {"core.bisection.calls", calls(Layer::kBisection), "count"},
      {"core.bisection.s", total(Layer::kBisection), "s"},
      {"core.pairing.s", total(Layer::kPairing), "s"},
      {"bgq.geometry.calls", calls(Layer::kGeometry), "count"},
      {"bgq.geometry.s", total(Layer::kGeometry), "s"},
      {"simnet.pingpong.s", total(Layer::kPingpong), "s"},
      {"sweep.pool.busy_s", pool_busy, "s"},
      {"sweep.pool.idle_frac",
       pool_wall > 0.0 ? 1.0 - pool_busy / (pool_workers * pool_wall) : 0.0,
       "ratio"},
      {"sweep.cache.hits", hits, "count"},
      {"sweep.cache.misses", misses, "count"},
      {"sweep.cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"bench.sink_s", self(Layer::kSink), "s"},
  };
}

/// Work counts that must repeat exactly across traced passes at one seed.
const std::vector<std::string>& deterministic_counts() {
  static const std::vector<std::string> names = {
      "core.alloc.try_place.calls",   "core.alloc.release.calls",
      "core.sched.events",            "simnet.torus.flows",
      "simnet.torus.route_all.calls", "simnet.graph.flows",
      "simnet.graph.route_all.calls", "simmpi.flows",
      "simmpi.phases"};
  return names;
}

std::string fingerprint(const Args& args, const perfbench::Workload& workload,
                        int threads, std::size_t setups, std::size_t passes) {
  std::ostringstream omp_env;
  bool first = true;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("OMP_", 0) != 0 && entry.rfind("GOMP_", 0) != 0) continue;
    const auto eq = entry.find('=');
    omp_env << (first ? "" : ",") << json_string(entry.substr(0, eq)) << ":"
            << json_string(eq == std::string::npos ? "" : entry.substr(eq + 1));
    first = false;
  }
  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
      << ",\"seconds\":" << args.seconds << ",\"smoke\":" << (args.smoke ? "true" : "false")
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"thread_budget\":" << threads
      << ",\"pool_workers\":" << workload.pool_workers()
      << ",\"omp_team\":" << workload.omp_team()
#ifdef _OPENMP
      << ",\"openmp\":true"
#else
      << ",\"openmp\":false"
#endif
      << ",\"omp_env\":{" << omp_env.str() << "}"
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"git_sha\":" << json_string(args.git_sha)
      << ",\"setups\":" << setups << ",\"passes\":" << passes << "}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  const int hardware = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(4, hardware);
  // Declared before the workload: the workload's pool must be gone before
  // the tracer is.
  Tracer tracer;
  auto workload = perfbench::make_workload(
      args.workload, {args.seed, threads, args.smoke});
  // Smoke inputs differ from the pinned ones under the same keys.
  auto pins = load_pins(args.smoke ? std::string() : args.pins, args.workload);
  const bool traced = args.trace == 1;

  // A fixed number of passes: --seconds over the workload's nominal pass
  // time, at least three (a traced run makes half as many plain/traced
  // pairs, at least two). A faster program finishes sooner; it does not
  // get more passes, so the fastest pass is not biased toward it.
  const auto passes = static_cast<std::size_t>(std::max(
      3.0, std::round(args.seconds / workload->nominal_pass_seconds())));
  const std::size_t runs =
      args.emit_pins ? 1 : traced ? std::max<std::size_t>(2, passes / 2) : passes;

  // Set-up. Traced: once, observed. Plain: an untimed first set-up sizes a
  // batch of set-ups to at least 20 ms; one batch is timed after every
  // pass, so the samples span the run as the passes do, and more until
  // there are five. setup_s is the fastest batch's time per set-up: a
  // batch runs on one vCPU, and on a shared host some vCPUs run this
  // allocation-bound work up to 1.8x slower than others, which made the
  // median jump between the two speeds from run to run. Passes reuse the
  // last set-up, which rebuilds the same state every time.
  std::vector<double> setup_times;
  std::size_t setups = 0;
  Report setup_report;
  const auto timed_setups = [&](std::size_t repetitions) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < repetitions; ++i) workload->setup(nullptr);
    setups += repetitions;
    return seconds_since(start);
  };
  std::size_t batch = 1;
  const auto time_batch = [&] {
    setup_times.push_back(timed_setups(batch) / static_cast<double>(batch));
  };
  if (traced) {
    tracer.start();
    workload->setup(&tracer);
    setup_report = tracer.stop();
    setups = 1;
  } else {
    const double first = timed_setups(1);
    batch = static_cast<std::size_t>(
        std::clamp(std::ceil(0.02 / std::max(first, 1e-9)), 1.0, 1e5));
  }

  // The passes: plain only, or plain and traced alternating.
  std::vector<std::vector<OpResult>> plain;
  std::vector<std::vector<OpResult>> traced_runs;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<Report> reports;
  for (std::size_t run = 0; run < runs; ++run) {
    auto start = Clock::now();
    plain.push_back(workload->pass(nullptr));
    plain_walls.push_back(seconds_since(start));
    if (traced) {
      tracer.start();
      start = Clock::now();
      traced_runs.push_back(workload->pass(&tracer));
      traced_walls.push_back(seconds_since(start));
      reports.push_back(tracer.stop());
    } else if (!args.emit_pins) {
      time_batch();
    }
  }
  while (!traced && !args.emit_pins && setup_times.size() < 5) time_batch();

  if (args.emit_pins) {
    std::cout << "# workload seed op field value\n";
    for (const OpResult& r : plain.front()) {
      const std::string seed = r.seeded ? std::to_string(args.seed) : "*";
      for (const auto& [field, v] : r.values) {
        std::cout << args.workload << " " << seed << " " << r.key << " " << field
                  << " " << number(v) << "\n";
      }
      for (const auto& [field, v] : r.exact) {
        std::cout << args.workload << " " << seed << " " << r.key << " " << field
                  << " " << v << "\n";
      }
    }
    return 0;
  }

  // Correctness: invariants, pins, pass-to-pass and traced-vs-plain
  // equality, and (traced) repeating work counts. Every check that fails
  // counts in `failed`.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto check = [&](const std::string& what, const std::string& why) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      failures.push_back(what + ": " + why);
    }
  };
  const auto judge = [&](const std::vector<OpResult>& pass, const char* kind) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const OpResult& r = pass[i];
      std::string why = r.error;
      if (why.empty()) why = check_pins(r, args.seed, pins);
      if (why.empty() && !perfbench::same_outputs(r, plain.front()[i])) {
        why = std::string(kind) + " outputs differ from the first plain pass";
      }
      check(r.key, why);
    }
  };
  for (const auto& pass : plain) judge(pass, "plain pass");
  for (const auto& pass : traced_runs) judge(pass, "traced pass");
  for (const auto& [key, pin] : pins) {
    if (pin.seed == "*" || pin.seed == std::to_string(args.seed)) {
      check("pin " + key, pin.used ? "" : "no operation produced it");
    }
  }

  std::vector<Metric> metrics;
  if (!traced) {
    // Timings are the fastest of the run's fixed number of passes (a
    // shared host's interference only ever adds time): a pass's wall time,
    // each operation's own time for the row quantiles, and a set-up batch's
    // time per set-up.
    std::vector<double> op_ms;
    for (std::size_t i = 0; i < plain.front().size(); ++i) {
      double best = plain.front()[i].seconds;
      for (const auto& pass : plain) best = std::min(best, pass[i].seconds);
      op_ms.push_back(best * 1e3);
    }
    double jobs = 0.0;
    double run_seconds = 0.0;
    double pairs = 0.0;
    double pricing_seconds = 0.0;
    for (const auto& pass : plain) {
      for (const OpResult& r : pass) {
        jobs += r.jobs;
        run_seconds += r.run_seconds;
        if (r.node_pairs > 0.0) {
          pairs += r.node_pairs;
          pricing_seconds += r.seconds;
        }
      }
    }
    metrics = {
        {"wall_s", *std::min_element(plain_walls.begin(), plain_walls.end()), "s"},
        {"setup_s", *std::min_element(setup_times.begin(), setup_times.end()), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"row_ms_p50", quantile(op_ms, 0.5), "ms"},
        {"row_ms_p90", quantile(op_ms, 0.9), "ms"},
    };
    std::printf("metric error_rate %s ratio\n",
                number(static_cast<double>(failed) / static_cast<double>(attempted)).c_str());
    std::printf("metric sched_jobs_per_s %s 1/s\n",
                number(run_seconds > 0.0 ? jobs / run_seconds : 0.0).c_str());
    std::printf("metric flow_pairs_per_s %s 1/s\n",
                number(pricing_seconds > 0.0 ? pairs / pricing_seconds : 0.0).c_str());
  } else {
    // Times: median over traced passes; counts must repeat exactly.
    std::map<std::string, std::vector<double>> samples;
    std::vector<Metric> first;
    for (const Report& report : reports) {
      const auto values = layer_metrics(setup_report, report, workload->pool_workers());
      if (first.empty()) first = values;
      for (const Metric& m : values) samples[m.name].push_back(m.value);
    }
    for (const Metric& m : first) {
      const auto& v = samples[m.name];
      if (std::find(deterministic_counts().begin(), deterministic_counts().end(),
                    m.name) != deterministic_counts().end()) {
        const bool repeats = std::all_of(v.begin(), v.end(),
                                         [&](double x) { return x == v.front(); });
        check("count " + m.name, repeats ? "" : "differs between traced passes");
      }
      metrics.push_back({m.name, median(v), m.unit});
    }
    // Fastest traced over fastest plain pass, as wall_s is taken (the first
    // plain pass also pays the process's first-touch page faults).
    metrics.push_back({"bench.tracing_overhead",
                       *std::min_element(traced_walls.begin(), traced_walls.end()) /
                               *std::min_element(plain_walls.begin(), plain_walls.end()) -
                           1.0,
                       "ratio"});
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      out << setup_report.spans_jsonl() << reports.front().spans_jsonl();
      if (!out) throw std::runtime_error("cannot write " + args.spans_out);
    }
  }
  const bool correct = failed == 0;

  for (const std::string& failure : failures) {
    std::printf("failure %s\n", failure.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("fingerprint %s\n",
              fingerprint(args, *workload, threads, setups, plain.size())
                  .c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
         << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "npac_perfbench: %s\n", e.what());
    return 2;
  }
}
