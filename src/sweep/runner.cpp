#include "sweep/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bgq/bisection.hpp"

namespace npac::sweep {

namespace {

constexpr const char* kUsage =
    "flags: [--threads N] [--seed S] [--csv PATH] [--fast] [--list] "
    "[--filter=SUBSTR] [--metrics-out=PATH] [--trace-out=PATH] [--progress]";

std::int64_t parse_integer(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(flag + ": malformed integer '" + text + "'\n" +
                                kUsage);
  }
  return value;
}

/// Full-range unsigned 64-bit parse. strtoull would accept "-1" and
/// negate it to 2^64 - 1, so any minus sign is rejected up front.
std::uint64_t parse_unsigned(const std::string& flag, const char* text) {
  if (std::strchr(text, '-') != nullptr) {
    throw std::invalid_argument(flag + ": must be non-negative, got '" +
                                text + "'\n" + kUsage);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(flag + ": malformed integer '" + text + "'\n" +
                                kUsage);
  }
  return value;
}

/// "mp<midplanes>" labels for the canonical per-size grids, so
/// --filter=mp8 reruns one job size in isolation.
template <typename Row>
std::function<std::string(std::int64_t)> midplane_labels(
    const std::vector<Row>& rows) {
  std::vector<std::int64_t> midplanes;
  midplanes.reserve(rows.size());
  for (const Row& row : rows) midplanes.push_back(row.midplanes);
  return [midplanes = std::move(midplanes)](std::int64_t i) {
    return "mp" + std::to_string(midplanes[static_cast<std::size_t>(i)]);
  };
}

std::string speedup_cell(std::int64_t better_bw, std::int64_t worse_bw) {
  if (better_bw == worse_bw) return "-";
  return "x" + core::format_double(static_cast<double>(better_bw) /
                                       static_cast<double>(worse_bw),
                                   2);
}

}  // namespace

RunnerConfig parse_runner_flags(int argc, char** argv) {
  RunnerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + ": missing value\n" + kUsage);
      }
      return argv[++i];
    };
    if (flag == "--threads") {
      const std::int64_t threads = parse_integer(flag, value());
      // < 1 selects hardware concurrency; cap the explicit count well
      // below anything spawnable so a typo cannot ask for 10^9 workers.
      if (threads > 4096) {
        throw std::invalid_argument(flag + ": at most 4096 threads\n" +
                                    kUsage);
      }
      config.threads = static_cast<int>(threads);
    } else if (flag == "--seed") {
      config.seed = parse_unsigned(flag, value());
    } else if (flag == "--csv") {
      config.csv_path = value();
    } else if (flag == "--fast") {
      config.fast = true;
    } else if (flag == "--list") {
      config.list = true;
    } else if (flag == "--filter") {
      config.filter = value();
    } else if (flag.rfind("--filter=", 0) == 0) {
      config.filter = flag.substr(std::string("--filter=").size());
    } else if (flag == "--metrics-out") {
      config.metrics_path = value();
    } else if (flag.rfind("--metrics-out=", 0) == 0) {
      config.metrics_path = flag.substr(std::string("--metrics-out=").size());
    } else if (flag == "--trace-out") {
      config.trace_path = value();
    } else if (flag.rfind("--trace-out=", 0) == 0) {
      config.trace_path = flag.substr(std::string("--trace-out=").size());
    } else if (flag == "--progress") {
      config.progress = true;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'\n" + kUsage);
    }
  }
  return config;
}

std::string row_label(const BenchGrid& grid, std::int64_t row) {
  if (grid.label) return grid.label(row);
  return "row" + std::to_string(row);
}

std::vector<std::int64_t> select_rows(const BenchGrid& grid,
                                      const std::string& filter) {
  std::vector<std::int64_t> selection;
  for (std::int64_t i = 0; i < grid.rows; ++i) {
    if (filter.empty() ||
        row_label(grid, i).find(filter) != std::string::npos) {
      selection.push_back(i);
    }
  }
  return selection;
}

std::vector<std::vector<std::string>> run_grid(
    const BenchGrid& grid, std::uint64_t base_seed,
    std::vector<double>* row_seconds,
    const std::vector<std::int64_t>* selection) {
  // Filtered rows keep the task seed of their original grid index.
  const std::vector<std::int64_t> indices =
      selection != nullptr ? *selection : select_rows(grid, "");
  std::vector<std::vector<std::string>> rows;
  rows.reserve(indices.size());
  if (row_seconds != nullptr) row_seconds->clear();
  for (const std::int64_t i : indices) {
    const auto row_start = std::chrono::steady_clock::now();
    try {
      rows.push_back(grid.cells(i, task_seed(base_seed, i)));
    } catch (const std::exception& error) {
      // "grid row 7 ('mp128')" beats a bare what().
      throw std::runtime_error("grid row " + std::to_string(i) + " ('" +
                               row_label(grid, i) + "'): " + error.what());
    }
    if (row_seconds != nullptr) {
      row_seconds->push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - row_start)
                                 .count());
    }
  }
  return rows;
}

namespace {

/// RFC 4180 quoting: cells containing a comma, quote, or newline are
/// wrapped in quotes with inner quotes doubled; all current grid cells
/// pass through verbatim, so this only guards future free-form labels
/// against silently shifting columns.
std::string csv_cell(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string grid_csv(const BenchGrid& grid,
                     const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream out;
  for (std::size_t i = 0; i < grid.columns.size(); ++i) {
    out << (i > 0 ? "," : "") << csv_cell(grid.columns[i]);
  }
  out << "\n";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << (i > 0 ? "," : "") << csv_cell(row[i]);
    }
    out << "\n";
  }
  return out.str();
}

// --------------------------------------------------------------------------
// Canonical grids
// --------------------------------------------------------------------------

BenchGrid mira_grid(std::vector<core::MiraRow> rows) {
  BenchGrid grid;
  grid.columns = {"P",  "Midplanes",         "Current Geometry",
                  "BW", "Proposed Geometry", "Proposed BW"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::MiraRow& row = rows[static_cast<std::size_t>(i)];
    return std::vector<std::string>{
        core::format_int(row.nodes),
        core::format_int(row.midplanes),
        row.current.to_string(),
        core::format_int(row.current_bw),
        row.proposed ? row.proposed->to_string() : "-",
        row.proposed ? core::format_int(row.proposed_bw) : "-"};
  };
  return grid;
}

BenchGrid best_worst_grid(std::vector<core::BestWorstRow> rows) {
  BenchGrid grid;
  grid.columns = {"P",        "Midplanes", "Worst Geometry",
                  "Worst BW", "Best Geometry", "Best BW",
                  "Speedup",  "Spike"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::BestWorstRow& row = rows[static_cast<std::size_t>(i)];
    // Figure 2's 'spiking drop': the best bisection of this size falls
    // below that of a smaller size (ring-shaped partitions). Pure in the
    // row index — it only reads earlier rows of the captured vector.
    std::int64_t best_before = 0;
    for (std::int64_t j = 0; j < i; ++j) {
      best_before =
          std::max(best_before, rows[static_cast<std::size_t>(j)].best_bw);
    }
    return std::vector<std::string>{
        core::format_int(row.nodes),
        core::format_int(row.midplanes),
        row.worst.to_string(),
        core::format_int(row.worst_bw),
        row.best.to_string(),
        core::format_int(row.best_bw),
        speedup_cell(row.best_bw, row.worst_bw),
        row.best_bw < best_before ? "drop" : ""};
  };
  return grid;
}

BenchGrid machine_design_grid(std::vector<core::MachineDesignRow> rows) {
  BenchGrid grid;
  grid.columns = {"P",      "Midplanes", "JUQUEEN",    "J BW",
                  "JUQUEEN-54", "J-54 BW",   "JUQUEEN-48", "J-48 BW"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::MachineDesignRow& row = rows[static_cast<std::size_t>(i)];
    return std::vector<std::string>{
        core::format_int(row.midplanes * bgq::kNodesPerMidplane),
        core::format_int(row.midplanes),
        row.juqueen ? row.juqueen->to_string() : "-",
        row.juqueen ? core::format_int(row.juqueen_bw) : "-",
        row.j54 ? row.j54->to_string() : "-",
        row.j54 ? core::format_int(row.j54_bw) : "-",
        row.j48 ? row.j48->to_string() : "-",
        row.j48 ? core::format_int(row.j48_bw) : "-"};
  };
  return grid;
}

BenchGrid pairing_grid(std::vector<core::PairingComparison> rows) {
  BenchGrid grid;
  grid.columns = {"Midplanes",    "Baseline", "Baseline time (s)",
                  "Proposed",     "Proposed time (s)", "Speedup",
                  "Predicted"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::PairingComparison& cmp = rows[static_cast<std::size_t>(i)];
    return std::vector<std::string>{
        core::format_int(cmp.midplanes),
        cmp.baseline.to_string(),
        format_exact(cmp.baseline_result.measured_seconds),
        cmp.proposed.to_string(),
        format_exact(cmp.proposed_result.measured_seconds),
        "x" + core::format_double(cmp.speedup, 2),
        "x" + core::format_double(cmp.predicted_speedup, 2)};
  };
  return grid;
}

BenchGrid matmul_grid(std::vector<core::MatmulComparison> rows) {
  BenchGrid grid;
  grid.columns = {"Midplanes",         "Ranks", "n",
                  "BFS steps",         "Comm current (s)",
                  "Comm proposed (s)", "Ratio",
                  "Paper comp (s)"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::MatmulComparison& cmp = rows[static_cast<std::size_t>(i)];
    return std::vector<std::string>{
        core::format_int(cmp.midplanes),
        core::format_int(cmp.params.ranks),
        core::format_int(cmp.params.n),
        core::format_int(cmp.params.bfs_steps),
        format_exact(cmp.current_comm_seconds),
        format_exact(cmp.proposed_comm_seconds),
        "x" + core::format_double(cmp.comm_speedup, 2),
        core::format_double(cmp.paper_computation_seconds, 4)};
  };
  return grid;
}

BenchGrid scaling_grid(std::vector<core::ScalingPoint> rows) {
  BenchGrid grid;
  grid.columns = {"Midplanes",         "Ranks",
                  "Comm current (s)",  "Comm proposed (s)",
                  "Current BW",        "Proposed BW",
                  "Paper comp (s)"};
  grid.rows = static_cast<std::int64_t>(rows.size());
  grid.label = midplane_labels(rows);
  grid.cells = [rows = std::move(rows)](std::int64_t i, std::uint64_t) {
    const core::ScalingPoint& point = rows[static_cast<std::size_t>(i)];
    return std::vector<std::string>{
        core::format_int(point.midplanes),
        core::format_int(point.params.ranks),
        format_exact(point.current_comm_seconds),
        format_exact(point.proposed_comm_seconds),
        core::format_int(bgq::normalized_bisection(point.current)),
        core::format_int(bgq::normalized_bisection(point.proposed)),
        core::format_double(point.paper_computation_seconds, 4)};
  };
  return grid;
}

BenchGrid topology_design_grid(core::ExperimentEngine& engine, bool fast) {
  const auto cases = core::topology_design_cases(fast);
  BenchGrid grid;
  grid.columns = {"Tier",     "Topology", "N",      "Hosts",
                  "Edges",    "Capacity", "Bisection", "Method",
                  "Pairing (s)"};
  grid.rows = static_cast<std::int64_t>(cases.size());
  grid.label = [cases](std::int64_t i) {
    const auto& c = cases[static_cast<std::size_t>(i)];
    return c.tier + ":" + c.spec.family();
  };
  grid.cells = [cases, &engine](std::int64_t i, std::uint64_t) {
    const auto row = core::topology_design_row(
        cases[static_cast<std::size_t>(i)], &engine);
    return std::vector<std::string>{
        row.design_case.tier,
        row.design_case.spec.id(),
        core::format_int(row.vertices),
        core::format_int(row.hosts),
        core::format_int(row.edges),
        core::format_double(row.link_capacity_total, 0),
        core::format_double(row.bisection.value, 1),
        row.bisection.method,
        format_exact(row.pairing_seconds)};
  };
  return grid;
}

// --------------------------------------------------------------------------
// Runner
// --------------------------------------------------------------------------

namespace {

/// A registry only exists when an artifact was requested — without
/// --metrics-out/--trace-out every instrumentation site stays on its
/// null-check fast path.
std::unique_ptr<obs::Registry> make_runner_registry(
    const RunnerConfig& config) {
  if (config.metrics_path.empty() && config.trace_path.empty()) {
    return nullptr;
  }
  obs::Registry::Options options;
  options.tracing = !config.trace_path.empty();
  return std::make_unique<obs::Registry>(options);
}

}  // namespace

Runner::Runner(std::string title, int argc, char** argv)
    : title_(std::move(title)),
      config_(parse_runner_flags(argc, argv)),
      registry_(make_runner_registry(config_)),
      scoped_registry_(registry_ == nullptr
                           ? nullptr
                           : std::make_unique<obs::ScopedRegistry>(*registry_)),
      kernel_pool_(config_.threads),
      scoped_kernel_pool_(kernel_pool_),
      row_pool_(1),
      engine_(context_, row_pool_),
      start_(std::chrono::steady_clock::now()) {
  std::printf("%s\n", title_.c_str());
}

SweepOptions Runner::sweep_options() const {
  SweepOptions options;
  options.threads = config_.threads;
  options.base_seed = config_.seed;
  return options;
}

bool Runner::handle_list(const BenchGrid& grid) const {
  if (!config_.list) return false;
  std::printf("\n");
  for (std::int64_t i = 0; i < grid.rows; ++i) {
    std::printf("%3lld  %s\n", static_cast<long long>(i),
                row_label(grid, i).c_str());
  }
  return true;
}

std::vector<std::vector<std::string>> Runner::compute(
    const BenchGrid& grid, std::vector<double>* row_seconds) {
  const std::vector<std::int64_t> selection =
      select_rows(grid, config_.filter);
  if (!config_.filter.empty()) {
    filter_matches_ += selection.size();
    // Collected across every grid of the run: a driver with several grids
    // only fails when the filter misses *all* of them, and the error can
    // then list every label the user could have matched.
    for (std::int64_t i = 0; i < grid.rows; ++i) {
      filter_labels_.push_back(row_label(grid, i));
    }
  }
  return run_grid(
      with_progress(grid, static_cast<std::int64_t>(selection.size())),
      config_.seed, row_seconds, &selection);
}

void Runner::append_csv(const BenchGrid& grid,
                        const std::vector<std::vector<std::string>>& rows) {
  if (!csv_.empty()) csv_ += "\n";
  csv_ += grid_csv(grid, rows);
}

BenchGrid Runner::with_progress(const BenchGrid& grid,
                                std::int64_t total) const {
  if (!config_.progress) return grid;
  BenchGrid wrapped = grid;
  auto inner = grid.cells;
  auto label = grid.label;
  auto completed = std::make_shared<std::int64_t>(0);
  // stderr only: progress never touches stdout tables or CSV artifacts,
  // so it cannot perturb the determinism contract.
  wrapped.cells = [inner = std::move(inner), label = std::move(label),
                   completed, total](std::int64_t i, std::uint64_t seed) {
    const auto row_start = std::chrono::steady_clock::now();
    auto cells = inner(i, seed);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      row_start)
            .count();
    const long long k = ++*completed;
    const std::string name = label ? label(i) : "row" + std::to_string(i);
    std::fprintf(stderr, "[%lld/%lld] %s (%.3f s)\n", k,
                 static_cast<long long>(total), name.c_str(), seconds);
    return cells;
  };
  return wrapped;
}

void Runner::run(const BenchGrid& grid) {
  if (handle_list(grid)) return;
  std::vector<double> row_seconds;
  const auto rows = compute(grid, grid.timed ? &row_seconds : nullptr);

  std::vector<std::string> headers = grid.columns;
  if (grid.timed) headers.push_back("Row time (s)");
  core::TextTable table(headers);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<std::string> cells = rows[i];
    if (grid.timed) {
      cells.push_back(core::format_double(row_seconds[i], 4));
    }
    table.add_row(std::move(cells));
  }
  std::printf("\n");
  std::fputs(table.render().c_str(), stdout);
  append_csv(grid, rows);
}

void Runner::run_csv_only(const BenchGrid& grid) {
  if (handle_list(grid)) return;
  append_csv(grid, compute(grid, nullptr));
}

void Runner::note(const std::string& text) {
  std::printf("\n%s\n", text.c_str());
}

int Runner::write_observability_artifacts() {
  if (registry_ == nullptr) return 0;
  context_.publish_metrics(*registry_);
  const auto write_file = [](const std::string& path,
                             const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
    if (!out) {
      std::fprintf(stderr, "error: cannot write artifact '%s'\n",
                   path.c_str());
      return 1;
    }
    return 0;
  };
  if (!config_.metrics_path.empty() &&
      write_file(config_.metrics_path, registry_->metrics_json()) != 0) {
    return 1;
  }
  if (!config_.trace_path.empty() &&
      write_file(config_.trace_path, registry_->trace().json()) != 0) {
    return 1;
  }
  return 0;
}

int Runner::finish() {
  if (!config_.filter.empty() && !config_.list && filter_matches_ == 0) {
    std::fprintf(stderr,
                 "error: --filter='%s' matched no row; available labels:\n",
                 config_.filter.c_str());
    for (const std::string& label : filter_labels_) {
      std::fprintf(stderr, "  %s\n", label.c_str());
    }
    return 1;
  }
  if (!config_.csv_path.empty()) {
    std::ofstream out(config_.csv_path, std::ios::binary);
    out << csv_;
    if (!out) {
      std::fprintf(stderr, "error: cannot write CSV artifact '%s'\n",
                   config_.csv_path.c_str());
      return 1;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::printf("\n%.2f s on %d threads (seed %llu)",
              elapsed, kernel_pool_.num_threads(),
              static_cast<unsigned long long>(config_.seed));
  for (const SweepContext::NamedStats& cache : context_.all_stats()) {
    if (cache.stats.lookups() == 0) continue;
    std::printf("; %s %llu/%llu hits", cache.name,
                static_cast<unsigned long long>(cache.stats.hits),
                static_cast<unsigned long long>(cache.stats.lookups()));
  }
  std::printf("\n");
  return write_observability_artifacts();
}

core::ExperimentEngine& Runner::process_engine() {
  static SweepContext context;
  static ThreadPool row_pool(1);
  static SweepEngine engine(context, row_pool);
  return engine;
}

int Runner::main(const std::string& title, int argc, char** argv,
                 const std::function<void(Runner&)>& body) {
  try {
    Runner runner(title, argc, argv);
    body(runner);
    return runner.finish();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

}  // namespace npac::sweep
