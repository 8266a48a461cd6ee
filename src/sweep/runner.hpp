// Shared bench-runner layer: every bench/ driver is a grid definition plus
// a row function, and this module owns everything else — CLI flags, the
// kernel pool and memo caches, deterministic per-row seeding via
// task_seed, and table/CSV result emission.
//
// One schedule: grid rows, and the engine's experiment rows, run in index
// order on the calling thread; the parallel loops of library kernels
// (routing, brute-force bisection) fan out on the runner's kernel pool.
//
// Flags every driver accepts:
//   --threads N        worker count of the kernel pool (< 1 selects
//                      hardware concurrency); scheduler sweeps run their
//                      points on N workers
//   --seed S           base seed of every per-row task_seed
//   --csv PATH         append each grid to a CSV artifact
//   --fast             drivers may skip their most expensive grid points
//   --list             print each row's index and label without running
//   --filter=SUBSTR    run only rows whose label contains SUBSTR (also
//                      accepted as `--filter SUBSTR`), so a single grid row
//                      can be rerun in isolation; filtered-out rows'
//                      cells are never called, and surviving rows keep
//                      their original per-row seeds, so their cells are
//                      byte-identical to a full run. Only grids whose
//                      cells do the work (such as ext_topologies and
//                      ext_kernels) skip computation this way: every
//                      figure and table driver builds its grid from rows
//                      computed before Runner::run, so there the filter
//                      only trims output. A filter matching no row in
//                      any grid is an error (the available labels are
//                      printed and the driver exits nonzero)
//   --metrics-out=PATH write an obs::Registry metrics snapshot (counters,
//                      gauges, histograms, cache stats) as JSON at exit
//   --trace-out=PATH   write a Chrome trace_event JSON trace (load it in
//                      chrome://tracing or Perfetto) at exit
//   --progress         print one stderr line per completed grid row
//
// --metrics-out / --trace-out install a process-wide obs registry for the
// duration of the run. Instrumentation only *observes* the run — results
// and CSV artifacts are byte-identical with and without these flags, which
// tests/obs/determinism_test.cpp pins at several thread counts.
//
// Contract: a BenchGrid's cell function must be a pure function of
// (row index, row seed) — never of thread ids or execution order — so a
// driver's table and CSV artifact are byte-identical for every --threads
// value. The determinism regression tests in tests/sweep/runner_test.cpp
// hold ported drivers to exactly that.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"

namespace npac::sweep {

/// core::ExperimentEngine backend on the sweep machinery: row loops run on
/// a ThreadPool, ping-pong runs are memoized in the SweepContext,
/// and the context is the engine's partition oracle, so the inherited
/// geometry and bisection hooks read its memo tables. pairing() is
/// inherited too: its two pingpong() calls hit the routing cache, so no
/// geometry is routed twice. Every hook returns exactly what the serial
/// engine would (cached values are pure functions of their keys;
/// parallel_for writes are index-addressed), so driving an experiment
/// through this engine changes its cost, never its output.
class SweepEngine final : public core::ExperimentEngine {
 public:
  /// Both referents must outlive the engine.
  SweepEngine(SweepContext& context, ThreadPool& pool)
      : context_(&context), pool_(&pool) {}

  simnet::PingPongResult pingpong(const bgq::Geometry& geometry,
                                  const simnet::PingPongConfig& config) override {
    return context_->pingpong(geometry, config, {});
  }
  const core::PartitionOracle& partition_oracle() override { return *context_; }
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn) override {
    pool_->run_indexed(n, fn);
  }

 private:
  SweepContext* context_;
  ThreadPool* pool_;
};

// --------------------------------------------------------------------------
// CLI flags
// --------------------------------------------------------------------------

struct RunnerConfig {
  /// --threads N; < 1 selects std::thread::hardware_concurrency().
  int threads = 0;
  /// --seed S; the base of every task_seed in the run.
  std::uint64_t seed = 42;
  /// --csv PATH; empty = no CSV artifact.
  std::string csv_path;
  /// --fast; drivers may skip their most expensive grid points.
  bool fast = false;
  /// --list; print row labels instead of running the grids.
  bool list = false;
  /// --filter=SUBSTR; run only rows whose label contains the substring.
  std::string filter;
  /// --metrics-out=PATH; empty = no metrics snapshot.
  std::string metrics_path;
  /// --trace-out=PATH; empty = no trace artifact (and tracing stays off).
  std::string trace_path;
  /// --progress; one stderr line per completed grid row.
  bool progress = false;
};

/// Parses the shared bench flags. Throws std::invalid_argument (with a
/// usage line) on an unknown flag or a malformed value.
RunnerConfig parse_runner_flags(int argc, char** argv);

// --------------------------------------------------------------------------
// Grids
// --------------------------------------------------------------------------

struct BenchGrid {
  std::vector<std::string> columns;
  std::int64_t rows = 0;
  /// cells(row, seed) -> one formatted cell per column. Must be pure in
  /// (row, seed); seed is task_seed(base_seed, row).
  std::function<std::vector<std::string>(std::int64_t, std::uint64_t)> cells;
  /// When set, Runner::run appends a wall-clock "Row time (s)" column to
  /// the stdout table (never to the CSV — timing is not deterministic).
  bool timed = false;
  /// Optional cheap row label for --list / --filter. Must be pure in the
  /// row index and must not trigger the row's computation. Unset rows are
  /// labeled "row<i>".
  std::function<std::string(std::int64_t)> label;
};

/// The label of one grid row ("row<i>" when the grid defines none).
std::string row_label(const BenchGrid& grid, std::int64_t row);

/// Indices of the rows whose label contains `filter` (all rows when the
/// filter is empty), in row order.
std::vector<std::int64_t> select_rows(const BenchGrid& grid,
                                      const std::string& filter);

/// Computes rows in index order on the calling thread. When `selection` is
/// non-null only those row indices are computed (each keeping its original
/// task_seed), and the result holds them in selection order. When
/// row_seconds is non-null it is resized to the computed row count and
/// filled with each row's wall-clock (display only — never part of the
/// CSV).
std::vector<std::vector<std::string>> run_grid(
    const BenchGrid& grid, std::uint64_t base_seed,
    std::vector<double>* row_seconds = nullptr,
    const std::vector<std::int64_t>* selection = nullptr);

/// CSV rendering (header + rows) of a computed grid.
std::string grid_csv(const BenchGrid& grid,
                     const std::vector<std::vector<std::string>>& rows);

// --------------------------------------------------------------------------
// Canonical grid definitions for the paper's row types, shared by the bench
// drivers and the determinism regression tests.
// --------------------------------------------------------------------------

/// Table 6 / Table 1 / Figure 1 rows (Mira current vs proposed).
BenchGrid mira_grid(std::vector<core::MiraRow> rows);

/// Table 7 / Table 2 / Figure 2 / Sequoia rows (free-cuboid best vs worst).
/// The "Spike" column marks Figure 2's ring-shaped drops (a best bisection
/// below that of a smaller size).
BenchGrid best_worst_grid(std::vector<core::BestWorstRow> rows);

/// Table 5 / Figure 7 rows (JUQUEEN vs JUQUEEN-54 / JUQUEEN-48).
BenchGrid machine_design_grid(std::vector<core::MachineDesignRow> rows);

/// Figure 3 / Figure 4 rows (Experiment A pairing).
BenchGrid pairing_grid(std::vector<core::PairingComparison> rows);

/// Figure 5 rows (Experiment B CAPS matmul).
BenchGrid matmul_grid(std::vector<core::MatmulComparison> rows);

/// Figure 6 rows (Experiment C strong scaling).
BenchGrid scaling_grid(std::vector<core::ScalingPoint> rows);

/// ext_topologies rows: the machine-design comparison across network
/// families (core::topology_design_cases). Cells compute lazily through
/// `engine` — with --filter, unselected topologies are never built or
/// routed. `engine` must outlive the grid.
BenchGrid topology_design_grid(core::ExperimentEngine& engine, bool fast);

// --------------------------------------------------------------------------
// Runner
// --------------------------------------------------------------------------

class Runner {
 public:
  /// Parses flags and prints the title. Throws std::invalid_argument on bad
  /// flags (use Runner::main to get uniform error handling).
  Runner(std::string title, int argc, char** argv);

  const RunnerConfig& config() const { return config_; }
  bool fast() const { return config_.fast; }
  /// The sweep options equivalent of the flags (for
  /// run_topology_scheduler_sweep).
  SweepOptions sweep_options() const;
  SweepContext& context() { return context_; }
  /// Row loops run in index order on the calling thread.
  core::ExperimentEngine& engine() { return engine_; }

  /// Runs the grid, prints it as an aligned table, and appends it to the
  /// CSV artifact.
  void run(const BenchGrid& grid);
  /// Runs the grid and appends it to the CSV artifact without printing —
  /// for full-resolution data whose stdout form is a separate summary.
  void run_csv_only(const BenchGrid& grid);
  /// Prints a footer paragraph (blank-line separated).
  void note(const std::string& text);
  /// Writes the CSV artifact (if --csv), prints elapsed time, the kernel
  /// pool's thread count and cache statistics. Returns the process exit
  /// code.
  int finish();

  /// Uniform driver entry point: constructs Runner(title, argc, argv),
  /// calls body, and returns finish(); flag errors and driver exceptions
  /// land on stderr with a nonzero exit code.
  static int main(const std::string& title, int argc, char** argv,
                  const std::function<void(Runner&)>& body);

  /// Process-wide engine — one static SweepContext + SweepEngine whose row
  /// loops run in order, with kernels on shared_pool() — for callers
  /// without a Runner, e.g. test binaries sharing memoized results across
  /// their test cases.
  static core::ExperimentEngine& process_engine();

 private:
  /// Prints the grid's row labels when --list is set; true = skip the run.
  bool handle_list(const BenchGrid& grid) const;
  /// Computes the rows the --filter selects, recording how many matched
  /// (and the labels it could have matched) so finish() can fail a run
  /// that selected nothing.
  std::vector<std::vector<std::string>> compute(
      const BenchGrid& grid, std::vector<double>* row_seconds);
  /// Appends a computed grid to the CSV artifact.
  void append_csv(const BenchGrid& grid,
                  const std::vector<std::vector<std::string>>& rows);
  /// Wraps the grid's cell function with a stderr progress line per
  /// completed row when --progress is set; otherwise returns `grid` as-is.
  BenchGrid with_progress(const BenchGrid& grid, std::int64_t total) const;
  /// Writes metrics/trace artifacts; nonzero on a write failure.
  int write_observability_artifacts();

  std::string title_;
  RunnerConfig config_;
  // Declared (and therefore installed) before the pool so spawned workers
  // observe the registry from their first wait onward.
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::ScopedRegistry> scoped_registry_;
  SweepContext context_;
  // --threads workers; parallel_for's pool for the Runner's lifetime.
  ThreadPool kernel_pool_;
  ScopedKernelPool scoped_kernel_pool_;
  // One worker, so the engine's row loops run inline in index order.
  ThreadPool row_pool_;
  SweepEngine engine_;
  std::string csv_;
  std::uint64_t filter_matches_ = 0;
  std::vector<std::string> filter_labels_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace npac::sweep
