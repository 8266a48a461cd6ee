// Bench-runner tests: flag parsing, grid execution and CSV rendering, the
// SweepEngine's agreement with the serial engine, and the determinism
// regression the ported drivers are held to — byte-identical CSV output
// between --threads 1 and --threads N.
#include "sweep/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"

namespace npac::sweep {
namespace {

simnet::PingPongConfig fast_pingpong() {
  auto config = core::paper_pingpong_config();
  config.bytes_per_round = 1.0e6;  // ratios are volume-invariant
  return config;
}

TEST(RunnerFlagsTest, DefaultsAndAllFlags) {
  const RunnerConfig defaults = parse_runner_flags(1, nullptr);
  EXPECT_EQ(defaults.threads, 0);
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_TRUE(defaults.csv_path.empty());
  EXPECT_FALSE(defaults.fast);

  const char* argv[] = {"bench", "--threads", "3",       "--seed", "7",
                        "--csv", "/tmp/x.csv", "--fast"};
  const RunnerConfig config =
      parse_runner_flags(8, const_cast<char**>(argv));
  EXPECT_EQ(config.threads, 3);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.csv_path, "/tmp/x.csv");
  EXPECT_TRUE(config.fast);
}

TEST(RunnerFlagsTest, SeedSpansTheFullUnsignedRangeAndRejectsNegatives) {
  const char* max[] = {"bench", "--seed", "18446744073709551615"};
  EXPECT_EQ(parse_runner_flags(3, const_cast<char**>(max)).seed,
            std::numeric_limits<std::uint64_t>::max());
  const char* past_max[] = {"bench", "--seed", "18446744073709551616"};
  EXPECT_THROW(parse_runner_flags(3, const_cast<char**>(past_max)),
               std::invalid_argument);
  const char* negative[] = {"bench", "--seed", "-1"};
  try {
    parse_runner_flags(3, const_cast<char**>(negative));
    ADD_FAILURE() << "--seed -1 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--seed"), std::string::npos)
        << error.what();
  }
}

TEST(RunnerFlagsTest, RejectsUnknownAndMalformed) {
  const char* unknown[] = {"bench", "--frobnicate"};
  EXPECT_THROW(parse_runner_flags(2, const_cast<char**>(unknown)),
               std::invalid_argument);
  const char* missing[] = {"bench", "--threads"};
  EXPECT_THROW(parse_runner_flags(2, const_cast<char**>(missing)),
               std::invalid_argument);
  const char* malformed[] = {"bench", "--threads", "two"};
  EXPECT_THROW(parse_runner_flags(3, const_cast<char**>(malformed)),
               std::invalid_argument);
  const char* overflow[] = {"bench", "--threads", "99999999999999999999"};
  EXPECT_THROW(parse_runner_flags(3, const_cast<char**>(overflow)),
               std::invalid_argument);
  const char* huge[] = {"bench", "--threads", "99999999999"};
  EXPECT_THROW(parse_runner_flags(3, const_cast<char**>(huge)),
               std::invalid_argument);
  // Negative counts are valid: they select hardware concurrency.
  const char* negative[] = {"bench", "--threads", "-1"};
  EXPECT_EQ(parse_runner_flags(3, const_cast<char**>(negative)).threads, -1);
}

TEST(RunnerGridTest, RowsComputeInIndexOrderWithTaskSeeds) {
  BenchGrid grid;
  grid.columns = {"Row", "Seed"};
  grid.rows = 16;
  grid.cells = [](std::int64_t i, std::uint64_t seed) {
    return std::vector<std::string>{std::to_string(i), std::to_string(seed)};
  };
  ThreadPool pool(4);
  const auto rows = run_grid(grid, pool, 99);
  ASSERT_EQ(rows.size(), 16u);
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)][0], std::to_string(i));
    EXPECT_EQ(rows[static_cast<std::size_t>(i)][1],
              std::to_string(task_seed(99, i)));
  }
}

TEST(RunnerGridTest, CsvRendersHeaderAndRows) {
  BenchGrid grid;
  grid.columns = {"A", "B"};
  grid.rows = 2;
  grid.cells = [](std::int64_t i, std::uint64_t) {
    return std::vector<std::string>{std::to_string(i), "x"};
  };
  ThreadPool pool(1);
  EXPECT_EQ(grid_csv(grid, run_grid(grid, pool, 0)), "A,B\n0,x\n1,x\n");
  // RFC 4180: cells holding a comma, quote or newline are quoted, with
  // embedded quotes doubled.
  grid.columns = {"P,Q", "B"};
  grid.rows = 1;
  grid.cells = [](std::int64_t, std::uint64_t) {
    return std::vector<std::string>{"say \"hi\"", "a\nb"};
  };
  EXPECT_EQ(grid_csv(grid, run_grid(grid, pool, 0)),
            "\"P,Q\",B\n\"say \"\"hi\"\"\",\"a\nb\"\n");
}

TEST(SweepEngineTest, MatchesSerialEngineOnAnalyticalTables) {
  SweepContext context;
  ThreadPool pool(4);
  SweepEngine engine(context, pool);

  const auto mira_sweep = core::mira_rows(&engine);
  const auto mira_serial = core::mira_rows();
  ASSERT_EQ(mira_sweep.size(), mira_serial.size());
  for (std::size_t i = 0; i < mira_sweep.size(); ++i) {
    EXPECT_EQ(mira_sweep[i].current, mira_serial[i].current);
    EXPECT_EQ(mira_sweep[i].proposed, mira_serial[i].proposed);
    EXPECT_EQ(mira_sweep[i].proposed_bw, mira_serial[i].proposed_bw);
  }

  const auto design_sweep = core::table5_rows(&engine);
  const auto design_serial = core::table5_rows();
  ASSERT_EQ(design_sweep.size(), design_serial.size());
  for (std::size_t i = 0; i < design_sweep.size(); ++i) {
    EXPECT_EQ(design_sweep[i].midplanes, design_serial[i].midplanes);
    EXPECT_EQ(design_sweep[i].juqueen, design_serial[i].juqueen);
    EXPECT_EQ(design_sweep[i].j54, design_serial[i].j54);
    EXPECT_EQ(design_sweep[i].j48, design_serial[i].j48);
  }
}

TEST(SweepEngineTest, PairingAndCapsMatchSerialExactly) {
  SweepContext context;
  ThreadPool pool(4);
  SweepEngine engine(context, pool);

  const auto sweep_rows = core::fig4_juqueen_pairing(fast_pingpong(), &engine);
  const auto serial_rows = core::fig4_juqueen_pairing(fast_pingpong());
  ASSERT_EQ(sweep_rows.size(), serial_rows.size());
  for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
    EXPECT_EQ(sweep_rows[i].baseline, serial_rows[i].baseline);
    EXPECT_EQ(sweep_rows[i].proposed, serial_rows[i].proposed);
    EXPECT_EQ(sweep_rows[i].baseline_result.measured_seconds,
              serial_rows[i].baseline_result.measured_seconds);
    EXPECT_EQ(sweep_rows[i].speedup, serial_rows[i].speedup);
  }
  // pairing() composes two pingpong() calls on the routing cache, so each
  // distinct geometry across the rows is routed exactly once.
  std::set<bgq::Geometry> geometries;
  for (const auto& row : sweep_rows) {
    geometries.insert(row.baseline);
    geometries.insert(row.proposed);
  }
  CacheStats routing;
  for (const auto& cache : context.all_stats()) {
    if (std::string(cache.name) == "routing") routing = cache.stats;
  }
  EXPECT_EQ(routing.misses, geometries.size());

  // The engine's CAPS hook returns exactly the direct simulation (small
  // rank count keeps this fast; the full Figure 5/6 pipelines are
  // exercised at scale by the integration suite through the same engine).
  const strassen::CapsParams params{9408, 343, 2};
  for (const auto& geometry :
       {bgq::Geometry(2, 1, 1, 1), bgq::Geometry(2, 2, 1, 1)}) {
    const double direct = core::caps_comm_seconds(geometry, params);
    EXPECT_EQ(engine.caps_comm_seconds(geometry, params), direct);
    EXPECT_EQ(engine.caps_comm_seconds(geometry, params), direct);
  }
}

// The determinism regression of the ported drivers (ISSUE acceptance):
// the full driver pipeline — experiment rows through the SweepEngine, then
// the canonical grid and CSV — must be byte-identical between
// --threads 1 and --threads N.

std::string fig4_driver_csv(int threads) {
  SweepContext context;
  ThreadPool pool(threads);
  SweepEngine engine(context, pool);
  const auto grid =
      pairing_grid(core::fig4_juqueen_pairing(fast_pingpong(), &engine));
  return grid_csv(grid, run_grid(grid, pool, 42));
}

TEST(RunnerDeterminismTest, Fig4PairingCsvByteIdenticalAcrossThreadCounts) {
  const std::string serial = fig4_driver_csv(1);
  EXPECT_EQ(serial, fig4_driver_csv(4));
  EXPECT_EQ(serial, fig4_driver_csv(7));
}

std::string table5_driver_csv(int threads) {
  SweepContext context;
  ThreadPool pool(threads);
  SweepEngine engine(context, pool);
  const auto grid = machine_design_grid(core::table5_rows(&engine));
  return grid_csv(grid, run_grid(grid, pool, 42));
}

TEST(RunnerDeterminismTest,
     Table5MachineDesignCsvByteIdenticalAcrossThreadCounts) {
  const std::string serial = table5_driver_csv(1);
  EXPECT_EQ(serial, table5_driver_csv(4));
  EXPECT_EQ(serial, table5_driver_csv(7));
}

TEST(RunnerFlagsTest, ParsesListAndFilter) {
  const char* argv[] = {"bench", "--list", "--filter=dragonfly"};
  const RunnerConfig config = parse_runner_flags(3, const_cast<char**>(argv));
  EXPECT_TRUE(config.list);
  EXPECT_EQ(config.filter, "dragonfly");

  const char* spaced[] = {"bench", "--filter", "mp8"};
  EXPECT_EQ(parse_runner_flags(3, const_cast<char**>(spaced)).filter, "mp8");
}

TEST(RunnerGridTest, SelectRowsFiltersByLabel) {
  BenchGrid grid;
  grid.columns = {"X"};
  grid.rows = 4;
  grid.cells = [](std::int64_t i, std::uint64_t) {
    return std::vector<std::string>{std::to_string(i)};
  };
  // Default labels are "row<i>".
  EXPECT_EQ(row_label(grid, 2), "row2");
  EXPECT_EQ(select_rows(grid, "row3"), (std::vector<std::int64_t>{3}));
  EXPECT_EQ(select_rows(grid, ""), (std::vector<std::int64_t>{0, 1, 2, 3}));

  grid.label = [](std::int64_t i) {
    return (i % 2 == 0 ? "even" : "odd") + std::to_string(i);
  };
  EXPECT_EQ(select_rows(grid, "even"), (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(select_rows(grid, "nope"), (std::vector<std::int64_t>{}));
}

TEST(RunnerGridTest, FilteredRowsKeepTheirOriginalSeeds) {
  BenchGrid grid;
  grid.columns = {"Row", "Seed"};
  grid.rows = 8;
  grid.cells = [](std::int64_t i, std::uint64_t seed) {
    return std::vector<std::string>{std::to_string(i), std::to_string(seed)};
  };
  ThreadPool pool(2);
  const std::vector<std::int64_t> selection = {1, 6};
  const auto rows = run_grid(grid, pool, 99, nullptr, &selection);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "1");
  EXPECT_EQ(rows[0][1], std::to_string(task_seed(99, 1)));
  EXPECT_EQ(rows[1][0], "6");
  EXPECT_EQ(rows[1][1], std::to_string(task_seed(99, 6)));
}

std::string table7_driver_csv(int threads) {
  SweepContext context;
  ThreadPool pool(threads);
  SweepEngine engine(context, pool);
  const auto grid = best_worst_grid(core::juqueen_rows(&engine));
  return grid_csv(grid, run_grid(grid, pool, 42));
}

TEST(RunnerDeterminismTest, Table7BestWorstCsvByteIdenticalAcrossThreadCounts) {
  EXPECT_EQ(table7_driver_csv(1), table7_driver_csv(5));
}

std::string ext_topologies_driver_csv(int threads) {
  SweepContext context;
  ThreadPool pool(threads);
  SweepEngine engine(context, pool);
  const auto grid = topology_design_grid(engine, /*fast=*/true);
  return grid_csv(grid, run_grid(grid, pool, 42));
}

TEST(RunnerDeterminismTest,
     ExtTopologiesCsvByteIdenticalAcrossThreadCounts) {
  const std::string serial = ext_topologies_driver_csv(1);
  EXPECT_EQ(serial, ext_topologies_driver_csv(3));
  EXPECT_EQ(serial, ext_topologies_driver_csv(7));
  // One row per family in the fast (512-node) tier, labeled tier:family so
  // --filter can isolate a single topology.
  SweepContext context;
  ThreadPool pool(2);
  SweepEngine engine(context, pool);
  const auto grid = topology_design_grid(engine, /*fast=*/true);
  EXPECT_EQ(grid.rows, 5);
  EXPECT_EQ(row_label(grid, 0), "512:torus");
  EXPECT_EQ(select_rows(grid, "dragonfly").size(), 1u);
}

std::string ext_sched_topologies_csv(int threads) {
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(
      ext_sched_topologies_grid(/*fast=*/true),
      {.threads = threads, .base_seed = 42}, context);
  return topology_scheduler_csv(rows);
}

TEST(RunnerDeterminismTest,
     ExtSchedTopologiesCsvByteIdenticalAcrossThreadCounts) {
  // The ISSUE 4 acceptance regression: the cross-family scheduler grid
  // (all three policies on torus, dragonfly and fat-tree machines at equal
  // unit count) must be byte-identical for any --threads value.
  const std::string serial = ext_sched_topologies_csv(1);
  EXPECT_EQ(serial, ext_sched_topologies_csv(3));
  EXPECT_EQ(serial, ext_sched_topologies_csv(7));

  // Layout-flat Clos: every fat-tree row has slowdown 1.0 under every
  // policy, and waiting never pays — wait-for-best degenerates to
  // best-bisection row-for-row. (First-fit keeps slowdown 1.0 too but may
  // *pack* differently: it scans the most-spread layout first, so its
  // makespans can legitimately differ.)
  SweepContext context;
  const auto rows = run_topology_scheduler_sweep(
      ext_sched_topologies_grid(/*fast=*/true), {.threads = 2, .base_seed = 42},
      context);
  std::map<std::pair<double, int>, double> fattree_wait_makespans;
  for (const auto& row : rows) {
    if (row.machine == "fattree" &&
        row.policy == core::SchedulerPolicy::kWaitForBest) {
      fattree_wait_makespans[{row.contention_fraction, row.replication}] =
          row.makespan_seconds;
    }
  }
  for (const auto& row : rows) {
    if (row.machine != "fattree") continue;
    EXPECT_NEAR(row.mean_slowdown, 1.0, 1e-12) << "fat-tree is layout-flat";
    if (row.policy == core::SchedulerPolicy::kBestBisection) {
      EXPECT_EQ(row.makespan_seconds,
                fattree_wait_makespans.at(
                    {row.contention_fraction, row.replication}));
    }
  }
}

TEST(RunnerDeterminismTest, ExtTopologiesMatchesSerialEngine) {
  SweepContext context;
  ThreadPool pool(4);
  SweepEngine engine(context, pool);
  for (const auto& design_case : core::topology_design_cases(/*fast=*/true)) {
    const auto pooled = core::topology_design_row(design_case, &engine);
    const auto serial = core::topology_design_row(design_case);
    EXPECT_EQ(pooled.bisection.method, serial.bisection.method);
    EXPECT_EQ(pooled.bisection.value, serial.bisection.value);
    EXPECT_EQ(pooled.pairing_seconds, serial.pairing_seconds);
  }
  // Second pass hits the descriptor-keyed bisection cache.
  for (const auto& design_case : core::topology_design_cases(/*fast=*/true)) {
    core::topology_design_row(design_case, &engine);
  }
  EXPECT_EQ(context.topology_stats().hits, 5u);
}

TEST(RunnerFlagsTest, ParsesObservabilityFlags) {
  const char* argv[] = {"bench", "--metrics-out=m.json", "--trace-out",
                        "t.json", "--progress"};
  const RunnerConfig config = parse_runner_flags(5, const_cast<char**>(argv));
  EXPECT_EQ(config.metrics_path, "m.json");
  EXPECT_EQ(config.trace_path, "t.json");
  EXPECT_TRUE(config.progress);

  const char* spaced[] = {"bench", "--metrics-out", "a", "--trace-out=b"};
  const RunnerConfig other = parse_runner_flags(4, const_cast<char**>(spaced));
  EXPECT_EQ(other.metrics_path, "a");
  EXPECT_EQ(other.trace_path, "b");
  EXPECT_FALSE(other.progress);

  const char* missing[] = {"bench", "--metrics-out"};
  EXPECT_THROW(parse_runner_flags(2, const_cast<char**>(missing)),
               std::invalid_argument);
}

TEST(RunnerGridTest, FailingRowErrorNamesGridRowAndLabel) {
  BenchGrid grid;
  grid.columns = {"X"};
  grid.rows = 4;
  grid.label = [](std::int64_t i) { return "case" + std::to_string(i); };
  grid.cells = [](std::int64_t i, std::uint64_t) -> std::vector<std::string> {
    if (i == 2) throw std::runtime_error("boom");
    return {std::to_string(i)};
  };
  ThreadPool pool(2);
  try {
    run_grid(grid, pool, 42);
    FAIL() << "expected the failing row's exception to propagate";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("grid row 2 ('case2')"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

namespace {

BenchGrid labeled_demo_grid() {
  BenchGrid grid;
  grid.columns = {"X"};
  grid.rows = 3;
  grid.label = [](std::int64_t i) { return "present" + std::to_string(i); };
  grid.cells = [](std::int64_t i, std::uint64_t) {
    return std::vector<std::string>{std::to_string(i)};
  };
  return grid;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

TEST(RunnerMainTest, FilterMatchingNoRowExitsNonzero) {
  const auto body = [](Runner& runner) { runner.run(labeled_demo_grid()); };
  const char* none[] = {"bench", "--threads", "1", "--filter=absent"};
  EXPECT_NE(Runner::main("filter test", 4, const_cast<char**>(none), body), 0);
  const char* some[] = {"bench", "--threads", "1", "--filter=present1"};
  EXPECT_EQ(Runner::main("filter test", 4, const_cast<char**>(some), body), 0);
}

TEST(RunnerMainTest, WritesMetricsAndTraceArtifacts) {
  const std::string metrics_path =
      ::testing::TempDir() + "runner_test_metrics.json";
  const std::string trace_path = ::testing::TempDir() + "runner_test_trace.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  const std::string trace_flag = "--trace-out=" + trace_path;
  const char* argv[] = {"bench", "--threads", "2", metrics_flag.c_str(),
                        trace_flag.c_str()};
  const int code =
      Runner::main("artifact test", 5, const_cast<char**>(argv),
                   [](Runner& runner) { runner.run(labeled_demo_grid()); });
  EXPECT_EQ(code, 0);

  const obs::JsonValue metrics = obs::JsonValue::parse(slurp(metrics_path));
  EXPECT_EQ(metrics.at("counters").at("pool.tasks").number(), 3.0);
  EXPECT_TRUE(metrics.contains("histograms"));

  const obs::JsonValue trace = obs::JsonValue::parse(slurp(trace_path));
  // Two process_name metadata records plus at least the run_indexed span.
  EXPECT_GT(trace.at("traceEvents").array().size(), 2u);
}

TEST(RunnerMainTest, FooterReportsEveryCacheTheRunUsed) {
  // The ext_topologies driver body: its rows are served by the
  // descriptor-keyed topology cache, which the footer must list beside
  // the others (it iterates SweepContext::all_stats()).
  const char* argv[] = {"bench", "--threads", "1", "--fast"};
  ::testing::internal::CaptureStdout();
  const int code = Runner::main(
      "footer test", 4, const_cast<char**>(argv), [](Runner& runner) {
        runner.run(topology_design_grid(runner.engine(), runner.fast()));
      });
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0);
  const std::string footer = out.substr(out.rfind(" s on "));
  EXPECT_NE(footer.find("; topologies "), std::string::npos) << footer;
}

}  // namespace
}  // namespace npac::sweep
