// Workload-trace tests: deterministic generation, configurable mixes,
// exact serialization round trips, and replay through the scheduler.
#include "sweep/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "bgq/machine.hpp"
#include "sweep/cache.hpp"

namespace npac::sweep {
namespace {

bool jobs_equal(const std::vector<core::Job>& a,
                const std::vector<core::Job>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].midplanes != b[i].midplanes ||
        a[i].base_seconds != b[i].base_seconds ||
        a[i].contention_bound != b[i].contention_bound ||
        a[i].arrival_seconds != b[i].arrival_seconds) {
      return false;
    }
  }
  return true;
}

TEST(RngTest, UnitValuesAreInRange) {
  std::uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    const double u = next_unit(state);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ZeroStateIsRemapped) {
  std::uint64_t state = 0;
  EXPECT_NE(next_u64(state), 0u);
  EXPECT_NE(state, 0u);
}

TEST(TraceTest, SameSeedSameTrace) {
  const TraceConfig config;
  const auto a = generate_trace(bgq::mira(), config, 42);
  const auto b = generate_trace(bgq::mira(), config, 42);
  EXPECT_TRUE(jobs_equal(a, b));
}

TEST(TraceTest, DifferentSeedsDiffer) {
  const TraceConfig config;
  const auto a = generate_trace(bgq::mira(), config, 42);
  const auto b = generate_trace(bgq::mira(), config, 43);
  EXPECT_FALSE(jobs_equal(a, b));
}

TEST(TraceTest, ArrivalsAreNonDecreasingAndSizesAllocatable) {
  const auto sizes = default_trace_sizes(bgq::mira());
  const auto jobs = generate_trace(bgq::mira(), TraceConfig{}, 7);
  ASSERT_EQ(jobs.size(), 48u);
  double last_arrival = 0.0;
  for (const core::Job& job : jobs) {
    EXPECT_GE(job.arrival_seconds, last_arrival);
    last_arrival = job.arrival_seconds;
    EXPECT_NE(std::find(sizes.begin(), sizes.end(), job.midplanes),
              sizes.end())
        << "size " << job.midplanes;
    EXPECT_GE(job.base_seconds, 20.0);
    EXPECT_LE(job.base_seconds, 40.0);
  }
}

TEST(TraceTest, ContentionFractionExtremes) {
  TraceConfig config;
  config.contention_fraction = 0.0;
  for (const core::Job& job : generate_trace(bgq::mira(), config, 1)) {
    EXPECT_FALSE(job.contention_bound);
  }
  config.contention_fraction = 1.0;
  for (const core::Job& job : generate_trace(bgq::mira(), config, 1)) {
    EXPECT_TRUE(job.contention_bound);
  }
}

TEST(TraceTest, DefaultSizesRespectTheMachine) {
  const auto mira_sizes = default_trace_sizes(bgq::mira());
  EXPECT_EQ(mira_sizes.size(), 10u);  // the full scheduler list
  const auto juqueen_sizes = default_trace_sizes(bgq::juqueen());
  // 64 and 96 midplanes do not fit 7 x 2 x 2 x 2.
  EXPECT_EQ(std::count(juqueen_sizes.begin(), juqueen_sizes.end(), 64), 0);
  EXPECT_EQ(std::count(juqueen_sizes.begin(), juqueen_sizes.end(), 96), 0);
  EXPECT_EQ(std::count(juqueen_sizes.begin(), juqueen_sizes.end(), 48), 1);
}

TEST(TraceTest, RejectsBadConfigs) {
  TraceConfig config;
  config.contention_fraction = 1.5;
  EXPECT_THROW(generate_trace(bgq::mira(), config, 1), std::invalid_argument);
  config = TraceConfig{};
  config.min_base_seconds = 10.0;
  config.max_base_seconds = 5.0;
  EXPECT_THROW(generate_trace(bgq::mira(), config, 1), std::invalid_argument);
  config = TraceConfig{};
  config.sizes = {9};  // not allocatable on JUQUEEN
  EXPECT_THROW(generate_trace(bgq::juqueen(), config, 1),
               std::invalid_argument);
}

TEST(TraceTest, SerializationRoundTripsExactly) {
  const auto jobs = generate_trace(bgq::mira(), TraceConfig{}, 99);
  const auto parsed = parse_trace(format_trace(jobs));
  EXPECT_TRUE(jobs_equal(jobs, parsed));
}

TEST(TraceTest, CrlfTraceRoundTripsLikeLf) {
  // A trace authored on Windows (or passed through a \n -> \r\n
  // conversion) must parse identically to the LF original.
  const auto jobs = generate_trace(bgq::mira(), TraceConfig{}, 99);
  std::string crlf;
  for (const char c : format_trace(jobs)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_TRUE(jobs_equal(jobs, parse_trace(crlf)));
  // A lone CRLF line (blank line with Windows ending) is skipped, and a
  // CRLF header with no rows parses as an empty trace.
  const std::string header =
      "id,midplanes,base_seconds,contention_bound,arrival_seconds\r\n";
  EXPECT_TRUE(parse_trace(header).empty());
  EXPECT_TRUE(parse_trace(header + "\r\n").empty());
}

TEST(TraceTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_trace(""), std::invalid_argument);
  EXPECT_THROW(parse_trace("wrong,header\n"), std::invalid_argument);
  const std::string header =
      "id,midplanes,base_seconds,contention_bound,arrival_seconds\n";
  EXPECT_THROW(parse_trace(header + "1,2,3\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace(header + "1,2,3,4,5,6\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace(header + "x,2,3.0,1,5.0\n"), std::invalid_argument);
  // Trailing garbage after a valid prefix must be rejected, not truncated.
  EXPECT_THROW(parse_trace(header + "1,2,3.0abc,1,5.0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_trace(header + "1,2z,3.0,1,5.0\n"),
               std::invalid_argument);
}

TEST(TraceTest, ParseRejectsNonFiniteTimesNamingLine) {
  const std::string header =
      "id,midplanes,base_seconds,contention_bound,arrival_seconds\n";
  const std::string good = "0,1,3.0,1,0.0\n";
  for (const std::string row :
       {"1,2,nan,1,5.0", "1,2,3.0,1,nan", "1,2,inf,1,5.0", "1,2,3.0,1,-inf",
        "1,2,3.0,1,1e400"}) {
    try {
      parse_trace(header + good + row + "\n");
      ADD_FAILURE() << "expected std::invalid_argument for " << row;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
          << row << ": " << error.what();
    }
  }
}

TEST(TraceTest, PoolOverloadMatchesMachineOverloadDrawForDraw) {
  // The machine-agnostic overload with the machine's effective pool must
  // produce the identical stream — that is what lets the cross-family
  // sweeps replay one trace on every machine of an equal-unit tier.
  TraceConfig config;
  config.num_jobs = 20;
  const auto via_machine = generate_trace(bgq::mira(), config, 11);
  const auto via_pool =
      generate_trace(default_trace_sizes(bgq::mira()), config, 11);
  ASSERT_EQ(via_machine.size(), via_pool.size());
  for (std::size_t i = 0; i < via_machine.size(); ++i) {
    EXPECT_EQ(via_machine[i].midplanes, via_pool[i].midplanes);
    EXPECT_EQ(via_machine[i].base_seconds, via_pool[i].base_seconds);
    EXPECT_EQ(via_machine[i].contention_bound, via_pool[i].contention_bound);
    EXPECT_EQ(via_machine[i].arrival_seconds, via_pool[i].arrival_seconds);
  }

  EXPECT_THROW(generate_trace(std::vector<std::int64_t>{}, config, 11),
               std::invalid_argument);
}

TEST(TraceTest, ReplayRunsOnNonTorusAllocators) {
  TraceConfig config;
  config.num_jobs = 8;
  const auto jobs = generate_trace({2, 4, 8}, config, 3);
  const auto allocator =
      core::make_allocator(topo::TopologySpec::fat_tree(8));
  const auto result = core::simulate_schedule(
      *allocator, core::SchedulerPolicy::kBestBisection, jobs);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  EXPECT_NEAR(result.mean_slowdown, 1.0, 1e-12);  // layout-flat Clos
}

TEST(TraceTest, ReplayMatchesDirectSimulation) {
  TraceConfig config;
  config.num_jobs = 16;
  const auto jobs = generate_trace(bgq::mira(), config, 5);
  SweepContext context;
  const auto replayed = core::simulate_schedule(
      *core::make_allocator(bgq::mira(), context),
      core::SchedulerPolicy::kBestBisection, jobs);
  const auto direct = core::simulate_schedule(
      *core::make_allocator(bgq::mira()), core::SchedulerPolicy::kBestBisection,
      jobs);
  EXPECT_DOUBLE_EQ(replayed.makespan_seconds, direct.makespan_seconds);
  EXPECT_DOUBLE_EQ(replayed.mean_slowdown, direct.mean_slowdown);
  EXPECT_DOUBLE_EQ(replayed.mean_wait_seconds, direct.mean_wait_seconds);
  ASSERT_EQ(replayed.jobs.size(), direct.jobs.size());
  for (std::size_t i = 0; i < replayed.jobs.size(); ++i) {
    ASSERT_TRUE(replayed.jobs[i].partition.cuboid.has_value());
    ASSERT_TRUE(direct.jobs[i].partition.cuboid.has_value());
    EXPECT_EQ(replayed.jobs[i].partition.cuboid->geometry(),
              direct.jobs[i].partition.cuboid->geometry());
    EXPECT_DOUBLE_EQ(replayed.jobs[i].slowdown, direct.jobs[i].slowdown);
  }
}

}  // namespace
}  // namespace npac::sweep
