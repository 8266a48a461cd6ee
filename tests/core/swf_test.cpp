// SWF importer tests: header comments, -1 sentinels with field fallbacks,
// CRLF line endings, unit scaling, size-pool clamping, and the
// deterministic contention labeling.
#include "core/swf.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace npac::core {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(NPAC_SWF_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SwfTest, ParsesFixtureSkippingCommentsAndCancelledRows) {
  const auto jobs = parse_swf(read_fixture("sample.swf"));
  // Job 4 has no runtime and no processor count after fallbacks.
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[1].id, 2);
  EXPECT_EQ(jobs[2].id, 3);
  EXPECT_EQ(jobs[3].id, 5);
  EXPECT_EQ(jobs[4].id, 6);
}

TEST(SwfTest, SortsByArrivalAndAppliesSentinelFallbacks) {
  const auto jobs = parse_swf(read_fixture("sample.swf"));
  ASSERT_EQ(jobs.size(), 5u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].arrival_seconds, jobs[i].arrival_seconds);
  }
  // Job 5 (submit 25) files after job 4 but sorts before job 6 (submit 40).
  EXPECT_EQ(jobs[3].id, 5);
  EXPECT_DOUBLE_EQ(jobs[3].arrival_seconds, 25.0);
  // Job 3: run time is -1, requested time 90 is the fallback.
  EXPECT_DOUBLE_EQ(jobs[2].base_seconds, 90.0);
  // Job 5: requested procs is -1, allocated procs 16 is the fallback.
  EXPECT_EQ(jobs[3].midplanes, 16);
  // Job 2: allocated procs is -1, requested procs 128 wins.
  EXPECT_EQ(jobs[1].midplanes, 128);
}

TEST(SwfTest, ScalesProcessorsToUnitsWithCeiling) {
  SwfOptions options;
  options.procs_per_unit = 48;
  const auto jobs = parse_swf(read_fixture("sample.swf"), options);
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].midplanes, 2);   // ceil(64 / 48)
  EXPECT_EQ(jobs[1].midplanes, 3);   // ceil(128 / 48)
  EXPECT_EQ(jobs[2].midplanes, 1);   // ceil(32 / 48)
  EXPECT_EQ(jobs[4].midplanes, 11);  // ceil(512 / 48)
}

TEST(SwfTest, SizePoolRoundsUpAndDropsOversizedJobs) {
  SwfOptions options;
  options.procs_per_unit = 16;  // units: 4, 8, 2, 1, 32
  options.size_pool = {1, 2, 4, 8, 16};
  const auto jobs = parse_swf(read_fixture("sample.swf"), options);
  ASSERT_EQ(jobs.size(), 4u);  // job 6 needs 32 units > max pool size
  EXPECT_EQ(jobs[0].midplanes, 4);
  EXPECT_EQ(jobs[1].midplanes, 8);
  EXPECT_EQ(jobs[2].midplanes, 2);
  EXPECT_EQ(jobs[3].midplanes, 1);
}

TEST(SwfTest, MaxJobsBoundsTheImport) {
  SwfOptions options;
  options.max_jobs = 2;
  const auto jobs = parse_swf(read_fixture("sample.swf"), options);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[1].id, 2);
}

TEST(SwfTest, AcceptsCrlfLineEndings) {
  const std::string crlf =
      "; comment line\r\n"
      "\r\n"
      "7 5 0 100 8 -1 -1 8 120 -1 1 1 1 1 1 -1 -1 -1\r\n";
  const auto jobs = parse_swf(crlf);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 7);
  EXPECT_DOUBLE_EQ(jobs[0].arrival_seconds, 5.0);
  EXPECT_DOUBLE_EQ(jobs[0].base_seconds, 100.0);
  EXPECT_EQ(jobs[0].midplanes, 8);
}

TEST(SwfTest, MalformedRowThrowsNamingLine) {
  const std::string bad =
      "; header\n"
      "1 0 0 120 64 -1 -1 64 150 -1 1 1 1 1 1 -1 -1 -1\n"
      "2 0 0 oops 64 -1 -1 64 150 -1 1 1 1 1 1 -1 -1 -1\n";
  try {
    parse_swf(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(SwfTest, OutOfRangeIntegerFieldsThrowNamingLine) {
  // Each row would otherwise cast a double outside the int64 range to an
  // integer, which is undefined behaviour (job id or units INT64_MIN).
  const std::string ok = "1 0 0 10 4 0 0 4 10\n";
  for (const std::string row :
       {"1e30 0 0 10 4 0 0 4 10", "-1e30 0 0 10 4 0 0 4 10",
        "9223372036854775808 0 0 10 4 0 0 4 10", "2 0 0 10 4 0 0 1e30 10",
        "2 0 0 10 1e30 0 0 -1 10"}) {
    try {
      parse_swf(ok + row + "\n");
      ADD_FAILURE() << "expected std::invalid_argument for " << row;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
          << row << ": " << error.what();
    }
  }
}

TEST(SwfTest, LargestProcessorCountScalesWithoutOverflow) {
  // 2^63 - 1024 processors is in range; the ceiling division must not
  // overflow on the way to ceil((2^63 - 1024) / 2048) = 2^52.
  SwfOptions options;
  options.procs_per_unit = 2048;
  const auto jobs = parse_swf("1 0 0 10 9223372036854774784 0 0 -1 10\n",
                              options);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].midplanes, std::int64_t{1} << 52);
}

TEST(SwfTest, ShortRowThrows) {
  EXPECT_THROW(parse_swf("1 0 0 120\n"), std::invalid_argument);
}

TEST(SwfTest, RejectsBadOptions) {
  SwfOptions bad_unit;
  bad_unit.procs_per_unit = 0;
  EXPECT_THROW(parse_swf("", bad_unit), std::invalid_argument);
  SwfOptions bad_fraction;
  bad_fraction.contention_fraction = 1.5;
  EXPECT_THROW(parse_swf("", bad_fraction), std::invalid_argument);
}

TEST(SwfTest, ContentionLabelIsDeterministicPerId) {
  const std::string text = read_fixture("sample.swf");
  const auto first = parse_swf(text);
  const auto second = parse_swf(text);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].contention_bound, second[i].contention_bound)
        << "job " << first[i].id;
  }
  SwfOptions all;
  all.contention_fraction = 1.0;
  for (const Job& job : parse_swf(text, all)) {
    EXPECT_TRUE(job.contention_bound) << "job " << job.id;
  }
  SwfOptions none;
  none.contention_fraction = 0.0;
  for (const Job& job : parse_swf(text, none)) {
    EXPECT_FALSE(job.contention_bound) << "job " << job.id;
  }
}

}  // namespace
}  // namespace npac::core
