// Scheduler-simulation tests: grid occupancy, placement search, the three
// allocation policies, and the quality/utilization trade-off the paper's
// Future Work describes.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace npac::core {
namespace {

Job make_job(std::int64_t id, std::int64_t midplanes, double seconds,
             bool contention_bound = true, double arrival = 0.0) {
  return {id, midplanes, seconds, contention_bound, arrival};
}

TEST(PlacementTest, GeometryCanonicalizesExtent) {
  Placement placement;
  placement.extent = {1, 2, 4, 1};
  EXPECT_EQ(placement.midplanes(), 8);
  EXPECT_EQ(placement.geometry(), bgq::Geometry(4, 2, 1, 1));
  EXPECT_NE(placement.to_string().find("1x2x4x1"), std::string::npos);
}

TEST(MidplaneGridTest, StartsEmpty) {
  const MidplaneGrid grid(bgq::mira());
  EXPECT_EQ(grid.free_midplanes(), 96);
}

TEST(MidplaneGridTest, OccupyAndRelease) {
  MidplaneGrid grid(bgq::mira());
  Placement placement;
  placement.extent = {2, 2, 1, 1};
  grid.occupy(placement, /*job_id=*/7);
  EXPECT_EQ(grid.free_midplanes(), 92);
  EXPECT_FALSE(grid.fits(placement));  // same cells now taken
  EXPECT_EQ(grid.release(7), 4);
  EXPECT_EQ(grid.free_midplanes(), 96);
  EXPECT_TRUE(grid.fits(placement));
}

TEST(MidplaneGridTest, RejectsOverlap) {
  MidplaneGrid grid(bgq::mira());
  Placement a;
  a.extent = {4, 4, 3, 2};  // the whole machine
  grid.occupy(a, 1);
  Placement b;
  b.extent = {1, 1, 1, 1};
  EXPECT_THROW(grid.occupy(b, 2), std::invalid_argument);
}

TEST(MidplaneGridTest, WrapAroundPlacementsCount) {
  MidplaneGrid grid(bgq::mira());
  Placement wrap;
  wrap.origin = {3, 0, 0, 0};  // dim 0 has length 4: cells {3, 0}
  wrap.extent = {2, 1, 1, 1};
  EXPECT_TRUE(grid.fits(wrap));
  grid.occupy(wrap, 1);
  Placement blocked;
  blocked.origin = {0, 0, 0, 0};
  blocked.extent = {1, 1, 1, 1};
  EXPECT_FALSE(grid.fits(blocked));  // cell (0,0,0,0) is taken via wrap
}

TEST(PlacementTest, WrappedExtentKeepsCountAndCanonicalGeometry) {
  // An oriented extent that wraps a grid dimension describes the same
  // cuboid as its unwrapped translate: Placement::geometry() canonicalizes
  // the extent (never the wrapped cell coordinates), so the midplane count,
  // the canonical geometry, and the occupancy accounting must all match
  // those of the anchored-at-origin placement.
  MidplaneGrid grid(bgq::mira());  // 4 x 4 x 3 x 2
  Placement wrap;
  wrap.origin = {2, 3, 1, 1};  // wraps dims 0 (cells {2,3,0,1}), 1, 2 and 3
  wrap.extent = {4, 2, 3, 2};
  EXPECT_EQ(wrap.midplanes(), 48);
  EXPECT_EQ(wrap.geometry(), bgq::Geometry(4, 3, 2, 2));
  Placement anchored;
  anchored.extent = wrap.extent;
  EXPECT_EQ(wrap.geometry(), anchored.geometry());

  // Full-wrap dimensions visit each cell exactly once: occupying must
  // remove exactly midplanes() cells, and a second overlapping placement
  // must be rejected.
  ASSERT_TRUE(grid.fits(wrap));
  grid.occupy(wrap, 7);
  EXPECT_EQ(grid.free_midplanes(), bgq::mira().midplanes() - 48);
  EXPECT_EQ(grid.release(7), 48);
}

TEST(MidplaneGridTest, FitsRejectsBadExtents) {
  const MidplaneGrid grid(bgq::juqueen());  // 7 x 2 x 2 x 2
  Placement too_big;
  too_big.extent = {1, 3, 1, 1};  // 3 exceeds the length-2 dimension
  EXPECT_FALSE(grid.fits(too_big));
  Placement bad_origin;
  bad_origin.origin = {7, 0, 0, 0};
  bad_origin.extent = {1, 1, 1, 1};
  EXPECT_FALSE(grid.fits(bad_origin));
}

TEST(MidplaneGridTest, FindPlacementTriesOrientations) {
  MidplaneGrid grid(bgq::mira());  // 4 x 4 x 3 x 2
  // 3 x 2 x 1 x 1 must be placed with the 3 along a dimension >= 3.
  const auto placement = grid.find_placement(bgq::Geometry(3, 2, 1, 1),
                                             PositionScoring::kScanOrder);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->geometry(), bgq::Geometry(3, 2, 1, 1));
  EXPECT_TRUE(grid.fits(*placement));
}

TEST(MidplaneGridTest, FindPlacementFailsWhenFull) {
  MidplaneGrid grid(bgq::mira());
  Placement all;
  all.extent = {4, 4, 3, 2};
  grid.occupy(all, 1);
  for (const auto scoring :
       {PositionScoring::kScanOrder, PositionScoring::kBestFit}) {
    EXPECT_FALSE(
        grid.find_placement(bgq::Geometry(1, 1, 1, 1), scoring).has_value());
  }
}

TEST(ContentionRuntimeTest, ScalesWithBisectionRatio) {
  const bgq::Machine m = bgq::mira();
  EXPECT_DOUBLE_EQ(
      contention_runtime_seconds(m, bgq::Geometry(2, 2, 1, 1), 10.0), 10.0);
  EXPECT_DOUBLE_EQ(
      contention_runtime_seconds(m, bgq::Geometry(4, 1, 1, 1), 10.0), 20.0);
}

TEST(SchedulerTest, SingleJobRunsImmediately) {
  const auto result = simulate_schedule(*make_allocator(bgq::mira()),
                                        SchedulerPolicy::kBestBisection,
                                        {make_job(0, 4, 100.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].slowdown, 1.0);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 100.0);
  ASSERT_TRUE(result.jobs[0].partition.cuboid.has_value());
  EXPECT_EQ(result.jobs[0].partition.cuboid->geometry(),
            bgq::Geometry(2, 2, 1, 1));
}

TEST(SchedulerTest, FirstFitPicksWorseGeometry) {
  const auto result = simulate_schedule(*make_allocator(bgq::mira()),
                                        SchedulerPolicy::kFirstFit,
                                        {make_job(0, 4, 100.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_TRUE(result.jobs[0].partition.cuboid.has_value());
  EXPECT_EQ(result.jobs[0].partition.cuboid->geometry(),
            bgq::Geometry(4, 1, 1, 1));
  EXPECT_DOUBLE_EQ(result.jobs[0].slowdown, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 200.0);
}

TEST(SchedulerTest, ComputeBoundJobsAreImmuneToGeometry) {
  const auto result = simulate_schedule(
      *make_allocator(bgq::mira()), SchedulerPolicy::kFirstFit,
      {make_job(0, 4, 100.0, /*contention_bound=*/false)});
  EXPECT_DOUBLE_EQ(result.jobs[0].slowdown, 1.0);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 100.0);
}

TEST(SchedulerTest, BestBisectionBeatsFirstFitOnSlowdown) {
  // A stream of contention-bound 4-midplane jobs saturating the machine.
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < 12; ++i) {
    jobs.push_back(make_job(i, 4, 50.0));
  }
  const auto first_fit =
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kFirstFit, jobs);
  const auto quality =
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kBestBisection, jobs);
  EXPECT_GT(first_fit.mean_slowdown, quality.mean_slowdown);
  EXPECT_GE(first_fit.makespan_seconds, quality.makespan_seconds);
}

TEST(SchedulerTest, WaitForBestNeverDegradesQuality) {
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < 10; ++i) {
    jobs.push_back(make_job(i, 8, 30.0));
  }
  const auto result =
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kWaitForBest, jobs);
  for (const auto& record : result.jobs) {
    EXPECT_DOUBLE_EQ(record.slowdown, 1.0) << "job " << record.job.id;
  }
}

TEST(SchedulerTest, WaitForBestTradesWaitTimeForQuality) {
  // Jam the machine so only sub-optimal boxes are free for a while: the
  // greedy policy takes them (slowdown), the waiting policy queues.
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < 24; ++i) {
    jobs.push_back(make_job(i, 4, 10.0));
  }
  const auto greedy =
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kBestBisection, jobs);
  const auto waiting =
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kWaitForBest, jobs);
  EXPECT_LE(waiting.mean_slowdown, greedy.mean_slowdown);
  EXPECT_GE(waiting.mean_wait_seconds, greedy.mean_wait_seconds);
}

TEST(SchedulerTest, ArrivalsGateStartTimes) {
  const auto result = simulate_schedule(
      *make_allocator(bgq::mira()), SchedulerPolicy::kBestBisection,
      {make_job(0, 4, 10.0, true, 0.0), make_job(1, 4, 10.0, true, 100.0)});
  EXPECT_DOUBLE_EQ(result.jobs[1].start_seconds, 100.0);
}

TEST(SchedulerTest, FcfsHeadOfLineBlocks) {
  // Job 1 needs the whole machine; job 2 is small but must wait behind it.
  const auto result = simulate_schedule(
      *make_allocator(bgq::mira()), SchedulerPolicy::kBestBisection,
      {make_job(0, 64, 10.0), make_job(1, 96, 10.0), make_job(2, 1, 10.0)});
  EXPECT_DOUBLE_EQ(result.jobs[1].start_seconds, 10.0);
  EXPECT_GE(result.jobs[2].start_seconds, result.jobs[1].start_seconds);
}

TEST(SchedulerTest, RejectsInfeasibleSizeAndBadArrivals) {
  EXPECT_THROW(simulate_schedule(*make_allocator(bgq::juqueen()),
                                 SchedulerPolicy::kBestBisection,
                                 {make_job(0, 9, 1.0)}),
               std::invalid_argument);
  EXPECT_THROW(
      simulate_schedule(*make_allocator(bgq::mira()),
                        SchedulerPolicy::kBestBisection,
                        {make_job(0, 1, 1.0, true, 5.0),
                         make_job(1, 1, 1.0, true, 0.0)}),
      std::invalid_argument);
}

TEST(SchedulerTest, InfeasibleSizeThrowNamesJobSizeAndMachine) {
  // The infeasible-size diagnostic must identify which job of the stream
  // asked for what, on which machine — a trace of 48 jobs is otherwise
  // undebuggable from "infeasible job size" alone.
  try {
    simulate_schedule(*make_allocator(bgq::juqueen()),
                      SchedulerPolicy::kBestBisection,
                      {make_job(0, 2, 1.0), make_job(17, 9, 1.0, true, 1.0)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 17"), std::string::npos) << message;
    EXPECT_NE(message.find("size 9"), std::string::npos) << message;
    EXPECT_NE(message.find("JUQUEEN"), std::string::npos) << message;
    EXPECT_NE(message.find("torus:7x2x2x2"), std::string::npos) << message;
  }
}

TEST(SchedulerTest, RejectsNonEmptyAllocator) {
  // A pre-seeded allocator used to silently deadlock or mis-simulate
  // (foreign allocations are never released by the stream); it is now a
  // validated precondition. The throw names the machine and occupancy.
  CuboidAllocator allocator(bgq::mira());
  ASSERT_TRUE(allocator.try_place(96, 0, /*job_id=*/999).has_value());
  try {
    simulate_schedule(allocator, SchedulerPolicy::kBestBisection,
                      {make_job(3, 4, 1.0)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("must start empty"), std::string::npos) << message;
    EXPECT_NE(message.find("Mira"), std::string::npos) << message;
  }
}

TEST(SchedulerTest, BadArrivalThrowNamesOffendingJob) {
  try {
    simulate_schedule(*make_allocator(bgq::mira()),
                      SchedulerPolicy::kBestBisection,
                      {make_job(4, 1, 1.0, true, 5.0),
                       make_job(11, 1, 1.0, true, 2.0)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 11"), std::string::npos) << message;
    EXPECT_NE(message.find("non-decreasing"), std::string::npos) << message;
  }
}

TEST(SchedulerTest, PolicyNames) {
  EXPECT_EQ(to_string(SchedulerPolicy::kFirstFit), "first-fit");
  EXPECT_EQ(to_string(SchedulerPolicy::kBestBisection), "best-bisection");
  EXPECT_EQ(to_string(SchedulerPolicy::kWaitForBest), "wait-for-best");
  EXPECT_EQ(to_string(SchedulerPolicy::kEasyBackfill), "easy-backfill");
}

}  // namespace
}  // namespace npac::core
