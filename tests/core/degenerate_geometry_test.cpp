// Degenerate-geometry guards: single-midplane machines and length-1
// dimensions must flow through the speedup/slowdown ratios without division
// hazards (the ratios are guarded against zero bisections).
#include <gtest/gtest.h>

#include <cmath>

#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "core/scheduler.hpp"

namespace npac::core {
namespace {

bgq::Machine single_midplane_machine() {
  return {"tiny", bgq::Geometry(1, 1, 1, 1)};
}

TEST(DegenerateGeometryTest, PredictedSpeedupIsFiniteOnSingleMidplane) {
  const bgq::Geometry g(1, 1, 1, 1);
  const double speedup = bgq::predicted_speedup(g, g);
  EXPECT_TRUE(std::isfinite(speedup));
  EXPECT_DOUBLE_EQ(speedup, 1.0);
}

TEST(DegenerateGeometryTest, ContentionRuntimeOnSingleMidplaneMachine) {
  const bgq::Machine machine = single_midplane_machine();
  EXPECT_DOUBLE_EQ(
      contention_runtime_seconds(machine, bgq::Geometry(1, 1, 1, 1), 7.0),
      7.0);
}

TEST(DegenerateGeometryTest, SchedulerRunsOnSingleMidplaneMachine) {
  const auto result = simulate_schedule(
      *make_allocator(single_midplane_machine()), SchedulerPolicy::kFirstFit,
      {{0, 1, 10.0, true, 0.0}, {1, 1, 10.0, true, 0.0}});
  ASSERT_EQ(result.jobs.size(), 2u);
  for (const ScheduledJob& record : result.jobs) {
    EXPECT_TRUE(std::isfinite(record.slowdown));
    EXPECT_DOUBLE_EQ(record.slowdown, 1.0);
    EXPECT_TRUE(std::isfinite(record.finish_seconds));
  }
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 20.0);  // serialized on 1 cell
}

TEST(DegenerateGeometryTest, AdvisorReportsFiniteSpeedupEverywhere) {
  // Machines with length-1 dimensions: every recommendation's ratio must be
  // finite, including the degenerate 1-midplane size.
  for (const auto& advisor :
       {PartitionAdvisor(single_midplane_machine(),
                         AllocationPolicy::kFreeCuboid),
        PartitionAdvisor::for_mira(), PartitionAdvisor::for_juqueen()}) {
    for (const Recommendation& rec : advisor.advise_all()) {
      EXPECT_TRUE(std::isfinite(rec.predicted_speedup))
          << advisor.machine().name << " size " << rec.midplanes;
      EXPECT_GE(rec.predicted_speedup, 1.0);
    }
  }
}

TEST(DegenerateGeometryTest, Length1DimensionGeometriesStayFinite) {
  // Every Mira scheduler entry with a length-1 dimension (most of them).
  const bgq::Machine machine = bgq::mira();
  for (const bgq::PolicyEntry& entry : bgq::mira_scheduler_partitions()) {
    const double runtime =
        contention_runtime_seconds(machine, entry.geometry, 1.0);
    EXPECT_TRUE(std::isfinite(runtime)) << entry.geometry.to_string();
    EXPECT_GE(runtime, 1.0);
  }
}

}  // namespace
}  // namespace npac::core
