// Property sweeps over the scheduler simulation: conservation (every job
// runs exactly once), capacity (concurrent placements never exceed the
// machine and never overlap), and policy dominance relations, across
// machines and job mixes.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"

namespace npac::core {
namespace {

std::vector<Job> mixed_stream(const bgq::Machine& machine, int count,
                              std::uint64_t seed) {
  // Deterministic pseudo-random stream of feasible sizes.
  const auto sizes = bgq::feasible_sizes(machine);
  std::vector<Job> jobs;
  std::uint64_t state = seed;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  double arrival = 0.0;
  for (int i = 0; i < count; ++i) {
    Job job;
    job.id = i;
    // Bias toward small sizes so streams actually overlap.
    job.midplanes = sizes[next() % (sizes.size() / 2 + 1)];
    job.base_seconds = 1.0 + static_cast<double>(next() % 50);
    job.contention_bound = next() % 3 != 0;
    arrival += static_cast<double>(next() % 7);
    job.arrival_seconds = arrival;
    jobs.push_back(job);
  }
  return jobs;
}

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<int, SchedulerPolicy>> {};

TEST_P(SchedulerSweep, ConservationAndCapacity) {
  const auto& [machine_index, policy] = GetParam();
  const bgq::Machine machine =
      bgq::all_machines().at(static_cast<std::size_t>(machine_index));
  const auto jobs = mixed_stream(machine, 40, 42 + machine_index);
  const auto result = simulate_schedule(*make_allocator(machine), policy, jobs);

  // Conservation: every job appears exactly once, with sane timing.
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScheduledJob& record = result.jobs[i];
    EXPECT_EQ(record.job.id, static_cast<std::int64_t>(i));
    EXPECT_GE(record.start_seconds, record.job.arrival_seconds);
    EXPECT_GT(record.finish_seconds, record.start_seconds);
    EXPECT_GE(record.slowdown, 1.0);
    EXPECT_LE(record.slowdown, 2.0 + 1e-12);
    ASSERT_TRUE(record.partition.cuboid.has_value());
    EXPECT_EQ(record.partition.cuboid->midplanes(), record.job.midplanes);
    EXPECT_EQ(record.partition.units, record.job.midplanes);
    EXPECT_LE(record.finish_seconds, result.makespan_seconds + 1e-9);
  }

  // Capacity: at every placement epoch, all placements active at that
  // instant must occupy pairwise-disjoint cells of one machine grid.
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const double instant = result.jobs[i].start_seconds;
    MidplaneGrid grid(machine);
    for (const ScheduledJob& record : result.jobs) {
      const bool active = record.start_seconds <= instant + 1e-9 &&
                          record.finish_seconds > instant + 1e-9;
      if (!active) continue;
      ASSERT_TRUE(grid.fits(*record.partition.cuboid))
          << "job " << record.job.id << " overlaps another at t = "
          << instant;
      grid.occupy(*record.partition.cuboid, record.job.id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndPolicies, SchedulerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),  // Mira, JUQUEEN, Sequoia
                       ::testing::Values(SchedulerPolicy::kFirstFit,
                                         SchedulerPolicy::kBestBisection,
                                         SchedulerPolicy::kWaitForBest)));

TEST(SchedulerDominanceTest, WaitForBestAlwaysAchievesSlowdownOne) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto jobs = mixed_stream(bgq::mira(), 30, seed);
    const auto result = simulate_schedule(
        *make_allocator(bgq::mira()), SchedulerPolicy::kWaitForBest, jobs);
    EXPECT_NEAR(result.mean_slowdown, 1.0, 1e-12) << "seed " << seed;
  }
}

TEST(SchedulerDominanceTest, QualityPoliciesNeverLoseOnSlowdown) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const auto jobs = mixed_stream(bgq::juqueen(), 30, seed);
    const auto first_fit =
        simulate_schedule(*make_allocator(bgq::juqueen()),
                          SchedulerPolicy::kFirstFit, jobs);
    const auto quality = simulate_schedule(
        *make_allocator(bgq::juqueen()), SchedulerPolicy::kBestBisection, jobs);
    EXPECT_LE(quality.mean_slowdown, first_fit.mean_slowdown + 1e-12)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace npac::core
