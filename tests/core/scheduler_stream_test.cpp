// StreamingScheduler tests: bitwise equivalence with an in-test replica of
// the pre-refactor materialized replay loop (across policies and allocator
// families), EASY-backfill semantics, streaming preconditions, bounded
// resident-set accounting, and rescan-elimination effectiveness.
#include "core/scheduler_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/scheduler.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"

namespace npac::core {
namespace {

Job make_job(std::int64_t id, std::int64_t midplanes, double seconds,
             bool contention_bound = true, double arrival = 0.0) {
  return {id, midplanes, seconds, contention_bound, arrival};
}

// -------------------------------------------------------------------------
// Reference implementation: the pre-refactor materialized replay loop,
// reproduced verbatim (modulo observability) so the streaming core is
// pinned against the original control flow, not against itself.
// -------------------------------------------------------------------------

double reference_slowdown(double best, double assigned) {
  if (assigned == 0.0) {
    if (best == 0.0) return 1.0;
    throw std::invalid_argument("zero bisection");
  }
  return best / assigned;
}

std::optional<Partition> reference_choose(PartitionAllocator& allocator,
                                          SchedulerPolicy policy,
                                          const Job& job,
                                          const std::vector<double>& qualities) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit: {
      for (std::size_t k = qualities.size(); k-- > 0;) {
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    case SchedulerPolicy::kBestBisection: {
      for (std::size_t k = 0; k < qualities.size(); ++k) {
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    case SchedulerPolicy::kWaitForBest: {
      if (!job.contention_bound) {
        for (std::size_t k = 0; k < qualities.size(); ++k) {
          if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
            return partition;
          }
        }
        return std::nullopt;
      }
      const double best = qualities.front();
      for (std::size_t k = 0; k < qualities.size(); ++k) {
        if (qualities[k] != best) break;
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    default:
      throw std::invalid_argument("reference loop: unsupported policy");
  }
}

ScheduleResult reference_schedule(PartitionAllocator& allocator,
                                  SchedulerPolicy policy,
                                  std::vector<Job> jobs) {
  struct RunningJob {
    std::int64_t job_id = 0;
    double finish_seconds = 0.0;
  };
  std::vector<RunningJob> running;
  std::vector<ScheduledJob> done;
  std::size_t next_arrival = 0;
  std::vector<Job> queue;
  double now = 0.0;

  const auto complete_finished = [&](double up_to) {
    while (true) {
      auto earliest = running.end();
      for (auto it = running.begin(); it != running.end(); ++it) {
        if (it->finish_seconds <= up_to &&
            (earliest == running.end() ||
             it->finish_seconds < earliest->finish_seconds)) {
          earliest = it;
        }
      }
      if (earliest == running.end()) break;
      allocator.release(earliest->job_id);
      running.erase(earliest);
    }
  };

  while (done.size() < jobs.size()) {
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].arrival_seconds <= now) {
      queue.push_back(jobs[next_arrival]);
      ++next_arrival;
    }
    bool placed_any = false;
    while (!queue.empty()) {
      const Job job = queue.front();
      const auto qualities = allocator.candidate_qualities(job.midplanes);
      if (qualities.empty()) {
        throw std::invalid_argument("infeasible size");
      }
      auto partition = reference_choose(allocator, policy, job, qualities);
      if (!partition) break;
      ScheduledJob record;
      record.job = job;
      record.start_seconds = now;
      record.slowdown = job.contention_bound
                            ? reference_slowdown(partition->best_quality,
                                                 partition->quality)
                            : 1.0;
      record.finish_seconds = now + job.base_seconds * record.slowdown;
      record.partition = std::move(*partition);
      running.push_back({job.id, record.finish_seconds});
      done.push_back(std::move(record));
      queue.erase(queue.begin());
      placed_any = true;
    }
    if (done.size() == jobs.size()) break;
    double next_event = std::numeric_limits<double>::infinity();
    for (const RunningJob& r : running) {
      next_event = std::min(next_event, r.finish_seconds);
    }
    if (next_arrival < jobs.size()) {
      next_event = std::min(next_event, jobs[next_arrival].arrival_seconds);
    }
    if (!std::isfinite(next_event)) {
      if (placed_any) continue;
      throw std::logic_error("deadlock");
    }
    now = std::max(now, next_event);
    complete_finished(now);
  }

  ScheduleResult result;
  result.jobs = std::move(done);
  double slowdown_sum = 0.0;
  std::int64_t slowdown_count = 0;
  double wait_sum = 0.0;
  for (const ScheduledJob& record : result.jobs) {
    result.makespan_seconds =
        std::max(result.makespan_seconds, record.finish_seconds);
    wait_sum += record.start_seconds - record.job.arrival_seconds;
    if (record.job.contention_bound) {
      slowdown_sum += record.slowdown;
      ++slowdown_count;
    }
  }
  result.mean_slowdown =
      slowdown_count > 0 ? slowdown_sum / static_cast<double>(slowdown_count)
                         : 1.0;
  result.mean_wait_seconds =
      result.jobs.empty() ? 0.0
                          : wait_sum / static_cast<double>(result.jobs.size());
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.job.id < b.job.id;
            });
  return result;
}

void expect_identical(const ScheduleResult& stream,
                      const ScheduleResult& reference) {
  ASSERT_EQ(stream.jobs.size(), reference.jobs.size());
  // Bitwise field equality: the streaming core must replicate the exact
  // floating-point event ordering, not just "close" schedules.
  EXPECT_EQ(stream.makespan_seconds, reference.makespan_seconds);
  EXPECT_EQ(stream.mean_slowdown, reference.mean_slowdown);
  EXPECT_EQ(stream.mean_wait_seconds, reference.mean_wait_seconds);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    const ScheduledJob& a = stream.jobs[i];
    const ScheduledJob& b = reference.jobs[i];
    EXPECT_EQ(a.job.id, b.job.id);
    EXPECT_EQ(a.job.midplanes, b.job.midplanes);
    EXPECT_EQ(a.start_seconds, b.start_seconds) << "job " << a.job.id;
    EXPECT_EQ(a.finish_seconds, b.finish_seconds) << "job " << a.job.id;
    EXPECT_EQ(a.slowdown, b.slowdown) << "job " << a.job.id;
    EXPECT_EQ(a.partition.label, b.partition.label) << "job " << a.job.id;
    EXPECT_EQ(a.partition.units, b.partition.units) << "job " << a.job.id;
    EXPECT_EQ(a.partition.quality, b.partition.quality) << "job " << a.job.id;
  }
}

topo::DragonflyConfig small_dragonfly() {
  topo::DragonflyConfig config;  // 8 groups x 4 chassis of K_4 = 32 units
  config.a = 4;
  config.h = 4;
  config.groups = 8;
  config.global_ports = 1;
  return config;
}

std::vector<Job> congested_trace(const std::vector<std::int64_t>& pool,
                                 int num_jobs, std::uint64_t seed) {
  sweep::TraceConfig config;
  config.num_jobs = num_jobs;
  config.mean_interarrival_seconds = 1.0;  // arrivals outpace completions
  config.min_base_seconds = 10.0;
  config.max_base_seconds = 30.0;
  return sweep::generate_trace(pool, config, seed);
}

TEST(StreamingSchedulerTest, MatchesReferenceLoopOnTorus) {
  const bgq::Machine machine = bgq::mira();
  sweep::TraceConfig config;
  config.num_jobs = 48;
  for (const auto policy :
       {SchedulerPolicy::kFirstFit, SchedulerPolicy::kBestBisection,
        SchedulerPolicy::kWaitForBest}) {
    for (const std::uint64_t seed : {7ULL, 2020ULL, 31337ULL}) {
      const auto jobs = sweep::generate_trace(machine, config, seed);
      CuboidAllocator reference_allocator(machine);
      const auto reference =
          reference_schedule(reference_allocator, policy, jobs);
      CuboidAllocator stream_allocator(machine);
      const auto stream = simulate_schedule(stream_allocator, policy, jobs);
      expect_identical(stream, reference);
    }
  }
}

TEST(StreamingSchedulerTest, MatchesReferenceLoopOnDragonflyAndFatTree) {
  const auto specs = {topo::TopologySpec::dragonfly(small_dragonfly()),
                      topo::TopologySpec::fat_tree(8)};
  for (const auto policy :
       {SchedulerPolicy::kFirstFit, SchedulerPolicy::kBestBisection,
        SchedulerPolicy::kWaitForBest}) {
    for (const auto& spec : specs) {
      const auto probe = make_allocator(spec);
      const auto pool = feasible_unit_sizes(*probe);
      ASSERT_FALSE(pool.empty());
      const auto jobs = congested_trace(pool, 40, 99);
      const auto reference_allocator = make_allocator(spec);
      const auto reference =
          reference_schedule(*reference_allocator, policy, jobs);
      const auto stream_allocator = make_allocator(spec);
      const auto stream = simulate_schedule(*stream_allocator, policy, jobs);
      expect_identical(stream, reference);
    }
  }
}

TEST(StreamingSchedulerTest, SinkSeesPlacementOrderAndStatsMatchResult) {
  const bgq::Machine machine = bgq::mira();
  sweep::TraceConfig config;
  config.num_jobs = 32;
  const auto jobs = sweep::generate_trace(machine, config, 5);

  CuboidAllocator allocator(machine);
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source(jobs);
  std::vector<ScheduledJob> emitted;
  double last_start = -std::numeric_limits<double>::infinity();
  const auto stats = scheduler.run(source, [&](const ScheduledJob& record) {
    emitted.push_back(record);
    EXPECT_GE(record.start_seconds, last_start);  // placement order = time order
    last_start = record.start_seconds;
  });
  EXPECT_EQ(stats.jobs, emitted.size());
  ASSERT_EQ(emitted.size(), jobs.size());

  CuboidAllocator wrapper_allocator(machine);
  const auto wrapped =
      simulate_schedule(wrapper_allocator, SchedulerPolicy::kBestBisection,
                        jobs);
  EXPECT_EQ(stats.makespan_seconds, wrapped.makespan_seconds);
  EXPECT_EQ(stats.mean_slowdown, wrapped.mean_slowdown);
  EXPECT_EQ(stats.mean_wait_seconds, wrapped.mean_wait_seconds);
}

TEST(StreamingSchedulerTest, EasyBackfillFillsHoleWithoutDelayingHead) {
  // Job 0 takes 64 of Mira's 96 units; job 1 needs the whole machine and
  // blocks; job 2 is tiny and finishes exactly at the head's shadow time,
  // so it backfills at t=0. The head's start must stay at 10.0 — the
  // backfill was provably harmless.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 96, 10.0),
                                 make_job(2, 1, 10.0)};
  CuboidAllocator fcfs_allocator(bgq::mira());
  const auto fcfs = simulate_schedule(
      fcfs_allocator, SchedulerPolicy::kBestBisection, jobs);
  EXPECT_EQ(fcfs.jobs[1].start_seconds, 10.0);
  EXPECT_GE(fcfs.jobs[2].start_seconds, 10.0);  // stuck behind the head

  CuboidAllocator backfill_allocator(bgq::mira());
  const auto backfilled = simulate_schedule(
      backfill_allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(backfilled.jobs[2].start_seconds, 0.0);   // jumped the queue
  EXPECT_EQ(backfilled.jobs[1].start_seconds, 10.0);  // head not delayed
  EXPECT_EQ(backfilled.jobs[0].start_seconds, 0.0);
}

TEST(StreamingSchedulerTest, EasyBackfillRejectsHarmfulCandidate) {
  // Same shape, but the small job runs longer than the head's shadow and
  // exceeds the spare units (96 - 64 - ... none spare for a 96-unit head):
  // it must NOT backfill, and the tentative placement must be rolled back
  // so the schedule equals plain FCFS.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 96, 10.0),
                                 make_job(2, 1, 50.0)};
  CuboidAllocator allocator(bgq::mira());
  const auto result =
      simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(result.jobs[1].start_seconds, 10.0);
  EXPECT_GE(result.jobs[2].start_seconds, 10.0);  // behind the head again
}

TEST(StreamingSchedulerTest, EasyBackfillUsesSpareUnits) {
  // Head needs 64 units at its shadow time but 96 - 64 = 32 stay spare:
  // a long-running 16-unit job may backfill on spare units even though it
  // finishes far beyond the shadow.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 64, 10.0),
                                 make_job(2, 16, 100.0)};
  CuboidAllocator allocator(bgq::mira());
  const auto result =
      simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(result.jobs[2].start_seconds, 0.0);
  EXPECT_EQ(result.jobs[1].start_seconds, 10.0);  // head start preserved
}

TEST(StreamingSchedulerTest, BackfillingIsDeterministic) {
  const auto pool = std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 48, 64};
  const auto jobs = congested_trace(pool, 64, 17);
  std::optional<ScheduleResult> first;
  for (int round = 0; round < 3; ++round) {
    CuboidAllocator allocator(bgq::mira());
    auto result =
        simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
    if (!first) {
      first = std::move(result);
      continue;
    }
    expect_identical(result, *first);
  }
}

TEST(StreamingSchedulerTest, ThrowsOnNonEmptyAllocator) {
  CuboidAllocator allocator(bgq::mira());
  ASSERT_TRUE(allocator.try_place(4, 0, /*job_id=*/123).has_value());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(0, 1, 1.0)});
  EXPECT_THROW(scheduler.run(source, nullptr), std::invalid_argument);
}

TEST(StreamingSchedulerTest, ThrowsOnDecreasingArrivalNamingJob) {
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(0, 1, 1.0, true, 10.0),
                          make_job(1, 1, 1.0, true, 12.0),
                          make_job(9, 1, 1.0, true, 3.0)});
  try {
    scheduler.run(source, nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 9"), std::string::npos) << message;
    EXPECT_NE(message.find("non-decreasing"), std::string::npos) << message;
  }
}

TEST(StreamingSchedulerTest, NonFiniteTimesThrowNamingJob) {
  // A NaN arrival used to slip past the ordering check (NaN compares false)
  // and leave the event loop reading the front of an empty queue.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Job>> traces = {
      {make_job(7, 1, 1.0, true, nan)},
      {make_job(0, 1, 1.0), make_job(7, 1, 1.0, true, nan)},
      {make_job(0, 1, 1.0), make_job(7, 1, 1.0, true, inf)},
      {make_job(0, 1, 1.0), make_job(7, 1, nan)},
      {make_job(0, 1, 1.0), make_job(7, 1, inf)},
      {make_job(0, 1, 1.0), make_job(7, 1, -1.0)},
  };
  for (const auto& jobs : traces) {
    CuboidAllocator allocator(bgq::mira());
    StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
    VectorJobSource source(jobs);
    try {
      scheduler.run(source, nullptr);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("job 7"), std::string::npos) << message;
    }
    // The vector wrapper reaches the same check.
    CuboidAllocator wrapped(bgq::mira());
    EXPECT_THROW(
        simulate_schedule(wrapped, SchedulerPolicy::kFirstFit, jobs),
        std::invalid_argument);
  }
}

TEST(StreamingSchedulerTest, InfeasibleSizeThrowNamesJob) {
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(42, 97, 1.0)});
  try {
    scheduler.run(source, nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 42"), std::string::npos) << message;
    EXPECT_NE(message.find("size 97"), std::string::npos) << message;
  }
}

TEST(StreamingSchedulerTest, ResidentJobsBoundedByInFlightNotTraceLength) {
  // Widely spaced arrivals: each job finishes long before the next lands,
  // so no matter how long the stream is, at most a couple of jobs are
  // resident (1 running/queued + 1 lookahead).
  sweep::TraceConfig config;
  config.num_jobs = 500;
  config.mean_interarrival_seconds = 1000.0;
  config.min_base_seconds = 1.0;
  config.max_base_seconds = 2.0;
  sweep::SyntheticJobSource source({1, 2, 4}, config, 11);
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  const auto stats = scheduler.run(source, nullptr);
  EXPECT_EQ(stats.jobs, 500u);
  EXPECT_LE(stats.peak_resident_jobs, 4u);
}

TEST(StreamingSchedulerTest, RescanEliminationFiresUnderCongestion) {
  // A congested queue wakes the blocked head on every arrival; the
  // free-layout index must elide those provably-failing scans.
  const auto jobs =
      congested_trace({1, 2, 4, 8, 16, 32, 48, 64, 96}, 96, 23);
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source(jobs);
  const auto stats = scheduler.run(source, nullptr);
  EXPECT_EQ(stats.jobs, jobs.size());
  EXPECT_GT(stats.rescans_skipped, 0u);
}

TEST(SyntheticJobSourceTest, ReplicatesGenerateTraceExactly) {
  const std::vector<std::int64_t> pool = {1, 2, 4, 8, 16};
  sweep::TraceConfig config;
  config.num_jobs = 200;
  for (const std::uint64_t seed : {0ULL, 42ULL, 0xdeadbeefULL}) {
    const auto materialized = sweep::generate_trace(pool, config, seed);
    sweep::SyntheticJobSource source(pool, config, seed);
    std::vector<Job> streamed;
    while (auto job = source.next()) streamed.push_back(*job);
    ASSERT_EQ(streamed.size(), materialized.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].id, materialized[i].id);
      EXPECT_EQ(streamed[i].midplanes, materialized[i].midplanes);
      EXPECT_EQ(streamed[i].base_seconds, materialized[i].base_seconds);
      EXPECT_EQ(streamed[i].contention_bound, materialized[i].contention_bound);
      EXPECT_EQ(streamed[i].arrival_seconds, materialized[i].arrival_seconds);
    }
  }
}

TEST(SyntheticJobSourceTest, ValidatesConfigEagerly) {
  sweep::TraceConfig bad;
  bad.min_base_seconds = -1.0;
  EXPECT_THROW(sweep::SyntheticJobSource({1, 2}, bad, 1),
               std::invalid_argument);
  EXPECT_THROW(sweep::SyntheticJobSource({}, sweep::TraceConfig{}, 1),
               std::invalid_argument);
}

TEST(PositionScoringTest, Names) {
  EXPECT_EQ(to_string(PositionScoring::kScanOrder), "scan-order");
  EXPECT_EQ(to_string(PositionScoring::kBestFit), "best-fit");
}

TEST(PositionScoringTest, BestFitPlacesAdjacentToOccupiedCells) {
  // Seed one occupied cell mid-grid: scan-order takes the first free
  // origin (0,0,0,0); best-fit maximizes boundary contact, which the
  // length-2 fourth dimension doubles for (2,2,1,0) — both of its dim-3
  // neighbors wrap onto the occupied cell.
  MidplaneGrid grid(bgq::mira());
  Placement seed;
  seed.origin = {2, 2, 1, 1};
  seed.extent = {1, 1, 1, 1};
  grid.occupy(seed, 1);
  const bgq::Geometry unit(1, 1, 1, 1);
  const auto scan = grid.find_placement(unit, PositionScoring::kScanOrder);
  const auto best = grid.find_placement(unit, PositionScoring::kBestFit);
  ASSERT_TRUE(scan.has_value());
  ASSERT_TRUE(best.has_value());
  const std::array<std::int64_t, 4> scan_origin = {0, 0, 0, 0};
  const std::array<std::int64_t, 4> best_origin = {2, 2, 1, 0};
  EXPECT_EQ(scan->origin, scan_origin);
  EXPECT_EQ(best->origin, best_origin);
}

TEST(PositionScoringTest, CuboidAllocatorDispatchesOnScoringMode) {
  // Through the allocator interface: under kBestFit the second unit job
  // lands face-adjacent to the first instead of at the next scan origin.
  CuboidAllocator allocator(bgq::mira());
  allocator.set_position_scoring(PositionScoring::kBestFit);
  EXPECT_EQ(allocator.position_scoring(), PositionScoring::kBestFit);
  const auto first = allocator.try_place(1, 0, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->label.find("@(0,0,0,0)"), std::string::npos)
      << first->label;
  const auto second = allocator.try_place(1, 0, 2);
  ASSERT_TRUE(second.has_value());
  // (0,0,0,1) touches (0,0,0,0) from both directions of the length-2 dim.
  EXPECT_NE(second->label.find("@(0,0,0,1)"), std::string::npos)
      << second->label;
}

TEST(PositionScoringTest, DefaultScanOrderMatchesFindPlacement) {
  // kScanOrder (the default) must leave the digest-pinned path untouched.
  CuboidAllocator scan(bgq::mira());
  CuboidAllocator plain(bgq::mira());
  scan.set_position_scoring(PositionScoring::kScanOrder);
  for (std::int64_t job = 0; job < 6; ++job) {
    const auto a = scan.try_place(4, 0, job);
    const auto b = plain.try_place(4, 0, job);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->label, b->label);
  }
}

TEST(PositionScoringTest, BestFitPrefersTightestContainersOffTorus) {
  // Dragonfly: partially fill group 0 so it has less slack than the empty
  // groups; a subsequent single-chassis job must land in group 0 under
  // best-fit (tightest container) but also in group 0 under scan-order
  // (first qualifying) — so distinguish with group 1 partially filled and
  // group 0 empty: scan-order takes group 0, best-fit takes group 1.
  DragonflyAllocator scan(small_dragonfly());
  DragonflyAllocator best(small_dragonfly());
  best.set_position_scoring(PositionScoring::kBestFit);
  // Occupy 3 of 4 chassis in group 1 (size 3 as a single-group slice).
  const auto& layouts = scan.layouts_for(3);
  std::size_t single_group = layouts.size();
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    if (layouts[i].groups == 1) single_group = i;
  }
  ASSERT_LT(single_group, layouts.size());
  // Seed both allocators identically: place into group 0 first, release,
  // then occupy group 1 by placing twice and releasing the first.
  for (DragonflyAllocator* allocator : {&scan, &best}) {
    ASSERT_TRUE(allocator->try_place(4, 0, 90).has_value());   // group 0 full
    ASSERT_TRUE(
        allocator->try_place(3, single_group, 91).has_value());  // group 1: 3/4
    ASSERT_EQ(allocator->release(90), 4);  // group 0 empty again
  }
  // A 1-chassis job: scan-order scans containers in id order and takes
  // group 0 (first with >= 1 free); best-fit takes group 1 (1 free < 4).
  const auto scan_placed = scan.try_place(1, 0, 92);
  const auto best_placed = best.try_place(1, 0, 92);
  ASSERT_TRUE(scan_placed.has_value());
  ASSERT_TRUE(best_placed.has_value());
  EXPECT_NE(scan_placed->label.find("{0}"), std::string::npos)
      << scan_placed->label;
  EXPECT_NE(best_placed->label.find("{1}"), std::string::npos)
      << best_placed->label;
}

TEST(PositionScoringTest, BestFitKeepsFatTreePodsTight) {
  FatTreeAllocator scan(topo::FatTreeConfig{8, 1.0});
  FatTreeAllocator best(topo::FatTreeConfig{8, 1.0});
  best.set_position_scoring(PositionScoring::kBestFit);
  // 8 pods x 4 subtrees. Fill 3 of 4 subtrees of pod 1 on both.
  for (FatTreeAllocator* allocator : {&scan, &best}) {
    ASSERT_TRUE(allocator->try_place(4, 0, 80).has_value());  // pod 0 full
    const auto pods = allocator->pods_for(3);
    std::size_t one_pod = pods.size();
    for (std::size_t i = 0; i < pods.size(); ++i) {
      if (pods[i] == 1) one_pod = i;
    }
    ASSERT_LT(one_pod, pods.size());
    ASSERT_TRUE(allocator->try_place(3, one_pod, 81).has_value());  // pod 1
    ASSERT_EQ(allocator->release(80), 4);
  }
  const auto scan_placed = scan.try_place(1, 0, 82);
  const auto best_placed = best.try_place(1, 0, 82);
  ASSERT_TRUE(scan_placed.has_value());
  ASSERT_TRUE(best_placed.has_value());
  EXPECT_NE(scan_placed->label.find("{0}"), std::string::npos)
      << scan_placed->label;
  EXPECT_NE(best_placed->label.find("{1}"), std::string::npos)
      << best_placed->label;
}

}  // namespace
}  // namespace npac::core
