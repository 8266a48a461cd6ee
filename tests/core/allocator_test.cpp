// PartitionAllocator tests: the zero-drift pin suite proving the
// CuboidAllocator reproduces the pre-refactor MidplaneGrid schedules
// bit-exactly on every paper machine, plus occupancy/fragmentation stress
// for the dragonfly and fat-tree families.
//
// The golden hashes below were captured by running the pre-refactor
// scheduler (commit 404344b, `core::simulate_schedule` directly over
// MidplaneGrid + bgq::enumerate_geometries) on deterministic traces. The
// digest covers every per-job decision — placement label, start, finish,
// slowdown — so any drift in enumeration order, placement scan, or the
// slowdown arithmetic shows up as a hash mismatch.
#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/scheduler.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"
#include "sweep/trace.hpp"

namespace npac::core {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string schedule_digest(const ScheduleResult& result) {
  std::ostringstream digest;
  for (const auto& record : result.jobs) {
    digest << record.job.id << "," << record.job.midplanes << ","
           << record.partition.label << ","
           << sweep::format_exact(record.start_seconds) << ","
           << sweep::format_exact(record.finish_seconds) << ","
           << sweep::format_exact(record.slowdown) << "\n";
  }
  digest << sweep::format_exact(result.makespan_seconds) << ","
         << sweep::format_exact(result.mean_slowdown) << ","
         << sweep::format_exact(result.mean_wait_seconds) << "\n";
  return digest.str();
}

// -------------------------------------------------------------------------
// The pin suite: pre-refactor schedule hashes for every paper machine
// (Mira, JUQUEEN, Sequoia and the Table 5 hypothetical machines) under all
// three policies, on a 24-job trace with seed 2020.
// -------------------------------------------------------------------------

struct GoldenSchedule {
  const char* machine;
  SchedulerPolicy policy;
  std::uint64_t digest_hash;
};

constexpr GoldenSchedule kGoldenSchedules[] = {
    {"Mira", SchedulerPolicy::kFirstFit, 0x145c82ff527f4618ULL},
    {"Mira", SchedulerPolicy::kBestBisection, 0x85eed6518f437e21ULL},
    {"Mira", SchedulerPolicy::kWaitForBest, 0xfe591baed161b21aULL},
    {"JUQUEEN", SchedulerPolicy::kFirstFit, 0x37b3355d9ee8417cULL},
    {"JUQUEEN", SchedulerPolicy::kBestBisection, 0x8b078660aa48f485ULL},
    {"JUQUEEN", SchedulerPolicy::kWaitForBest, 0x8b078660aa48f485ULL},
    {"Sequoia", SchedulerPolicy::kFirstFit, 0x4e2b3515417cdf30ULL},
    {"Sequoia", SchedulerPolicy::kBestBisection, 0xd9de627d5f641a76ULL},
    {"Sequoia", SchedulerPolicy::kWaitForBest, 0x8c486c5ab164f67dULL},
    {"JUQUEEN-48", SchedulerPolicy::kFirstFit, 0xd24a1f1385c7b623ULL},
    {"JUQUEEN-48", SchedulerPolicy::kBestBisection, 0xf20b7b5c005a6e3dULL},
    {"JUQUEEN-48", SchedulerPolicy::kWaitForBest, 0x9fa0506617348638ULL},
    {"JUQUEEN-54", SchedulerPolicy::kFirstFit, 0xffffb77c74389820ULL},
    {"JUQUEEN-54", SchedulerPolicy::kBestBisection, 0xffffb77c74389820ULL},
    {"JUQUEEN-54", SchedulerPolicy::kWaitForBest, 0xffffb77c74389820ULL},
};

bgq::Machine machine_by_name(const std::string& name) {
  for (const bgq::Machine& machine : bgq::all_machines()) {
    if (machine.name == name) return machine;
  }
  throw std::invalid_argument("unknown machine " + name);
}

TEST(CuboidAllocatorPinTest, ReproducesPreRefactorSchedulesBitExactly) {
  for (const GoldenSchedule& golden : kGoldenSchedules) {
    const bgq::Machine machine = machine_by_name(golden.machine);
    sweep::TraceConfig config;
    config.num_jobs = 24;
    const auto jobs = sweep::generate_trace(machine, config, 2020);
    const auto result =
        simulate_schedule(*make_allocator(machine), golden.policy, jobs);
    EXPECT_EQ(fnv1a(schedule_digest(result)), golden.digest_hash)
        << golden.machine << " / " << to_string(golden.policy);
  }
}

TEST(CuboidAllocatorPinTest, MemoizedOracleChangesNothing) {
  // The same schedules through a SweepContext oracle: memoization may
  // only change the cost, never a byte of the digest.
  sweep::SweepContext context;
  for (const GoldenSchedule& golden : kGoldenSchedules) {
    const bgq::Machine machine = machine_by_name(golden.machine);
    sweep::TraceConfig config;
    config.num_jobs = 24;
    const auto jobs = sweep::generate_trace(machine, config, 2020);
    const auto result = simulate_schedule(*make_allocator(machine, context),
                                          golden.policy, jobs);
    EXPECT_EQ(fnv1a(schedule_digest(result)), golden.digest_hash)
        << golden.machine << " / " << to_string(golden.policy);
  }
  EXPECT_GT(context.geometry_stats().hits, 0u);
}

TEST(CuboidAllocatorPinTest, SchedulerSweepCsvMatchesPreRefactorHash) {
  // The full scheduler-sweep pipeline (traces, memoized oracle, CSV
  // rendering) on the one-machine Mira grid, pinned against the
  // pre-refactor artifact. That artifact had no machine column, so the
  // hash covers the CSV with its leading "machine," field cut from every
  // line.
  sweep::TopologySchedulerGrid grid;
  grid.machines = {{"Mira", topo::TopologySpec::torus({4, 4, 3, 2}),
                    sweep::default_trace_sizes(bgq::mira())}};
  grid.policies = {SchedulerPolicy::kFirstFit, SchedulerPolicy::kBestBisection,
                   SchedulerPolicy::kWaitForBest};
  grid.contention_fractions = {1.0 / 3.0, 1.0};
  grid.trace.num_jobs = 16;
  grid.replications = 2;
  sweep::SweepContext context;
  const auto rows = sweep::run_topology_scheduler_sweep(
      grid, {.threads = 1, .base_seed = 42}, context);
  std::istringstream lines(sweep::topology_scheduler_csv(rows));
  std::string csv;
  for (std::string line; std::getline(lines, line);) {
    csv += line.substr(line.find(',') + 1) + "\n";
  }
  EXPECT_EQ(fnv1a(csv), 0x7366ae221ac02b9fULL);
}

// -------------------------------------------------------------------------
// CuboidAllocator interface semantics.
// -------------------------------------------------------------------------

TEST(CuboidAllocatorTest, QualitiesMatchEnumerationAndDescriptorNamesMachine) {
  CuboidAllocator allocator(bgq::mira());
  EXPECT_EQ(allocator.total_units(), 96);
  EXPECT_EQ(allocator.free_units(), 96);
  EXPECT_EQ(allocator.descriptor(), "Mira (torus:4x4x3x2)");

  const auto qualities = allocator.candidate_qualities(4);
  const auto geometries = bgq::enumerate_geometries(bgq::mira(), 4);
  ASSERT_EQ(qualities.size(), geometries.size());
  for (std::size_t i = 0; i < qualities.size(); ++i) {
    EXPECT_EQ(qualities[i],
              static_cast<double>(bgq::normalized_bisection(geometries[i])));
  }
  EXPECT_TRUE(std::is_sorted(qualities.rbegin(), qualities.rend()));
  EXPECT_TRUE(allocator.candidate_qualities(97).empty());
  EXPECT_TRUE(allocator.candidate_qualities(17).empty());  // no 17-cuboid
}

TEST(CuboidAllocatorTest, PlaceAndReleaseTrackUnits) {
  CuboidAllocator allocator(bgq::mira());
  const auto partition = allocator.try_place(8, 0, /*job_id=*/3);
  ASSERT_TRUE(partition.has_value());
  EXPECT_EQ(partition->units, 8);
  ASSERT_TRUE(partition->cuboid.has_value());
  EXPECT_EQ(partition->cuboid->midplanes(), 8);
  EXPECT_EQ(partition->quality, partition->best_quality);  // class 0 = best
  EXPECT_EQ(allocator.free_units(), 88);
  EXPECT_EQ(allocator.release(3), 8);
  EXPECT_EQ(allocator.free_units(), 96);
}

// -------------------------------------------------------------------------
// The mask scan against the per-cell scan it replaced. ReferenceGrid is the
// pre-bitmask MidplaneGrid::find_placement over a plain occupancy vector: a
// modulo `fits` walk per origin and a per-(cell, direction)
// boundary_contact count. It is kept as an oracle, not a replica.
// -------------------------------------------------------------------------

struct ReferenceGrid {
  std::array<std::int64_t, 4> dims;
  std::vector<bool> occupied;  // row-major over dims

  std::size_t index(const std::array<std::int64_t, 4>& cell) const {
    std::size_t at = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      at = at * static_cast<std::size_t>(dims[i]) +
           static_cast<std::size_t>(cell[i]);
    }
    return at;
  }

  bool fits(const Placement& placement) const {
    std::array<std::int64_t, 4> offset{};
    for (offset[0] = 0; offset[0] < placement.extent[0]; ++offset[0]) {
      for (offset[1] = 0; offset[1] < placement.extent[1]; ++offset[1]) {
        for (offset[2] = 0; offset[2] < placement.extent[2]; ++offset[2]) {
          for (offset[3] = 0; offset[3] < placement.extent[3]; ++offset[3]) {
            std::array<std::int64_t, 4> cell{};
            for (std::size_t i = 0; i < 4; ++i) {
              cell[i] = (placement.origin[i] + offset[i]) % dims[i];
            }
            if (occupied[index(cell)]) return false;
          }
        }
      }
    }
    return true;
  }

  std::int64_t boundary_contact(const Placement& placement) const {
    std::int64_t contact = 0;
    std::array<std::int64_t, 4> offset{};
    for (offset[0] = 0; offset[0] < placement.extent[0]; ++offset[0]) {
      for (offset[1] = 0; offset[1] < placement.extent[1]; ++offset[1]) {
        for (offset[2] = 0; offset[2] < placement.extent[2]; ++offset[2]) {
          for (offset[3] = 0; offset[3] < placement.extent[3]; ++offset[3]) {
            for (std::size_t dim = 0; dim < 4; ++dim) {
              if (placement.extent[dim] == dims[dim]) continue;
              for (const std::int64_t step : {std::int64_t{-1}, std::int64_t{1}}) {
                const std::int64_t neighbor = offset[dim] + step;
                if (neighbor >= 0 && neighbor < placement.extent[dim]) continue;
                std::array<std::int64_t, 4> cell{};
                for (std::size_t i = 0; i < 4; ++i) {
                  cell[i] = (placement.origin[i] + offset[i]) % dims[i];
                }
                cell[dim] = (placement.origin[dim] + neighbor % dims[dim] +
                             dims[dim]) %
                            dims[dim];
                if (occupied[index(cell)]) ++contact;
              }
            }
          }
        }
      }
    }
    return contact;
  }

  std::optional<Placement> find_placement(const bgq::Geometry& shape,
                                          PositionScoring scoring) const {
    std::optional<Placement> best;
    std::int64_t best_contact = -1;
    std::array<std::int64_t, 4> extent = shape.dims();
    std::sort(extent.begin(), extent.end());
    do {
      bool extent_fits = true;
      for (std::size_t i = 0; i < 4; ++i) {
        if (extent[i] > dims[i]) extent_fits = false;
      }
      if (!extent_fits) continue;
      Placement placement;
      placement.extent = extent;
      for (std::int64_t a = 0; a < dims[0]; ++a) {
        for (std::int64_t b = 0; b < dims[1]; ++b) {
          for (std::int64_t c = 0; c < dims[2]; ++c) {
            for (std::int64_t d = 0; d < dims[3]; ++d) {
              placement.origin = {a, b, c, d};
              if (!fits(placement)) continue;
              if (scoring == PositionScoring::kScanOrder) return placement;
              const std::int64_t contact = boundary_contact(placement);
              if (contact > best_contact) {
                best_contact = contact;
                best = placement;
              }
            }
          }
        }
      }
    } while (std::next_permutation(extent.begin(), extent.end()));
    return best;
  }
};

TEST(MidplaneGridMaskTest, FindPlacementMatchesPerCellScan) {
  // JUQUEEN, Mira and Sequoia fill one, two and three occupancy words;
  // 3x3x2x2 (like Mira's 2-wide axis) has axes one wider than an extent,
  // where both face neighbors are the same cell and count twice.
  const bgq::Machine machines[] = {
      bgq::juqueen(), bgq::mira(), bgq::sequoia(),
      {"torus:3x3x2x2", bgq::Geometry(3, 3, 2, 2)}};
  std::int64_t stream = 0;
  for (const bgq::Machine& machine : machines) {
    std::vector<bgq::Geometry> shapes;
    for (const std::int64_t size : bgq::feasible_sizes(machine)) {
      for (const bgq::Geometry& shape : bgq::enumerate_geometries(machine, size)) {
        shapes.push_back(shape);
      }
    }
    for (int trial = 0; trial < 6; ++trial, ++stream) {
      std::mt19937_64 rng(sweep::task_seed(2020, stream));
      // Densities from empty to nearly full across the trials.
      const double density = 0.15 * trial;
      MidplaneGrid grid(machine);
      ReferenceGrid reference{machine.shape.dims(),
                              std::vector<bool>(
                                  static_cast<std::size_t>(machine.midplanes()))};
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      std::int64_t job = 0;
      for (std::int64_t a = 0; a < reference.dims[0]; ++a) {
        for (std::int64_t b = 0; b < reference.dims[1]; ++b) {
          for (std::int64_t c = 0; c < reference.dims[2]; ++c) {
            for (std::int64_t d = 0; d < reference.dims[3]; ++d) {
              if (coin(rng) >= density) continue;
              Placement cell;
              cell.origin = {a, b, c, d};
              grid.occupy(cell, job++);
              reference.occupied[reference.index(cell.origin)] = true;
            }
          }
        }
      }
      for (const bgq::Geometry& shape : shapes) {
        for (const PositionScoring scoring :
             {PositionScoring::kScanOrder, PositionScoring::kBestFit}) {
          const auto got = grid.find_placement(shape, scoring);
          const auto want = reference.find_placement(shape, scoring);
          ASSERT_EQ(got.has_value(), want.has_value())
              << machine.name << " trial " << trial << " " << shape.to_string()
              << " " << to_string(scoring);
          if (!want) continue;
          EXPECT_EQ(got->origin, want->origin)
              << machine.name << " trial " << trial << " " << shape.to_string()
              << " " << to_string(scoring);
          EXPECT_EQ(got->extent, want->extent)
              << machine.name << " trial " << trial << " " << shape.to_string()
              << " " << to_string(scoring);
        }
      }
    }
  }
}

// -------------------------------------------------------------------------
// The unit ledger: word-boundary masks, idempotent release, rollback.
// -------------------------------------------------------------------------

TEST(OwnerArrayTest, UnknownOrReleasedJobFreesNothing) {
  OwnerArray owners(96);
  owners.take(5, 1);
  owners.take(6, 1);
  EXPECT_EQ(owners.release(2), 0);  // never held anything
  EXPECT_EQ(owners.free_units(), 94);
  EXPECT_EQ(owners.release(1), 2);
  EXPECT_EQ(owners.free_units(), 96);
  EXPECT_EQ(owners.release(1), 0);  // already released
  EXPECT_EQ(owners.free_units(), 96);
  EXPECT_TRUE(owners.is_free(5));
}

TEST(OwnerArrayTest, MasksStraddlingWordBoundariesReleaseExactly) {
  OwnerArray owners(192);  // Sequoia: three words
  ASSERT_EQ(owners.words(), 3u);
  for (const std::size_t unit : {63, 64, 127, 128}) owners.take(unit, 7);
  for (const std::size_t unit : {62, 65, 126, 129, 191}) owners.take(unit, 8);
  std::vector<OwnerArray::Word> mask(3, 0);
  mask[0] = OwnerArray::Word{1};        // unit 0
  mask[2] = OwnerArray::Word{1} << 62;  // unit 190
  owners.take(mask.data(), 9);
  EXPECT_EQ(owners.free_units(), 192 - 11);

  EXPECT_EQ(owners.release(7), 4);
  for (const std::size_t unit : {63, 64, 127, 128}) EXPECT_TRUE(owners.is_free(unit));
  for (const std::size_t unit : {62, 65, 126, 129, 191, 0, 190}) {
    EXPECT_FALSE(owners.is_free(unit)) << unit;
  }
  EXPECT_EQ(owners.free_units(), 192 - 7);
  EXPECT_EQ(owners.release(9), 2);
  EXPECT_EQ(owners.release(8), 5);
  EXPECT_EQ(owners.free_units(), 192);
  for (std::size_t w = 0; w < owners.words(); ++w) {
    EXPECT_EQ(owners.occupied()[w], 0u);
  }
}

TEST(CuboidAllocatorTest, TakeReleaseTakeReproducesThePlacement) {
  // The EASY backfill probe: a tentative place and its release restore the
  // ledger bit-exactly, so the same request lands on the same cuboid.
  for (const PositionScoring scoring :
       {PositionScoring::kScanOrder, PositionScoring::kBestFit}) {
    CuboidAllocator allocator(bgq::sequoia());
    allocator.set_position_scoring(scoring);
    std::int64_t job = 0;
    for (const std::int64_t size : {8, 3, 16, 1, 12, 2}) {
      ASSERT_TRUE(allocator.try_place(size, 0, job++).has_value());
    }
    ASSERT_TRUE(allocator.release(2) == 16);  // open a hole mid-machine
    for (const std::int64_t size : {4, 6, 9, 1}) {
      const std::int64_t before = allocator.free_units();
      const auto first = allocator.try_place(size, 0, 100);
      ASSERT_TRUE(first.has_value()) << size;
      EXPECT_EQ(allocator.release(100), size);
      EXPECT_EQ(allocator.free_units(), before);
      const auto again = allocator.try_place(size, 0, 100);
      ASSERT_TRUE(again.has_value()) << size;
      EXPECT_EQ(again->label, first->label) << to_string(scoring);
      EXPECT_EQ(allocator.release(100), size);
    }
  }
}

// -------------------------------------------------------------------------
// DragonflyAllocator: layout classes and fragmentation behavior.
// -------------------------------------------------------------------------

topo::DragonflyConfig small_dragonfly() {
  topo::DragonflyConfig config;  // 8 groups x 4 chassis of K_4 = 32 units
  config.a = 4;
  config.h = 4;
  config.groups = 8;
  config.global_ports = 1;
  return config;
}

TEST(DragonflyAllocatorTest, LayoutClassesAreQualityOrderedAndCompactWins) {
  DragonflyAllocator allocator(small_dragonfly());
  EXPECT_EQ(allocator.total_units(), 32);

  // Size 4 admits 1x4, 2x2 and 4x1 (groups x chassis). Qualities are
  // non-increasing with the compact single-group slice (Hamming K_4 x K_4
  // with 3x green links) first — the 2x2 layout legitimately ties it (the
  // fat 4x blue links carry the 2-group bisection), while the fully spread
  // 4x1 layout scores strictly worse.
  const auto& layouts = allocator.layouts_for(4);
  ASSERT_EQ(layouts.size(), 3u);
  EXPECT_EQ(layouts.front().groups, 1);
  EXPECT_EQ(layouts.front().chassis_per_group, 4);
  for (std::size_t i = 1; i < layouts.size(); ++i) {
    EXPECT_GE(layouts[i - 1].quality, layouts[i].quality);
  }
  EXPECT_EQ(layouts.back().groups, 4);
  EXPECT_LT(layouts.back().quality, layouts.front().quality);

  // Sizes beyond one group must spread; beyond the machine are infeasible.
  for (const auto& layout : allocator.layouts_for(8)) {
    EXPECT_GT(layout.groups, 1);
  }
  EXPECT_TRUE(allocator.candidate_qualities(33).empty());
  EXPECT_TRUE(allocator.candidate_qualities(0).empty());
}

TEST(DragonflyAllocatorTest, FragmentationForcesSpreadThenRecovers) {
  DragonflyAllocator allocator(small_dragonfly());
  // Occupy 3 of 4 chassis in every group: 8 free chassis remain, one per
  // group, so a compact 4-chassis slice (class 0 = 1 group x 4) cannot
  // fit but the fully spread 4 x 1 class can.
  for (std::int64_t g = 0; g < 8; ++g) {
    ASSERT_TRUE(allocator.try_place(3, 0, /*job_id=*/g).has_value());
  }
  EXPECT_EQ(allocator.free_units(), 8);

  const auto& layouts = allocator.layouts_for(4);
  std::size_t spread_class = layouts.size();
  for (std::size_t k = 0; k < layouts.size(); ++k) {
    if (layouts[k].groups == 4) spread_class = k;
    if (layouts[k].groups == 1) {
      EXPECT_FALSE(allocator.try_place(4, k, 100).has_value());
    }
  }
  ASSERT_LT(spread_class, layouts.size());
  const auto spread = allocator.try_place(4, spread_class, 100);
  ASSERT_TRUE(spread.has_value());
  EXPECT_LT(spread->quality, spread->best_quality);
  EXPECT_EQ(allocator.free_units(), 4);

  // Releasing one 3-chassis job reopens a compact placement in its group.
  EXPECT_EQ(allocator.release(2), 3);
  std::size_t compact_class = layouts.size();
  for (std::size_t k = 0; k < layouts.size(); ++k) {
    if (layouts[k].groups == 1) compact_class = k;
  }
  ASSERT_LT(compact_class, layouts.size());
  EXPECT_FALSE(allocator.try_place(4, compact_class, 101).has_value())
      << "group 2 has only 3 free chassis";
  const auto small = allocator.try_place(3, 0, 102);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->label.find("3ch x 1gr"), 0u) << small->label;

  // Full drain restores a clean machine.
  for (std::int64_t job = 0; job < 8; ++job) allocator.release(job);
  allocator.release(100);
  allocator.release(101);
  allocator.release(102);
  EXPECT_EQ(allocator.free_units(), 32);
  EXPECT_TRUE(allocator.try_place(4, compact_class, 200).has_value());
}

TEST(DragonflyAllocatorTest, InterleavedOccupyReleaseKeepsAccountingExact) {
  DragonflyAllocator allocator(small_dragonfly());
  std::int64_t expected_free = allocator.total_units();
  // Deterministic churn: place sizes cycling {2, 4, 8}, release every
  // third job immediately, and check the unit ledger at every step.
  std::vector<std::int64_t> live;
  const std::int64_t sizes[] = {2, 4, 8};
  for (std::int64_t job = 0; job < 12; ++job) {
    const std::int64_t size = sizes[job % 3];
    const auto qualities = allocator.candidate_qualities(size);
    bool placed = false;
    for (std::size_t k = 0; k < qualities.size() && !placed; ++k) {
      if (allocator.try_place(size, k, job).has_value()) {
        placed = true;
        expected_free -= size;
        live.push_back(job);
      }
    }
    if (!placed) {
      // Machine saturated: drain the oldest live job and retry class 0.
      ASSERT_FALSE(live.empty());
      const std::int64_t oldest = live.front();
      live.erase(live.begin());
      const std::int64_t freed = allocator.release(oldest);
      EXPECT_EQ(freed, sizes[oldest % 3]);
      expected_free += freed;
    } else if (job % 3 == 2) {
      expected_free += allocator.release(job);
      live.pop_back();
    }
    EXPECT_EQ(allocator.free_units(), expected_free) << "after job " << job;
  }
  for (const std::int64_t job : live) allocator.release(job);
  EXPECT_EQ(allocator.free_units(), allocator.total_units());
  EXPECT_EQ(allocator.release(999), 0);  // unknown job frees nothing
}

// -------------------------------------------------------------------------
// FatTreeAllocator: flat quality and pod-block fragmentation.
// -------------------------------------------------------------------------

TEST(FatTreeAllocatorTest, QualityIsFlatAcrossLayouts) {
  FatTreeAllocator allocator({8, 1.0});  // 8 pods x 4 edge subtrees
  EXPECT_EQ(allocator.total_units(), 32);
  EXPECT_EQ(allocator.descriptor(), "fattree:k8");

  for (const std::int64_t size : {1, 2, 4, 8, 16, 32}) {
    const auto qualities = allocator.candidate_qualities(size);
    ASSERT_FALSE(qualities.empty()) << size;
    // Non-blocking Clos: hosts / 2 * capacity for every layout.
    const double expected = static_cast<double>(size * 4) / 2.0;
    for (const double q : qualities) EXPECT_EQ(q, expected) << size;
  }
  EXPECT_TRUE(allocator.candidate_qualities(33).empty());

  // Layouts are pods ascending (compact first).
  const auto pods = allocator.pods_for(8);
  EXPECT_EQ(pods, (std::vector<std::int64_t>{2, 4, 8}));
}

TEST(FatTreeAllocatorTest, FragmentationForcesMultiPodBlocks) {
  FatTreeAllocator allocator({8, 1.0});
  // Take 3 of 4 subtrees in every pod (8 compact 3-subtree jobs fill pods
  // sequentially): one subtree stays free per pod, so a 4-subtree job fits
  // neither 1 pod x 4 nor 2 pods x 2 — only the fully spread 4 pods x 1.
  for (std::int64_t p = 0; p < 8; ++p) {
    const auto block = allocator.try_place(3, 0, p);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->label.find("3st x 1pod"), 0u) << block->label;
  }
  EXPECT_EQ(allocator.free_units(), 8);
  const auto pods = allocator.pods_for(4);
  ASSERT_EQ(pods, (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_FALSE(allocator.try_place(4, 0, 50).has_value());
  EXPECT_FALSE(allocator.try_place(4, 1, 50).has_value());
  const auto spread = allocator.try_place(4, 2, 50);
  ASSERT_TRUE(spread.has_value());
  EXPECT_EQ(spread->label.find("1st x 4pod"), 0u) << spread->label;
  // Flat quality: the forced spread causes no slowdown.
  EXPECT_EQ(spread->quality, spread->best_quality);
  allocator.release(50);
  for (std::int64_t p = 0; p < 8; ++p) allocator.release(p);
  EXPECT_EQ(allocator.free_units(), 32);
}

// -------------------------------------------------------------------------
// Group and pod ledgers: per-container free counts under churn.
// -------------------------------------------------------------------------

/// The container ids a dragonfly/fat-tree label lists after "@{".
std::vector<std::int64_t> label_containers(const std::string& label) {
  std::vector<std::int64_t> ids;
  std::istringstream list(label.substr(label.find("@{") + 2));
  for (std::string id; std::getline(list, id, ',');) {
    ids.push_back(std::stoll(id));
  }
  return ids;
}

/// Churns `allocator` with seeded place/release steps, tracking each
/// container's free units from the partition labels, and after every step
/// checks the ledger against that model: for each count s, the scan-order
/// single-container class (`one_container(s)`) takes exactly the first
/// container with s free units, or fails when none has them, and its
/// release restores the ledger.
template <typename OneContainerClass>
void expect_container_ledger(PartitionAllocator& allocator,
                             std::int64_t container_size,
                             OneContainerClass one_container) {
  const std::int64_t containers = allocator.total_units() / container_size;
  std::vector<std::int64_t> free(static_cast<std::size_t>(containers),
                                 container_size);
  std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> live;
  std::vector<std::int64_t> per_block;  // by live index
  const auto sizes = feasible_unit_sizes(allocator);
  std::mt19937_64 rng(sweep::task_seed(7, containers));
  for (std::int64_t job = 0; job < 60; ++job) {
    const std::int64_t size = sizes[rng() % sizes.size()];
    const auto classes = allocator.candidate_qualities(size);
    const auto placed =
        allocator.try_place(size, rng() % classes.size(), job);
    if (placed) {
      const auto ids = label_containers(placed->label);
      for (const std::int64_t c : ids) {
        free[static_cast<std::size_t>(c)] -=
            size / static_cast<std::int64_t>(ids.size());
      }
      live.emplace_back(job, ids);
      per_block.push_back(size / static_cast<std::int64_t>(ids.size()));
    }
    if (!live.empty() && (!placed || rng() % 3 == 0)) {
      const std::size_t victim = rng() % live.size();
      for (const std::int64_t c : live[victim].second) {
        free[static_cast<std::size_t>(c)] += per_block[victim];
      }
      EXPECT_EQ(allocator.release(live[victim].first),
                per_block[victim] *
                    static_cast<std::int64_t>(live[victim].second.size()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      per_block.erase(per_block.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    std::int64_t total_free = 0;
    for (const std::int64_t f : free) total_free += f;
    ASSERT_EQ(allocator.free_units(), total_free) << "after job " << job;
    for (std::int64_t want = 1; want <= container_size; ++want) {
      const auto first = std::find_if(free.begin(), free.end(),
                                      [want](std::int64_t f) { return f >= want; });
      const auto probe = allocator.try_place(want, one_container(want), 1000);
      if (first == free.end()) {
        EXPECT_FALSE(probe.has_value()) << "after job " << job;
        continue;
      }
      ASSERT_TRUE(probe.has_value()) << "after job " << job;
      EXPECT_EQ(label_containers(probe->label),
                std::vector<std::int64_t>{first - free.begin()})
          << "after job " << job << ": " << probe->label;
      EXPECT_EQ(allocator.release(1000), want);
    }
  }
}

TEST(ContainerLedgerTest, DragonflyGroupsKeepExactFreeCounts) {
  DragonflyAllocator allocator(small_dragonfly());
  expect_container_ledger(allocator, allocator.config().h, [&](std::int64_t s) {
    const auto& layouts = allocator.layouts_for(s);
    for (std::size_t k = 0; k < layouts.size(); ++k) {
      if (layouts[k].groups == 1) return k;
    }
    throw std::logic_error("no single-group layout");
  });
}

TEST(ContainerLedgerTest, FatTreePodsKeepExactFreeCounts) {
  FatTreeAllocator allocator({8, 1.0});
  expect_container_ledger(allocator, 4, [&](std::int64_t s) {
    const auto pods = allocator.pods_for(s);
    return static_cast<std::size_t>(
        std::find(pods.begin(), pods.end(), 1) - pods.begin());
  });
}

// -------------------------------------------------------------------------
// Factories and generic helpers.
// -------------------------------------------------------------------------

TEST(MakeAllocatorTest, DispatchesPerFamilyAndRejectsUnmodeledOnes) {
  const auto torus =
      make_allocator(topo::TopologySpec::torus({4, 2, 2, 2}));
  EXPECT_EQ(torus->total_units(), 32);
  EXPECT_NE(dynamic_cast<CuboidAllocator*>(torus.get()), nullptr);

  const auto dragonfly = make_allocator(
      topo::TopologySpec::dragonfly(small_dragonfly()));
  EXPECT_NE(dynamic_cast<DragonflyAllocator*>(dragonfly.get()), nullptr);

  const auto fat_tree = make_allocator(topo::TopologySpec::fat_tree(8));
  EXPECT_NE(dynamic_cast<FatTreeAllocator*>(fat_tree.get()), nullptr);

  EXPECT_THROW(make_allocator(topo::TopologySpec::hypercube(5)),
               std::invalid_argument);
  EXPECT_THROW(make_allocator(topo::TopologySpec::torus({4, 2})),
               std::invalid_argument);  // not a 4-D midplane grid
  // Weighted tori must be rejected, not silently scored at unit capacity.
  EXPECT_THROW(make_allocator(topo::TopologySpec::weighted_torus(
                   {4, 2, 2, 2}, {4.0, 1.0, 1.0, 1.0})),
               std::invalid_argument);
}

TEST(MakeAllocatorTest, FeasibleUnitSizesMatchFamilies) {
  const auto torus = make_allocator(bgq::juqueen());
  EXPECT_EQ(feasible_unit_sizes(*torus), bgq::feasible_sizes(bgq::juqueen()));

  FatTreeAllocator fat_tree({4, 1.0});  // 4 pods x 2 subtrees = 8 units
  const auto sizes = feasible_unit_sizes(fat_tree);
  // p | s with s / p <= 2, p <= 4: sizes 1, 2, 3 (3 pods x 1), 4, 6, 8.
  EXPECT_EQ(sizes, (std::vector<std::int64_t>{1, 2, 3, 4, 6, 8}));
}

// -------------------------------------------------------------------------
// Family pin suite: schedule hashes for the placement paths the 24-job
// paper-machine suite above leaves open — best-fit position scoring on
// every family, the dragonfly and fat-tree scan orders, and EASY
// backfilling (whose tentative place/release probes exercise the release
// path). Captured before the placement scans and release paths were
// merged; any drift in a chosen position or a partition label changes the
// hash.
// -------------------------------------------------------------------------

struct GoldenFamilySchedule {
  const char* family;
  SchedulerPolicy policy;
  PositionScoring scoring;
  std::uint64_t digest_hash;
};

constexpr GoldenFamilySchedule kGoldenFamilySchedules[] = {
    {"cuboid", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kScanOrder, 0xc9ba5eb94ad20d21ULL},
    {"cuboid", SchedulerPolicy::kFirstFit,
     PositionScoring::kBestFit, 0xe09ba53248a8d532ULL},
    {"cuboid", SchedulerPolicy::kBestBisection,
     PositionScoring::kBestFit, 0xfe70252f6256ac3dULL},
    {"cuboid", SchedulerPolicy::kWaitForBest,
     PositionScoring::kBestFit, 0xfe70252f6256ac3dULL},
    {"cuboid", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kBestFit, 0x34a7815385c93c38ULL},
    {"dragonfly", SchedulerPolicy::kFirstFit,
     PositionScoring::kScanOrder, 0xf6fb84a005ac5d1fULL},
    {"dragonfly", SchedulerPolicy::kBestBisection,
     PositionScoring::kScanOrder, 0x4837cb3e43bd85fbULL},
    {"dragonfly", SchedulerPolicy::kWaitForBest,
     PositionScoring::kScanOrder, 0x8e6c8c0be3a6b6d6ULL},
    {"dragonfly", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kScanOrder, 0xab3505bf1f94637fULL},
    {"dragonfly", SchedulerPolicy::kFirstFit,
     PositionScoring::kBestFit, 0x8d36ad105e52b0c5ULL},
    {"dragonfly", SchedulerPolicy::kBestBisection,
     PositionScoring::kBestFit, 0x1930eb1f1808a376ULL},
    {"dragonfly", SchedulerPolicy::kWaitForBest,
     PositionScoring::kBestFit, 0x5c700331f7e48396ULL},
    {"dragonfly", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kBestFit, 0xab3505bf1f94637fULL},
    {"fattree", SchedulerPolicy::kFirstFit,
     PositionScoring::kScanOrder, 0xc34c70fb2d81b9c0ULL},
    {"fattree", SchedulerPolicy::kBestBisection,
     PositionScoring::kScanOrder, 0x4acb121b87b67de9ULL},
    {"fattree", SchedulerPolicy::kWaitForBest,
     PositionScoring::kScanOrder, 0x4acb121b87b67de9ULL},
    {"fattree", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kScanOrder, 0xbcf2882ebd9bd481ULL},
    {"fattree", SchedulerPolicy::kFirstFit,
     PositionScoring::kBestFit, 0xc34c70fb2d81b9c0ULL},
    {"fattree", SchedulerPolicy::kBestBisection,
     PositionScoring::kBestFit, 0xdd3d6bb5401ff1a7ULL},
    {"fattree", SchedulerPolicy::kWaitForBest,
     PositionScoring::kBestFit, 0xdd3d6bb5401ff1a7ULL},
    {"fattree", SchedulerPolicy::kEasyBackfill,
     PositionScoring::kBestFit, 0x8009706c56d16267ULL},
};

/// Mira for the torus family; the 32-unit small dragonfly and k = 8
/// fat-tree otherwise.
std::unique_ptr<PartitionAllocator> family_allocator(
    const std::string& family) {
  if (family == "cuboid") return std::make_unique<CuboidAllocator>(bgq::mira());
  if (family == "dragonfly") {
    return std::make_unique<DragonflyAllocator>(small_dragonfly());
  }
  return std::make_unique<FatTreeAllocator>(topo::FatTreeConfig{8, 1.0});
}

TEST(FamilyPinTest, ReproducesPinnedSchedulesBitExactly) {
  for (const GoldenFamilySchedule& golden : kGoldenFamilySchedules) {
    const auto allocator = family_allocator(golden.family);
    allocator->set_position_scoring(golden.scoring);
    sweep::TraceConfig config;
    config.num_jobs = 48;
    const auto jobs = sweep::generate_trace(feasible_unit_sizes(*allocator),
                                            config, 2020);
    const auto result = simulate_schedule(*allocator, golden.policy, jobs);
    EXPECT_EQ(fnv1a(schedule_digest(result)), golden.digest_hash)
        << golden.family << " / " << to_string(golden.policy) << " / "
        << to_string(golden.scoring);
  }
}

TEST(SimulateScheduleTest, RunsOnDragonflyAndFatTreeFamilies) {
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < 10; ++i) {
    jobs.push_back({i, (i % 3 == 0) ? 8 : 4, 20.0, true, 2.0 * i});
  }
  DragonflyAllocator dragonfly(small_dragonfly());
  const auto df_first =
      simulate_schedule(dragonfly, SchedulerPolicy::kFirstFit, jobs);
  DragonflyAllocator dragonfly2(small_dragonfly());
  const auto df_wait =
      simulate_schedule(dragonfly2, SchedulerPolicy::kWaitForBest, jobs);
  EXPECT_GT(df_first.mean_slowdown, 1.0);
  EXPECT_NEAR(df_wait.mean_slowdown, 1.0, 1e-12);

  FatTreeAllocator fat_tree({8, 1.0});
  const auto ft =
      simulate_schedule(fat_tree, SchedulerPolicy::kFirstFit, jobs);
  EXPECT_NEAR(ft.mean_slowdown, 1.0, 1e-12);  // layout-flat Clos
}

}  // namespace
}  // namespace npac::core
