// Topology-agnostic partition allocation — the layer the scheduler
// simulation places jobs through.
//
// The paper's Future Work scheduler (Section 5) weighs partition quality
// against utilization. PR 3 generalized the *contention* stack to any
// simnet::Network; this module does the same for *allocation*: a
// PartitionAllocator owns the occupancy state of one machine and hands out
// opaque Partition handles whose per-family layout is
//
//  * CuboidAllocator  — cuboids of midplanes on a Blue Gene/Q torus grid
//    (the pre-refactor MidplaneGrid path, kept bit-exact; quality is the
//    normalized internal bisection of Theorem 3.1 / Lemma 3.3);
//  * DragonflyAllocator — group slices: whole chassis (K_a columns) spread
//    over as few groups as possible, scored by core::topology_bisection on
//    the slice's induced sub-network (Hamming K_a x K_c for one group, the
//    canonical g-group sub-dragonfly otherwise);
//  * FatTreeAllocator — pod/subtree blocks: edge-switch subtrees grouped
//    into pods; every layout of a non-blocking Clos has the same host
//    bisection (the Section 5 claim this family demonstrates).
//
// Candidate layout *classes* for a job size are quality-ordered, so the
// SchedulerPolicy trade-offs (first-fit / best-bisection / wait-for-best /
// EASY backfill) are expressed once in core::StreamingScheduler and run
// unchanged on every family. Within a class, each family has one placement
// scan parameterized by PositionScoring, and every family keeps its
// occupancy in one OwnerArray: a bit per unit packed into 64-bit words,
// plus each resident job's unit mask, so a release clears one stored mask.
// The torus scan tests precomputed cuboid masks against those words
// (MidplaneGrid::ShapeScan). Expensive layout scoring goes through a
// PartitionOracle so sweeps can memoize it per machine descriptor
// (sweep::SweepContext).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "topo/descriptor.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"

namespace npac::core {

// ---------------------------------------------------------------------------
// PartitionOracle: the memoization seam for expensive layout queries.
// ---------------------------------------------------------------------------

/// Source of candidate-layout information, keyed by machine descriptor and
/// job size. The base implementation computes everything directly on every
/// query; callers running many simulations (the src/sweep engine) supply a
/// memoized override so each exhaustive cuboid enumeration and each
/// sub-network bisection is paid once per key instead of once per placement
/// decision.
class PartitionOracle {
 public:
  virtual ~PartitionOracle() = default;

  /// Distinct geometries of exactly `midplanes` midplanes fitting
  /// `machine`, sorted best bisection first — the contract of
  /// bgq::enumerate_geometries, which the base class delegates to. The
  /// torus family's layout classes. Returned by shared_ptr so memoizing
  /// overrides hand out a reference to the one cached enumeration instead
  /// of copying it per placement decision; never null, immutable.
  virtual std::shared_ptr<const std::vector<bgq::Geometry>> geometries(
      const bgq::Machine& machine, std::int64_t midplanes) const;

  /// core::topology_bisection of a (sub-)network descriptor — how the
  /// non-torus families score a candidate layout. Memoizing overrides key
  /// on spec.id().
  virtual TopologyBisection bisection(const topo::TopologySpec& spec) const;
};

/// Process-wide uncached oracle (what a null/default oracle argument means).
const PartitionOracle& default_partition_oracle();

// ---------------------------------------------------------------------------
// Shared placement vocabulary: position scoring and unit ownership.
// ---------------------------------------------------------------------------

/// How an allocator picks the concrete *position* of a layout class when
/// several free node sets realize it — the axis orthogonal to the layout
/// class itself (which fixes the partition's shape/quality).
enum class PositionScoring {
  /// First fit in the family's deterministic scan order — the pre-refactor
  /// behavior; the golden schedule digests are pinned to this mode.
  kScanOrder,
  /// Fragmentation-aware: among the feasible positions of the class, take
  /// the one whose *residue* fragments the machine least — tightest
  /// containers first (dragonfly groups / fat-tree pods with the least
  /// free slack), and on the torus the cuboid with the most occupied
  /// neighbor cells (least free surface exposed). Scores what a placement
  /// leaves behind, not just the shape it takes; ties fall back to scan
  /// order, so schedules stay deterministic.
  kBestFit,
};

std::string to_string(PositionScoring scoring);

/// Occupancy ledger of one machine, shared by every family: one bit per
/// allocation unit (midplane, chassis or edge subtree), set while taken,
/// packed into ceil(units / 64) 64-bit words; unit u is bit u % 64 of word
/// u / 64. It also stores the unit mask of every resident job, so
/// release(job) clears that mask in a few word operations instead of
/// scanning the units. The free count moves with every take and release,
/// so no family keeps a second tally.
class OwnerArray {
 public:
  using Word = std::uint64_t;

  explicit OwnerArray(std::int64_t units = 0);

  std::int64_t size() const { return units_; }
  /// Number of 64-bit words in the occupancy and in every job mask.
  std::size_t words() const { return occupied_.size(); }
  std::int64_t free_units() const { return free_; }
  bool is_free(std::size_t unit) const {
    return ((occupied_[unit / 64] >> (unit % 64)) & 1) == 0;
  }
  /// The occupancy words (words() of them); a set bit is a taken unit.
  const Word* occupied() const { return occupied_.data(); }

  /// Hands the free `unit` to `job_id`.
  void take(std::size_t unit, std::int64_t job_id);

  /// Hands every unit set in `mask` (words() words, all of them free) to
  /// `job_id`.
  void take(const Word* mask, std::int64_t job_id);

  /// Frees every unit owned by `job_id`. Returns the number freed: 0 for a
  /// job that holds nothing (unknown or already released).
  std::int64_t release(std::int64_t job_id);

 private:
  /// The stored mask of `job_id`, appending an empty one for a new job.
  Word* job_mask(std::int64_t job_id);

  std::int64_t units_ = 0;
  std::vector<Word> occupied_;
  std::vector<std::int64_t> jobs_;  ///< resident job ids, one entry each
  std::vector<Word> masks_;         ///< words() per entry of jobs_
  std::int64_t free_ = 0;
};

// ---------------------------------------------------------------------------
// Torus-family layout: cuboid placements on the midplane grid.
// ---------------------------------------------------------------------------

/// A cuboid of midplanes anchored at a grid position. `extent` is the
/// oriented shape (not canonicalized); the cuboid may wrap around any
/// dimension, as Blue Gene/Q partitions may.
struct Placement {
  std::array<std::int64_t, 4> origin{0, 0, 0, 0};
  std::array<std::int64_t, 4> extent{1, 1, 1, 1};

  std::int64_t midplanes() const;
  bgq::Geometry geometry() const;  ///< canonical form of the extent
  std::string to_string() const;
};

/// Occupancy tracker over a machine's midplane grid.
class MidplaneGrid {
 public:
  using Word = OwnerArray::Word;

  /// Every anchored placement of one canonical shape, in scan order: the
  /// axis permutations of the ascending extent in std::next_permutation
  /// order (those fitting the grid), each at every origin row-major. A
  /// placement whose cells repeat an earlier one's (an origin off zero
  /// along an axis the cuboid spans fully) is dropped: no scan could pick
  /// it over the earlier one. Each placement carries three masks of
  /// words() words over the grid's row-major cells: its cells; halo1, the
  /// outside cells face-adjacent to it; and halo2, the halo cells adjacent
  /// from both sides, which exist along an axis exactly one wider than the
  /// extent and count twice in the boundary contact.
  struct ShapeScan {
    struct Entry {
      std::uint32_t origin = 0;  ///< row-major cell index of the origin
      std::uint32_t extent = 0;  ///< index into extents
    };
    std::vector<std::array<std::int64_t, 4>> extents;
    std::vector<Entry> entries;
    std::vector<Word> cells;  ///< words() per entry
    std::vector<Word> halos;  ///< 2 * words() per entry: halo1, halo2
  };

  explicit MidplaneGrid(bgq::Machine machine);

  const bgq::Machine& machine() const { return machine_; }
  std::int64_t free_midplanes() const { return owners_.free_units(); }

  /// True if every cell of the placement is inside the grid (modulo
  /// wrap-around) and currently free.
  bool fits(const Placement& placement) const;

  /// Marks the placement's cells as owned by `job_id`. Throws if any cell
  /// is occupied.
  void occupy(const Placement& placement, std::int64_t job_id);

  /// Frees every cell owned by `job_id`. Returns the number freed.
  std::int64_t release(std::int64_t job_id) { return owners_.release(job_id); }

  /// Finds a free anchored placement whose canonical shape is `shape`,
  /// scanning every axis permutation and origin; nullopt when none fits.
  /// kScanOrder returns the first fit. kBestFit returns the fit with the
  /// highest boundary contact — the count of (placement cell, direction)
  /// pairs whose face-adjacent neighbor outside the placement (wrap-around
  /// included) is occupied — taking the first in scan order on ties.
  /// Packing new cuboids against existing ones leaves the free space in
  /// fewer, larger chunks.
  std::optional<Placement> find_placement(const bgq::Geometry& shape,
                                          PositionScoring scoring) const;

  /// The memoized scan of `shape`, built on first use. The reference stays
  /// valid for the grid's lifetime.
  const ShapeScan& shape_scan(const bgq::Geometry& shape) const;

  /// Index into scan.entries of the placement find_placement picks, or
  /// nullopt when none fits.
  std::optional<std::size_t> find_in(const ShapeScan& scan,
                                     PositionScoring scoring) const;

  /// The placement of scan entry `index`.
  Placement placement(const ShapeScan& scan, std::size_t index) const;

  /// Marks the cells of scan entry `index` (a free placement, as find_in
  /// returns) as owned by `job_id`.
  void occupy(const ShapeScan& scan, std::size_t index, std::int64_t job_id);

 private:
  /// Sets the placement's cells in `mask` (words() zeroed words).
  void cell_mask(const Placement& placement, Word* mask) const;
  ShapeScan build_scan(const std::array<std::int64_t, 4>& ascending) const;

  bgq::Machine machine_;
  std::array<std::int64_t, 4> dims_;
  OwnerArray owners_;  // one bit per midplane, row-major over dims_
  /// Scans keyed by ascending extent; node-based, so references stay put.
  mutable std::map<std::array<std::int64_t, 4>, ShapeScan> scans_;
};

// ---------------------------------------------------------------------------
// The allocator interface.
// ---------------------------------------------------------------------------

/// Opaque handle to one allocated node set. `label` renders the per-family
/// layout (torus: the placed cuboid; dragonfly: chassis x groups; fat-tree:
/// subtrees x pods); `cuboid` is populated by the torus family only.
struct Partition {
  std::string label;
  std::int64_t units = 0;      ///< allocation units held
  double quality = 0.0;        ///< internal bisection score of this layout
  double best_quality = 0.0;   ///< best same-size layout score
  std::optional<Placement> cuboid;  ///< torus-family layout detail
};

/// Occupancy state + allocation policy surface of one machine. An
/// *allocation unit* is the family's scheduling granule: a midplane
/// (torus), a chassis of K_a routers (dragonfly), or an edge-switch
/// subtree of k/2 hosts (fat-tree). Job sizes are unit counts.
///
/// Layout classes for a size are quality-ordered best-first;
/// `try_place(size, k, job)` attempts class k and atomically occupies the
/// chosen node set on success. Scan order inside a class is deterministic,
/// so schedules are pure functions of (machine, policy, jobs).
class PartitionAllocator {
 public:
  virtual ~PartitionAllocator() = default;

  PartitionAllocator(const PartitionAllocator&) = delete;
  PartitionAllocator& operator=(const PartitionAllocator&) = delete;

  /// Machine descriptor id used in diagnostics and cache keys, e.g.
  /// "Mira (torus:4x4x3x2)" or "dragonfly:a4:h4:g8:p1:abs".
  virtual std::string descriptor() const = 0;

  /// Short family tag ("cuboid", "dragonfly", "fattree") used as the
  /// per-family key of scheduler metrics (`sched.alloc.<family>.*`).
  virtual std::string family() const = 0;

  virtual std::int64_t total_units() const = 0;
  virtual std::int64_t free_units() const = 0;

  /// Quality scores (internal bisection of the layout class, best first) of
  /// the candidate layouts for a job of `size` units. Empty = the size is
  /// infeasible on this machine. Pure in (machine, size).
  virtual std::vector<double> candidate_qualities(std::int64_t size) const = 0;

  /// Attempts to allocate a partition of layout class `candidate` (an index
  /// into candidate_qualities(size)) for `job_id`; nullopt when no free
  /// node set of that layout exists right now.
  virtual std::optional<Partition> try_place(std::int64_t size,
                                             std::size_t candidate,
                                             std::int64_t job_id) = 0;

  /// Frees every unit owned by `job_id`. Returns the number freed.
  virtual std::int64_t release(std::int64_t job_id) = 0;

  /// Position-selection mode for try_place. Defaults to kScanOrder (the
  /// digest-pinned pre-refactor behavior); switching modes changes which
  /// node set a class occupies, never the class's quality score.
  PositionScoring position_scoring() const { return scoring_; }
  void set_position_scoring(PositionScoring scoring) { scoring_ = scoring; }

 protected:
  PartitionAllocator() = default;

 private:
  PositionScoring scoring_ = PositionScoring::kScanOrder;
};

// ---------------------------------------------------------------------------
// Family implementations.
// ---------------------------------------------------------------------------

/// Blue Gene/Q torus family: the pre-refactor MidplaneGrid scheduling path.
/// Layout classes are the distinct same-size cuboid geometries sorted best
/// bisection first; placement scans all orientations and origins in
/// enumeration order — bit-exact with the original scheduler
/// (tests/core/allocator_test.cpp pins the zero-drift guarantee).
class CuboidAllocator final : public PartitionAllocator {
 public:
  /// `oracle` must outlive the allocator.
  explicit CuboidAllocator(
      bgq::Machine machine,
      const PartitionOracle& oracle = default_partition_oracle());

  const bgq::Machine& machine() const { return grid_.machine(); }
  const MidplaneGrid& grid() const { return grid_; }

  std::string descriptor() const override;
  std::string family() const override { return "cuboid"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override { return grid_.free_midplanes(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override {
    return grid_.release(job_id);
  }

 private:
  /// The layout classes of one size: the oracle's geometries, their
  /// qualities, and each class's shape scan once try_place first needs it.
  struct SizeClasses {
    std::shared_ptr<const std::vector<bgq::Geometry>> geometries;
    std::vector<double> qualities;
    std::vector<const MidplaneGrid::ShapeScan*> scans;
  };
  SizeClasses& classes_for(std::int64_t size) const;

  const PartitionOracle* oracle_;
  MidplaneGrid grid_;
  /// Per-size memo, the one lookup of a try_place: pure in (machine shape,
  /// size), so caching inside the allocator never changes a schedule, only
  /// its cost. Holds the oracle's shared_ptr, so a memoized oracle costs one
  /// refcount per distinct size here, not a vector copy.
  mutable std::map<std::int64_t, SizeClasses> classes_;
};

/// Dragonfly family: allocation units are chassis (columns of K_a routers).
/// A layout class spreads a job of s chassis over g groups, c = s / g
/// chassis each (g must divide s, c <= h); classes are scored by the
/// bisection of the slice's induced sub-network — Hamming K_a x K_c for a
/// single group, the canonical g-group sub-dragonfly for spread layouts —
/// and ordered best-first, so compact slices (dense intra-group links)
/// outrank layouts that push internal traffic onto the sparse global links.
class DragonflyAllocator final : public PartitionAllocator {
 public:
  explicit DragonflyAllocator(
      topo::DragonflyConfig config,
      const PartitionOracle& oracle = default_partition_oracle());

  const topo::DragonflyConfig& config() const { return config_; }

  std::string descriptor() const override;
  std::string family() const override { return "dragonfly"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override { return owners_.free_units(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override {
    return owners_.release(job_id);
  }

  /// The (groups, chassis-per-group) layout classes for a size, quality
  /// ordered (exposed for tests and the advisor's labels).
  struct Layout {
    std::int64_t groups = 1;
    std::int64_t chassis_per_group = 1;
    double quality = 0.0;
  };
  const std::vector<Layout>& layouts_for(std::int64_t size) const;

 private:
  topo::DragonflyConfig config_;
  const PartitionOracle* oracle_;
  OwnerArray owners_;  // chassis, h per group
  mutable std::map<std::int64_t, std::vector<Layout>> layouts_;
  /// try_place's (free chassis, group) scratch, reused across placements.
  std::vector<std::pair<std::int64_t, std::int64_t>> qualifying_;
};

/// Fat-tree family: allocation units are edge-switch subtrees (k/2 hosts).
/// A layout class spreads s subtrees over p pods (p divides s, s / p <=
/// k/2 edge switches per pod). The machine is a non-blocking Clos, so every
/// layout of the same size has the same host bisection — s * k/4 * link
/// capacity — which is exactly the Section 5 observation that partition
/// *shape* does not matter on fat-trees: wait-for-best never waits.
class FatTreeAllocator final : public PartitionAllocator {
 public:
  explicit FatTreeAllocator(topo::FatTreeConfig config);

  const topo::FatTreeConfig& config() const { return config_; }

  std::string descriptor() const override;
  std::string family() const override { return "fattree"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override { return owners_.free_units(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override {
    return owners_.release(job_id);
  }

  /// Pods spanned by layout class `candidate` of a size (compact first).
  std::vector<std::int64_t> pods_for(std::int64_t size) const;

 private:
  /// The flat Clos quality of any s-subtree block: s * k/4 * capacity.
  double block_quality(std::int64_t size) const;
  /// True when a block of `size` subtrees spreads evenly over `pods` pods.
  bool spans(std::int64_t size, std::int64_t pods) const;

  topo::FatTreeConfig config_;
  OwnerArray owners_;  // edge subtrees, k/2 per pod
  /// try_place's (free subtrees, pod) scratch, reused across placements.
  std::vector<std::pair<std::int64_t, std::int64_t>> qualifying_;
};

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

/// Allocator for a Blue Gene/Q machine (torus family).
std::unique_ptr<PartitionAllocator> make_allocator(
    const bgq::Machine& machine,
    const PartitionOracle& oracle = default_partition_oracle());

/// Allocator for a topology descriptor: 4-D torus specs get the cuboid
/// family (the spec's dims become the midplane grid), dragonfly and
/// fat-tree specs their native families. Other families have no allocation
/// model yet and throw std::invalid_argument.
std::unique_ptr<PartitionAllocator> make_allocator(
    const topo::TopologySpec& spec,
    const PartitionOracle& oracle = default_partition_oracle());

/// Job sizes (unit counts) for which `allocator` has at least one layout
/// class, ascending — the generic analogue of bgq::feasible_sizes.
std::vector<std::int64_t> feasible_unit_sizes(
    const PartitionAllocator& allocator);

}  // namespace npac::core
