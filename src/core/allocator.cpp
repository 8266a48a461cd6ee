#include "core/allocator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace npac::core {

// ---------------------------------------------------------------------------
// PartitionOracle
// ---------------------------------------------------------------------------

std::shared_ptr<const std::vector<bgq::Geometry>> PartitionOracle::geometries(
    const bgq::Machine& machine, std::int64_t midplanes) const {
  return std::make_shared<const std::vector<bgq::Geometry>>(
      bgq::enumerate_geometries(machine, midplanes));
}

TopologyBisection PartitionOracle::bisection(
    const topo::TopologySpec& spec) const {
  return topology_bisection(spec);
}

const PartitionOracle& default_partition_oracle() {
  static const PartitionOracle oracle;
  return oracle;
}

std::string to_string(PositionScoring scoring) {
  switch (scoring) {
    case PositionScoring::kScanOrder:
      return "scan-order";
    case PositionScoring::kBestFit:
      return "best-fit";
  }
  throw std::invalid_argument("to_string: unknown PositionScoring");
}

std::int64_t OwnerArray::release(std::int64_t job_id) {
  std::int64_t freed = 0;
  for (auto& owner : owner_) {
    if (owner == job_id) {
      owner = -1;
      ++freed;
    }
  }
  free_ += freed;
  return freed;
}

// ---------------------------------------------------------------------------
// Placement / MidplaneGrid (torus-family layout)
// ---------------------------------------------------------------------------

std::int64_t Placement::midplanes() const {
  return extent[0] * extent[1] * extent[2] * extent[3];
}

bgq::Geometry Placement::geometry() const { return bgq::Geometry(extent); }

std::string Placement::to_string() const {
  std::ostringstream out;
  out << extent[0] << "x" << extent[1] << "x" << extent[2] << "x" << extent[3]
      << "@(" << origin[0] << "," << origin[1] << "," << origin[2] << ","
      << origin[3] << ")";
  return out.str();
}

MidplaneGrid::MidplaneGrid(bgq::Machine machine)
    : machine_(std::move(machine)),
      dims_(machine_.shape.dims()),
      owners_(machine_.midplanes()) {}

std::size_t MidplaneGrid::cell_index(
    const std::array<std::int64_t, 4>& cell) const {
  std::size_t index = 0;
  for (int i = 0; i < 4; ++i) {
    index = index * static_cast<std::size_t>(dims_[static_cast<std::size_t>(i)]) +
            static_cast<std::size_t>(cell[static_cast<std::size_t>(i)]);
  }
  return index;
}

template <typename Fn>
void MidplaneGrid::for_each_cell(const Placement& placement, Fn&& fn) const {
  std::array<std::int64_t, 4> cell{};
  for (std::int64_t a = 0; a < placement.extent[0]; ++a) {
    cell[0] = (placement.origin[0] + a) % dims_[0];
    for (std::int64_t b = 0; b < placement.extent[1]; ++b) {
      cell[1] = (placement.origin[1] + b) % dims_[1];
      for (std::int64_t c = 0; c < placement.extent[2]; ++c) {
        cell[2] = (placement.origin[2] + c) % dims_[2];
        for (std::int64_t d = 0; d < placement.extent[3]; ++d) {
          cell[3] = (placement.origin[3] + d) % dims_[3];
          fn(cell);
        }
      }
    }
  }
}

bool MidplaneGrid::fits(const Placement& placement) const {
  for (int i = 0; i < 4; ++i) {
    const auto extent = placement.extent[static_cast<std::size_t>(i)];
    const auto origin = placement.origin[static_cast<std::size_t>(i)];
    if (extent < 1 || extent > dims_[static_cast<std::size_t>(i)]) return false;
    if (origin < 0 || origin >= dims_[static_cast<std::size_t>(i)]) return false;
  }
  bool free = true;
  for_each_cell(placement, [&](const std::array<std::int64_t, 4>& cell) {
    if (!owners_.is_free(cell_index(cell))) free = false;
  });
  return free;
}

void MidplaneGrid::occupy(const Placement& placement, std::int64_t job_id) {
  if (job_id < 0) {
    throw std::invalid_argument("MidplaneGrid::occupy: job id must be >= 0");
  }
  if (!fits(placement)) {
    throw std::invalid_argument(
        "MidplaneGrid::occupy: placement overlaps or is out of range");
  }
  for_each_cell(placement, [&](const std::array<std::int64_t, 4>& cell) {
    owners_.take(cell_index(cell), job_id);
  });
}

std::optional<Placement> MidplaneGrid::find_placement(
    const bgq::Geometry& shape, PositionScoring scoring) const {
  // Try every distinct axis assignment of the canonical shape, anchored at
  // every origin. Hosts have at most 96 cells and 24 permutations, so the
  // scan is trivial.
  std::optional<Placement> best;
  std::int64_t best_contact = -1;
  std::array<std::int64_t, 4> extent = shape.dims();
  std::sort(extent.begin(), extent.end());
  do {
    bool extent_fits = true;
    for (std::size_t i = 0; i < 4; ++i) {
      if (extent[i] > dims_[i]) extent_fits = false;
    }
    if (!extent_fits) continue;
    Placement placement;
    placement.extent = extent;
    for (std::int64_t a = 0; a < dims_[0]; ++a) {
      for (std::int64_t b = 0; b < dims_[1]; ++b) {
        for (std::int64_t c = 0; c < dims_[2]; ++c) {
          for (std::int64_t d = 0; d < dims_[3]; ++d) {
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

std::int64_t MidplaneGrid::boundary_contact(const Placement& placement) const {
  // Count occupied neighbors just outside the placement, one per
  // face-adjacent (cell, direction) pair. A dimension the placement spans
  // fully has no outside along it (the torus wraps the placement onto
  // itself), so it contributes nothing.
  std::int64_t contact = 0;
  std::array<std::int64_t, 4> offset{};
  for (offset[0] = 0; offset[0] < placement.extent[0]; ++offset[0]) {
    for (offset[1] = 0; offset[1] < placement.extent[1]; ++offset[1]) {
      for (offset[2] = 0; offset[2] < placement.extent[2]; ++offset[2]) {
        for (offset[3] = 0; offset[3] < placement.extent[3]; ++offset[3]) {
          for (std::size_t dim = 0; dim < 4; ++dim) {
            if (placement.extent[dim] == dims_[dim]) continue;  // no outside
            for (const std::int64_t step : {std::int64_t{-1}, std::int64_t{1}}) {
              const std::int64_t neighbor_offset = offset[dim] + step;
              if (neighbor_offset >= 0 &&
                  neighbor_offset < placement.extent[dim]) {
                continue;  // inside the placement
              }
              std::array<std::int64_t, 4> cell{};
              for (std::size_t i = 0; i < 4; ++i) {
                cell[i] = (placement.origin[i] + offset[i]) % dims_[i];
              }
              cell[dim] = (placement.origin[dim] + neighbor_offset % dims_[dim] +
                           dims_[dim]) %
                          dims_[dim];
              if (!owners_.is_free(cell_index(cell))) ++contact;
            }
          }
        }
      }
    }
  }
  return contact;
}

// ---------------------------------------------------------------------------
// CuboidAllocator
// ---------------------------------------------------------------------------

CuboidAllocator::CuboidAllocator(bgq::Machine machine,
                                 const PartitionOracle& oracle)
    : oracle_(&oracle), grid_(std::move(machine)) {}

std::string CuboidAllocator::descriptor() const {
  const auto& dims = machine().shape.dims();
  const std::string id =
      topo::TopologySpec::torus({dims.begin(), dims.end()}).id();
  // Spec-built machines are named by their id already; real machines get
  // "Mira (torus:4x4x3x2)".
  if (machine().name == id) return id;
  return machine().name + " (" + id + ")";
}

std::int64_t CuboidAllocator::total_units() const {
  return machine().midplanes();
}

const std::vector<bgq::Geometry>& CuboidAllocator::geometries_for(
    std::int64_t size) const {
  const auto it = enumerations_.find(size);
  if (it != enumerations_.end()) return *it->second;
  return *enumerations_.emplace(size, oracle_->geometries(machine(), size))
              .first->second;
}

std::vector<double> CuboidAllocator::candidate_qualities(
    std::int64_t size) const {
  const auto& geometries = geometries_for(size);
  std::vector<double> qualities;
  qualities.reserve(geometries.size());
  for (const bgq::Geometry& shape : geometries) {
    qualities.push_back(
        static_cast<double>(bgq::normalized_bisection(shape)));
  }
  return qualities;
}

std::optional<Partition> CuboidAllocator::try_place(std::int64_t size,
                                                    std::size_t candidate,
                                                    std::int64_t job_id) {
  const auto& geometries = geometries_for(size);
  const bgq::Geometry& shape = geometries.at(candidate);
  const auto placement = grid_.find_placement(shape, position_scoring());
  if (!placement) return std::nullopt;
  grid_.occupy(*placement, job_id);
  Partition partition;
  partition.label = placement->to_string();
  partition.units = size;
  partition.quality = static_cast<double>(bgq::normalized_bisection(shape));
  partition.best_quality =
      static_cast<double>(bgq::normalized_bisection(geometries.front()));
  partition.cuboid = *placement;
  return partition;
}

// ---------------------------------------------------------------------------
// Container placement (dragonfly groups, fat-tree pods)
// ---------------------------------------------------------------------------

namespace {

/// Placement shared by the group/pod families: picks `blocks` containers
/// of `container_size` units holding at least `per_block` free units each,
/// occupies the lowest-id free units of every chosen container, and labels
/// the partition "<per_block><unit> x <blocks><container>@{ids}" (quality
/// left to the caller). kScanOrder takes the first qualifying containers
/// by ascending id; kBestFit the ones with the least free slack (tightest
/// fit), ties by ascending id. The chosen ids are listed ascending either
/// way. nullopt (and nothing occupied) when fewer than `blocks` qualify.
std::optional<Partition> place_in_containers(
    OwnerArray& owners, std::int64_t container_size, std::int64_t blocks,
    std::int64_t per_block, PositionScoring scoring, std::int64_t job_id,
    const char* unit, const char* container) {
  const std::int64_t containers = owners.size() / container_size;
  const auto slot = [container_size](std::int64_t c, std::int64_t u) {
    return static_cast<std::size_t>(c * container_size + u);
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> qualifying;  // (free, id)
  for (std::int64_t c = 0; c < containers; ++c) {
    if (scoring == PositionScoring::kScanOrder &&
        static_cast<std::int64_t>(qualifying.size()) == blocks) {
      break;
    }
    std::int64_t free = 0;
    for (std::int64_t u = 0; u < container_size; ++u) {
      if (owners.is_free(slot(c, u))) ++free;
    }
    if (free >= per_block) qualifying.emplace_back(free, c);
  }
  if (static_cast<std::int64_t>(qualifying.size()) < blocks) {
    return std::nullopt;
  }
  if (scoring == PositionScoring::kBestFit) {
    std::sort(qualifying.begin(), qualifying.end());
    qualifying.resize(static_cast<std::size_t>(blocks));
    std::sort(qualifying.begin(), qualifying.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
  }
  std::ostringstream label;
  label << per_block << unit << " x " << blocks << container << "@{";
  for (std::size_t i = 0; i < qualifying.size(); ++i) {
    const std::int64_t c = qualifying[i].second;
    std::int64_t taken = 0;
    for (std::int64_t u = 0; u < container_size && taken < per_block; ++u) {
      if (owners.is_free(slot(c, u))) {
        owners.take(slot(c, u), job_id);
        ++taken;
      }
    }
    label << (i > 0 ? "," : "") << c;
  }
  label << "}";
  Partition partition;
  partition.label = label.str();
  partition.units = blocks * per_block;
  return partition;
}

}  // namespace

// ---------------------------------------------------------------------------
// DragonflyAllocator
// ---------------------------------------------------------------------------

DragonflyAllocator::DragonflyAllocator(topo::DragonflyConfig config,
                                       const PartitionOracle& oracle)
    : config_(config), oracle_(&oracle) {
  if (config_.a < 1 || config_.h < 1 || config_.groups < 1) {
    throw std::invalid_argument(
        "DragonflyAllocator: a, h and groups must be >= 1");
  }
  owners_ = OwnerArray(total_units());
}

std::string DragonflyAllocator::descriptor() const {
  return topo::TopologySpec::dragonfly(config_).id();
}

std::int64_t DragonflyAllocator::total_units() const {
  return config_.h * config_.groups;
}

const std::vector<DragonflyAllocator::Layout>& DragonflyAllocator::layouts_for(
    std::int64_t size) const {
  const auto it = layouts_.find(size);
  if (it != layouts_.end()) return it->second;

  std::vector<Layout> layouts;
  if (size >= 1 && size <= total_units()) {
    for (std::int64_t g = 1; g <= config_.groups; ++g) {
      if (size % g != 0) continue;
      const std::int64_t c = size / g;
      if (c > config_.h) continue;
      topo::TopologySpec slice;
      if (g == 1) {
        // One group: c chassis induce exactly the Hamming graph K_a x K_c
        // (green K_h links restricted to the chosen columns).
        slice = c == 1 ? topo::TopologySpec::hamming({config_.a},
                                                     {config_.cap_a})
                       : topo::TopologySpec::hamming(
                             {config_.a, c}, {config_.cap_a, config_.cap_h});
      } else {
        // Spread slice: scored as the canonical g-group sub-dragonfly of
        // the same shape (see DESIGN.md decision #11). The all-pairs
        // global arrangement needs a port budget of g - 1 per group.
        if (g - 1 > config_.a * c * config_.global_ports) continue;
        topo::DragonflyConfig sub = config_;
        sub.h = c;
        sub.groups = g;
        slice = topo::TopologySpec::dragonfly(sub);
      }
      Layout layout;
      layout.groups = g;
      layout.chassis_per_group = c;
      layout.quality = oracle_->bisection(slice).value;
      layouts.push_back(layout);
    }
    // Best quality first; stable keeps the compact (fewest groups) layout
    // ahead on ties, so scan order is deterministic.
    std::stable_sort(layouts.begin(), layouts.end(),
                     [](const Layout& a, const Layout& b) {
                       return a.quality > b.quality;
                     });
  }
  return layouts_.emplace(size, std::move(layouts)).first->second;
}

std::vector<double> DragonflyAllocator::candidate_qualities(
    std::int64_t size) const {
  const auto& layouts = layouts_for(size);
  std::vector<double> qualities;
  qualities.reserve(layouts.size());
  for (const Layout& layout : layouts) qualities.push_back(layout.quality);
  return qualities;
}

std::optional<Partition> DragonflyAllocator::try_place(std::int64_t size,
                                                       std::size_t candidate,
                                                       std::int64_t job_id) {
  const auto& layouts = layouts_for(size);
  const Layout& layout = layouts.at(candidate);
  auto partition = place_in_containers(
      owners_, config_.h, layout.groups, layout.chassis_per_group,
      position_scoring(), job_id, "ch", "gr");
  if (partition) {
    partition->quality = layout.quality;
    partition->best_quality = layouts.front().quality;
  }
  return partition;
}

// ---------------------------------------------------------------------------
// FatTreeAllocator
// ---------------------------------------------------------------------------

FatTreeAllocator::FatTreeAllocator(topo::FatTreeConfig config)
    : config_(config) {
  if (config_.k < 2 || config_.k % 2 != 0) {
    throw std::invalid_argument("FatTreeAllocator: k must be even >= 2");
  }
  owners_ = OwnerArray(total_units());
}

std::string FatTreeAllocator::descriptor() const {
  return topo::TopologySpec::fat_tree(config_.k, config_.link_capacity).id();
}

std::int64_t FatTreeAllocator::total_units() const {
  return config_.k * (config_.k / 2);  // k pods x k/2 edge subtrees
}

std::vector<std::int64_t> FatTreeAllocator::pods_for(std::int64_t size) const {
  std::vector<std::int64_t> pods;
  if (size >= 1 && size <= total_units()) {
    for (std::int64_t p = 1; p <= config_.k; ++p) {
      if (size % p != 0) continue;
      if (size / p > config_.k / 2) continue;
      pods.push_back(p);
    }
  }
  return pods;
}

std::vector<double> FatTreeAllocator::candidate_qualities(
    std::int64_t size) const {
  return std::vector<double>(pods_for(size).size(), block_quality(size));
}

double FatTreeAllocator::block_quality(std::int64_t size) const {
  // Non-blocking Clos: the host bisection of any s-subtree block is
  // hosts / 2 * capacity regardless of how it spreads over pods — the
  // flatness Section 5 predicts for fat-tree machines.
  return static_cast<double>(size * (config_.k / 2)) / 2.0 *
         config_.link_capacity;
}

std::optional<Partition> FatTreeAllocator::try_place(std::int64_t size,
                                                     std::size_t candidate,
                                                     std::int64_t job_id) {
  const std::int64_t p = pods_for(size).at(candidate);
  auto partition = place_in_containers(owners_, config_.k / 2, p, size / p,
                                       position_scoring(), job_id, "st", "pod");
  if (partition) {
    partition->quality = block_quality(size);
    partition->best_quality = partition->quality;
  }
  return partition;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<PartitionAllocator> make_allocator(
    const bgq::Machine& machine, const PartitionOracle& oracle) {
  return std::make_unique<CuboidAllocator>(machine, oracle);
}

std::unique_ptr<PartitionAllocator> make_allocator(
    const topo::TopologySpec& spec, const PartitionOracle& oracle) {
  using Kind = topo::TopologySpec::Kind;
  switch (spec.kind()) {
    case Kind::kTorus: {
      if (spec.dims().size() != 4) {
        throw std::invalid_argument(
            "make_allocator: torus scheduling machines must be 4-D midplane "
            "grids, got " +
            spec.id());
      }
      if (spec.capacities().size() > 1) {
        // CuboidAllocator scores layouts with the unit-capacity closed form
        // (bgq::normalized_bisection); silently ignoring per-dimension
        // capacities would rank weighted-torus layouts wrongly.
        throw std::invalid_argument(
            "make_allocator: weighted tori have no capacity-aware cuboid "
            "allocation model yet, got " +
            spec.id());
      }
      const auto& d = spec.dims();
      return std::make_unique<CuboidAllocator>(
          bgq::Machine{spec.id(), bgq::Geometry(d[0], d[1], d[2], d[3])},
          oracle);
    }
    case Kind::kDragonfly:
      return std::make_unique<DragonflyAllocator>(spec.dragonfly_config(),
                                                  oracle);
    case Kind::kFatTree:
      return std::make_unique<FatTreeAllocator>(
          topo::FatTreeConfig{spec.dims()[0], spec.capacities()[0]});
    default:
      throw std::invalid_argument(
          "make_allocator: no allocation model for family " + spec.family());
  }
}

std::vector<std::int64_t> feasible_unit_sizes(
    const PartitionAllocator& allocator) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t size = 1; size <= allocator.total_units(); ++size) {
    if (!allocator.candidate_qualities(size).empty()) sizes.push_back(size);
  }
  return sizes;
}

}  // namespace npac::core
