#include "core/allocator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "support/decimal.hpp"
#include "support/hot.hpp"

namespace npac::core {

using support::append_int;
using support::kMaxIntChars;
using support::put_int;

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

OwnerArray::OwnerArray(std::int64_t units)
    : units_(units),
      occupied_(static_cast<std::size_t>((units + 63) / 64), 0),
      free_(units) {}

OwnerArray::Word* OwnerArray::job_mask(std::int64_t job_id) {
  const std::size_t words = occupied_.size();
  // Newest first: the units of one multi-unit take land in the entry the
  // take's first unit appended.
  for (std::size_t i = jobs_.size(); i-- > 0;) {
    if (jobs_[i] == job_id) return masks_.data() + i * words;
  }
  jobs_.push_back(job_id);
  masks_.resize(masks_.size() + words, 0);
  return masks_.data() + (jobs_.size() - 1) * words;
}

void OwnerArray::take(std::size_t unit, std::int64_t job_id) {
  const Word bit = Word{1} << (unit % 64);
  occupied_[unit / 64] |= bit;
  job_mask(job_id)[unit / 64] |= bit;
  --free_;
}

void OwnerArray::take(const Word* mask, std::int64_t job_id) {
  Word* owned = job_mask(job_id);
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    occupied_[w] |= mask[w];
    owned[w] |= mask[w];
    free_ -= std::popcount(mask[w]);
  }
}

std::int64_t OwnerArray::release(std::int64_t job_id) {
  const std::size_t words = occupied_.size();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i] != job_id) continue;
    Word* owned = masks_.data() + i * words;
    std::int64_t freed = 0;
    for (std::size_t w = 0; w < words; ++w) {
      occupied_[w] &= ~owned[w];
      freed += std::popcount(owned[w]);
    }
    // Swap-remove: entry order carries no meaning.
    const std::size_t last = jobs_.size() - 1;
    jobs_[i] = jobs_[last];
    std::copy_n(masks_.data() + last * words, words, owned);
    jobs_.pop_back();
    masks_.resize(last * words);
    free_ += freed;
    return freed;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Placement / MidplaneGrid (torus-family layout)
// ---------------------------------------------------------------------------

std::int64_t Placement::midplanes() const {
  return extent[0] * extent[1] * extent[2] * extent[3];
}

bgq::Geometry Placement::geometry() const { return bgq::Geometry(extent); }

std::string Placement::to_string() const {
  // "AxBxCxD@(a,b,c,d)": eight integers and nine separator bytes.
  char buffer[8 * kMaxIntChars + 9];
  char* end = buffer;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) *end++ = 'x';
    end = put_int(end, extent[i]);
  }
  *end++ = '@';
  *end++ = '(';
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) *end++ = ',';
    end = put_int(end, origin[i]);
  }
  *end++ = ')';
  return std::string(buffer, end);
}

MidplaneGrid::MidplaneGrid(bgq::Machine machine)
    : machine_(std::move(machine)),
      dims_(machine_.shape.dims()),
      owners_(machine_.midplanes()) {}

void MidplaneGrid::cell_mask(const Placement& placement, Word* mask) const {
  std::array<std::int64_t, 4> cell{};
  for (std::int64_t a = 0; a < placement.extent[0]; ++a) {
    cell[0] = (placement.origin[0] + a) % dims_[0];
    for (std::int64_t b = 0; b < placement.extent[1]; ++b) {
      cell[1] = (placement.origin[1] + b) % dims_[1];
      for (std::int64_t c = 0; c < placement.extent[2]; ++c) {
        cell[2] = (placement.origin[2] + c) % dims_[2];
        for (std::int64_t d = 0; d < placement.extent[3]; ++d) {
          cell[3] = (placement.origin[3] + d) % dims_[3];
          const auto index = static_cast<std::size_t>(
              ((cell[0] * dims_[1] + cell[1]) * dims_[2] + cell[2]) * dims_[3] +
              cell[3]);
          mask[index / 64] |= Word{1} << (index % 64);
        }
      }
    }
  }
}

bool MidplaneGrid::fits(const Placement& placement) const {
  for (std::size_t i = 0; i < 4; ++i) {
    if (placement.extent[i] < 1 || placement.extent[i] > dims_[i]) return false;
    if (placement.origin[i] < 0 || placement.origin[i] >= dims_[i]) return false;
  }
  std::vector<Word> mask(owners_.words(), 0);
  cell_mask(placement, mask.data());
  for (std::size_t w = 0; w < mask.size(); ++w) {
    if ((mask[w] & owners_.occupied()[w]) != 0) return false;
  }
  return true;
}

void MidplaneGrid::occupy(const Placement& placement, std::int64_t job_id) {
  if (job_id < 0) {
    throw std::invalid_argument("MidplaneGrid::occupy: job id must be >= 0");
  }
  if (!fits(placement)) {
    throw std::invalid_argument(
        "MidplaneGrid::occupy: placement overlaps or is out of range");
  }
  std::vector<Word> mask(owners_.words(), 0);
  cell_mask(placement, mask.data());
  owners_.take(mask.data(), job_id);
}

void MidplaneGrid::occupy(const ShapeScan& scan, std::size_t index,
                          std::int64_t job_id) {
  if (job_id < 0) {
    throw std::invalid_argument("MidplaneGrid::occupy: job id must be >= 0");
  }
  owners_.take(scan.cells.data() + index * owners_.words(), job_id);
}

MidplaneGrid::ShapeScan MidplaneGrid::build_scan(
    const std::array<std::int64_t, 4>& ascending) const {
  // A cuboid is the intersection of one cyclic slab per axis, so every
  // mask is a few word ANDs of per-axis plane masks: planes[i][v] holds
  // the cells whose axis-i coordinate is v.
  const std::size_t words = owners_.words();
  std::array<std::vector<Word>, 4> planes;
  for (std::size_t i = 0; i < 4; ++i) {
    planes[i].assign(static_cast<std::size_t>(dims_[i]) * words, 0);
  }
  for (std::int64_t index = 0; index < owners_.size(); ++index) {
    std::int64_t rest = index;
    for (std::size_t i = 4; i-- > 0;) {
      const auto v = static_cast<std::size_t>(rest % dims_[i]);
      rest /= dims_[i];
      planes[i][v * words + static_cast<std::size_t>(index / 64)] |=
          Word{1} << (index % 64);
    }
  }
  const auto plane = [&](std::size_t axis, std::int64_t v) {
    return planes[axis].data() +
           static_cast<std::size_t>((v % dims_[axis] + dims_[axis]) %
                                    dims_[axis]) *
               words;
  };

  ShapeScan scan;
  std::array<std::int64_t, 4> extent = ascending;
  std::array<std::vector<Word>, 4> slabs;  // slabs[i][o]: axis-i interval
  do {
    bool extent_fits = true;
    for (std::size_t i = 0; i < 4; ++i) {
      if (extent[i] > dims_[i]) extent_fits = false;
    }
    if (!extent_fits) continue;
    const auto extent_index = static_cast<std::uint32_t>(scan.extents.size());
    scan.extents.push_back(extent);
    for (std::size_t i = 0; i < 4; ++i) {
      slabs[i].assign(static_cast<std::size_t>(dims_[i]) * words, 0);
      for (std::int64_t o = 0; o < dims_[i]; ++o) {
        for (std::int64_t k = 0; k < extent[i]; ++k) {
          const Word* p = plane(i, o + k);
          for (std::size_t w = 0; w < words; ++w) {
            slabs[i][static_cast<std::size_t>(o) * words + w] |= p[w];
          }
        }
      }
    }
    std::array<std::int64_t, 4> o{};
    std::uint32_t origin_index = 0;
    for (o[0] = 0; o[0] < dims_[0]; ++o[0]) {
      for (o[1] = 0; o[1] < dims_[1]; ++o[1]) {
        for (o[2] = 0; o[2] < dims_[2]; ++o[2]) {
          for (o[3] = 0; o[3] < dims_[3]; ++o[3], ++origin_index) {
            bool repeat = false;  // same cells as the origin-0 placement
            for (std::size_t i = 0; i < 4; ++i) {
              if (extent[i] == dims_[i] && o[i] != 0) repeat = true;
            }
            if (repeat) continue;
            scan.entries.push_back({origin_index, extent_index});
            std::array<const Word*, 4> slab{};  // this origin's intervals
            for (std::size_t i = 0; i < 4; ++i) {
              slab[i] = slabs[i].data() + static_cast<std::size_t>(o[i]) * words;
            }
            for (std::size_t w = 0; w < words; ++w) {
              scan.cells.push_back(slab[0][w] & slab[1][w] & slab[2][w] &
                                   slab[3][w]);
            }
            // Halo cells sit one step outside along exactly one axis (the
            // other coordinates inside), so the axes' halos are disjoint.
            // An axis the cuboid spans fully has no outside.
            const std::size_t halo_at = scan.halos.size();
            scan.halos.resize(halo_at + 2 * words, 0);
            for (std::size_t d = 0; d < 4; ++d) {
              if (extent[d] == dims_[d]) continue;
              const Word* below = plane(d, o[d] - 1);
              const Word* above = plane(d, o[d] + extent[d]);
              for (std::size_t w = 0; w < words; ++w) {
                Word cross = ~Word{0};
                for (std::size_t i = 0; i < 4; ++i) {
                  if (i != d) cross &= slab[i][w];
                }
                scan.halos[halo_at + w] |= cross & (below[w] | above[w]);
                // below == above exactly when dims_[d] == extent[d] + 1.
                scan.halos[halo_at + words + w] |= cross & below[w] & above[w];
              }
            }
          }
        }
      }
    }
  } while (std::next_permutation(extent.begin(), extent.end()));
  return scan;
}

const MidplaneGrid::ShapeScan& MidplaneGrid::shape_scan(
    const bgq::Geometry& shape) const {
  std::array<std::int64_t, 4> ascending = shape.dims();
  std::sort(ascending.begin(), ascending.end());
  const auto it = scans_.find(ascending);
  if (it != scans_.end()) return it->second;
  return scans_.emplace(ascending, build_scan(ascending)).first->second;
}

namespace {

/// The torus placement scan over precomputed masks (MidplaneGrid::
/// ShapeScan layout): the index of the first entry whose cells miss
/// every occupied bit, or under `best_fit` of the first such entry with
/// the highest boundary contact popcount(occupied & halo1) +
/// popcount(occupied & halo2); `count` when none fits.
/// NPAC_HOT: allocation-free by contract; every array is caller-owned.
NPAC_HOT std::size_t scan_masks(const OwnerArray::Word* occupied,
                                std::size_t words,
                                const OwnerArray::Word* cells,
                                const OwnerArray::Word* halos,
                                std::size_t count, bool best_fit) {
  std::size_t best = count;
  std::int64_t best_contact = -1;
  for (std::size_t i = 0; i < count; ++i) {
    const OwnerArray::Word* cell = cells + i * words;
    OwnerArray::Word overlap = 0;
    for (std::size_t w = 0; w < words; ++w) overlap |= occupied[w] & cell[w];
    if (overlap != 0) continue;
    if (!best_fit) return i;
    const OwnerArray::Word* halo = halos + 2 * i * words;
    std::int64_t contact = 0;
    for (std::size_t w = 0; w < words; ++w) {
      contact += std::popcount(occupied[w] & halo[w]) +
                 std::popcount(occupied[w] & halo[words + w]);
    }
    if (contact > best_contact) {
      best_contact = contact;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::optional<std::size_t> MidplaneGrid::find_in(
    const ShapeScan& scan, PositionScoring scoring) const {
  const std::size_t index =
      scan_masks(owners_.occupied(), owners_.words(), scan.cells.data(),
                 scan.halos.data(), scan.entries.size(),
                 scoring == PositionScoring::kBestFit);
  if (index == scan.entries.size()) return std::nullopt;
  return index;
}

Placement MidplaneGrid::placement(const ShapeScan& scan,
                                  std::size_t index) const {
  const ShapeScan::Entry& entry = scan.entries[index];
  Placement placement;
  placement.extent = scan.extents[entry.extent];
  std::int64_t rest = entry.origin;
  for (std::size_t i = 4; i-- > 0;) {
    placement.origin[i] = rest % dims_[i];
    rest /= dims_[i];
  }
  return placement;
}

std::optional<Placement> MidplaneGrid::find_placement(
    const bgq::Geometry& shape, PositionScoring scoring) const {
  const ShapeScan& scan = shape_scan(shape);
  const auto index = find_in(scan, scoring);
  if (!index) return std::nullopt;
  return placement(scan, *index);
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

CuboidAllocator::SizeClasses& CuboidAllocator::classes_for(
    std::int64_t size) const {
  const auto it = classes_.find(size);
  if (it != classes_.end()) return it->second;
  SizeClasses classes;
  classes.geometries = oracle_->geometries(machine(), size);
  for (const bgq::Geometry& shape : *classes.geometries) {
    classes.qualities.push_back(
        static_cast<double>(bgq::normalized_bisection(shape)));
  }
  classes.scans.assign(classes.geometries->size(), nullptr);
  return classes_.emplace(size, std::move(classes)).first->second;
}

std::vector<double> CuboidAllocator::candidate_qualities(
    std::int64_t size) const {
  return classes_for(size).qualities;
}

std::optional<Partition> CuboidAllocator::try_place(std::int64_t size,
                                                    std::size_t candidate,
                                                    std::int64_t job_id) {
  SizeClasses& classes = classes_for(size);
  const MidplaneGrid::ShapeScan*& scan = classes.scans.at(candidate);
  if (scan == nullptr) scan = &grid_.shape_scan((*classes.geometries)[candidate]);
  const auto index = grid_.find_in(*scan, position_scoring());
  if (!index) return std::nullopt;
  grid_.occupy(*scan, *index, job_id);
  Partition partition;
  partition.cuboid = grid_.placement(*scan, *index);
  partition.label = partition.cuboid->to_string();
  partition.units = size;
  partition.quality = classes.qualities[candidate];
  partition.best_quality = classes.qualities.front();
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
/// `qualifying` is the caller's scratch, so a placement allocates only its
/// label.
std::optional<Partition> place_in_containers(
    OwnerArray& owners, std::int64_t container_size, std::int64_t blocks,
    std::int64_t per_block, PositionScoring scoring, std::int64_t job_id,
    const char* unit, const char* container,
    std::vector<std::pair<std::int64_t, std::int64_t>>& qualifying) {
  const std::int64_t containers = owners.size() / container_size;
  const auto slot = [container_size](std::int64_t c, std::int64_t u) {
    return static_cast<std::size_t>(c * container_size + u);
  };
  qualifying.clear();  // (free, id)
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
  // Appended in place, so a short label (most are) stays in the string's
  // inline buffer.
  Partition partition;
  std::string& label = partition.label;
  append_int(label, per_block);
  label += unit;
  label += " x ";
  append_int(label, blocks);
  label += container;
  label += "@{";
  for (std::size_t i = 0; i < qualifying.size(); ++i) {
    const std::int64_t c = qualifying[i].second;
    std::int64_t taken = 0;
    for (std::int64_t u = 0; u < container_size && taken < per_block; ++u) {
      if (owners.is_free(slot(c, u))) {
        owners.take(slot(c, u), job_id);
        ++taken;
      }
    }
    if (i > 0) label += ',';
    append_int(label, c);
  }
  label += '}';
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
      position_scoring(), job_id, "ch", "gr", qualifying_);
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

bool FatTreeAllocator::spans(std::int64_t size, std::int64_t pods) const {
  return size >= 1 && size <= total_units() && size % pods == 0 &&
         size / pods <= config_.k / 2;
}

std::vector<std::int64_t> FatTreeAllocator::pods_for(std::int64_t size) const {
  std::vector<std::int64_t> pods;
  for (std::int64_t p = 1; p <= config_.k; ++p) {
    if (spans(size, p)) pods.push_back(p);
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
  // The pods_for(size) entry at `candidate`, without building the list.
  std::int64_t p = 0;
  for (std::size_t seen = 0; seen <= candidate;) {
    if (++p > config_.k) {
      throw std::out_of_range("FatTreeAllocator::try_place: no layout class " +
                              std::to_string(candidate) + " for size " +
                              std::to_string(size));
    }
    if (spans(size, p)) ++seen;
  }
  auto partition =
      place_in_containers(owners_, config_.k / 2, p, size / p,
                          position_scoring(), job_id, "st", "pod", qualifying_);
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
