#include "simnet/network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "simnet/traffic.hpp"
#include "support/hot.hpp"

namespace npac::simnet {

LinkLoads::LinkLoads(std::size_t num_channels) : loads_(num_channels, 0.0) {}

LinkLoads::LinkLoads(std::int64_t num_nodes, std::size_t num_dims)
    : num_nodes_(num_nodes),
      num_dims_(num_dims),
      loads_(static_cast<std::size_t>(num_nodes) * num_dims * 2, 0.0) {}

void LinkLoads::require_torus_shape() const {
  if (!torus_shaped()) {
    throw std::logic_error(
        "LinkLoads: (node, dim, direction) accessors require a torus-shaped "
        "channel layout");
  }
}

std::size_t LinkLoads::channel_index(topo::VertexId node, std::size_t dim,
                                     int direction) const {
  require_torus_shape();
  return (static_cast<std::size_t>(node) * num_dims_ + dim) * 2 +
         static_cast<std::size_t>(direction);
}

double& LinkLoads::at(topo::VertexId node, std::size_t dim, int direction) {
  return loads_[channel_index(node, dim, direction)];
}

double LinkLoads::at(topo::VertexId node, std::size_t dim,
                     int direction) const {
  return loads_[channel_index(node, dim, direction)];
}

double LinkLoads::max_load() const {
  // Four independent running maxima instead of one loop-carried chain.
  // Every load is non-negative and std::max keeps its first argument on a
  // tie or a NaN, so the result does not depend on the scan order.
  const double* const loads = loads_.data();
  const std::size_t size = loads_.size();
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    lanes[0] = std::max(lanes[0], loads[i]);
    lanes[1] = std::max(lanes[1], loads[i + 1]);
    lanes[2] = std::max(lanes[2], loads[i + 2]);
    lanes[3] = std::max(lanes[3], loads[i + 3]);
  }
  double best = std::max(std::max(lanes[0], lanes[1]),
                         std::max(lanes[2], lanes[3]));
  for (; i < size; ++i) best = std::max(best, loads[i]);
  return best;
}

double LinkLoads::total_load() const {
  double sum = 0.0;
  for (const double load : loads_) sum += load;
  return sum;
}

double LinkLoads::max_load_in_dim(std::size_t dim) const {
  require_torus_shape();
  double best = 0.0;
  for (topo::VertexId node = 0; node < num_nodes_; ++node) {
    best = std::max(best, at(node, dim, 0));
    best = std::max(best, at(node, dim, 1));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Network (shared completion-time model)
// ---------------------------------------------------------------------------

Network::Network(NetworkOptions options) : options_(options) {
  if (options_.link_bytes_per_second <= 0.0) {
    throw std::invalid_argument("Network: link bandwidth must be positive");
  }
}

LinkLoads Network::make_loads() const { return LinkLoads(num_channels()); }

double Network::channel_seconds(const LinkLoads& loads) const {
  return loads.max_load() / options_.link_bytes_per_second;
}

double Network::drain_seconds(const LinkLoads& loads,
                              double /*max_load*/) const {
  return channel_seconds(loads);
}

double Network::with_injection_cap(double seconds,
                                   std::span<const Flow> flows) const {
  if (options_.injection_bytes_per_second <= 0.0) return seconds;
  std::vector<double> injected(static_cast<std::size_t>(num_nodes()), 0.0);
  std::vector<double> ejected(static_cast<std::size_t>(num_nodes()), 0.0);
  for (const Flow& flow : flows) {
    if (flow.src == flow.dst) continue;
    injected[static_cast<std::size_t>(flow.src)] += flow.bytes;
    ejected[static_cast<std::size_t>(flow.dst)] += flow.bytes;
  }
  double peak = 0.0;
  for (std::size_t i = 0; i < injected.size(); ++i) {
    peak = std::max({peak, injected[i], ejected[i]});
  }
  return std::max(seconds, peak / options_.injection_bytes_per_second);
}

double Network::completion_seconds(const LinkLoads& loads,
                                   std::span<const Flow> flows) const {
  return with_injection_cap(channel_seconds(loads), flows);
}

double Network::completion_seconds(const LinkLoads& loads, double max_load,
                                   std::span<const Flow> flows) const {
  return with_injection_cap(drain_seconds(loads, max_load), flows);
}

double Network::exchange_seconds(const LinkLoads& loads, double max_load,
                                 const GroupExchange& exchange) const {
  const double time = drain_seconds(loads, max_load);
  const double cap = options_.injection_bytes_per_second;
  if (cap <= 0.0) return time;
  return std::max(time, exchange.peak_injection_bytes(num_nodes()) / cap);
}

double Network::completion_seconds(std::span<const Flow> flows) const {
  return completion_seconds(route_all(flows), flows);
}

LinkLoads Network::route_exchange(const GroupExchange& exchange) const {
  exchange.check(num_nodes());
  return route_all(exchange.flows());
}

LinkLoads Network::route_shift(const TorusShift& shift) const {
  shift.check(num_nodes());
  return route_all(shift.flows());
}

PhaseCost Network::price_flows(std::span<const Flow> flows) const {
  const LinkLoads loads = route_all(flows);
  PhaseCost cost;
  cost.max_load = loads.max_load();  // the one scan of the loads
  cost.seconds = completion_seconds(loads, cost.max_load, flows);
  for (const Flow& flow : flows) {
    if (flow.src != flow.dst) cost.total_bytes += flow.bytes;
  }
  return cost;
}

PhaseCost Network::price_shift(const TorusShift& shift) const {
  const LinkLoads loads = route_shift(shift);
  PhaseCost cost;
  cost.max_load = loads.max_load();
  cost.seconds = drain_seconds(loads, cost.max_load);
  if (options_.injection_bytes_per_second > 0.0) {
    cost.seconds = with_injection_cap(cost.seconds, shift.flows());
  }
  cost.total_bytes = shift.total_bytes();
  return cost;
}

PhaseCost Network::price_halo(double bytes) const {
  return price_flows(halo_flows(bytes));
}

// ---------------------------------------------------------------------------
// TorusNetwork
// ---------------------------------------------------------------------------

TorusNetwork::TorusNetwork(topo::Torus torus, NetworkOptions options)
    : TorusNetwork(
          topo::Torus(torus),
          std::vector<double>(torus.num_dims(), torus.link_capacity()),
          options) {}

TorusNetwork::TorusNetwork(topo::Torus torus,
                           std::vector<double> dim_capacities,
                           NetworkOptions options)
    : Network(options),
      torus_(std::move(torus)),
      capacities_(std::move(dim_capacities)) {
  if (capacities_.size() != torus_.num_dims()) {
    throw std::invalid_argument(
        "TorusNetwork: capacity count must match dimension count");
  }
  for (const double c : capacities_) {
    if (c <= 0.0) {
      throw std::invalid_argument("TorusNetwork: capacities must be positive");
    }
    if (c != 1.0) unit_capacities_ = false;
  }
}

double TorusNetwork::channel_seconds(const LinkLoads& loads) const {
  if (unit_capacities_) return Network::channel_seconds(loads);
  if (loads.num_dims() != torus_.num_dims() ||
      loads.num_channels() != num_channels()) {
    throw std::invalid_argument("channel_seconds: loads shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t dim = 0; dim < torus_.num_dims(); ++dim) {
    worst = std::max(worst, loads.max_load_in_dim(dim) / capacities_[dim]);
  }
  return worst / options().link_bytes_per_second;
}

double TorusNetwork::drain_seconds(const LinkLoads& loads,
                                   double max_load) const {
  if (unit_capacities_) return max_load / options().link_bytes_per_second;
  return channel_seconds(loads);
}

std::size_t TorusNetwork::num_channels() const {
  return static_cast<std::size_t>(torus_.num_vertices()) * torus_.num_dims() *
         2;
}

LinkLoads TorusNetwork::make_loads() const {
  return LinkLoads(torus_.num_vertices(), torus_.num_dims());
}

namespace {

/// Routing scratch shared across the flows of one route_all call: dimension
/// lengths and mixed-radix strides, flattened so the per-hop walk touches no
/// std::vector<Coord> and recomputes no index_of. Building it checks the
/// two limits the fast path relies on: at most kMaxRouteDims dimensions
/// (far past anything a Blue Gene/Q model builds) and vertex ids that fit
/// in uint32_t, so a flow's endpoints decompose in 32-bit arithmetic. A
/// torus past either limit is rejected, not routed on a slower path; no
/// LinkLoads for 2^32 vertices could be allocated anyway.
constexpr std::size_t kMaxRouteDims = 32;

struct RouteScratch {
  std::size_t num_dims = 0;
  std::int64_t num_vertices = 1;
  std::array<std::int64_t, kMaxRouteDims> dims{};
  std::array<std::int64_t, kMaxRouteDims> strides{};

  explicit RouteScratch(const topo::Torus& torus) {
    num_dims = torus.num_dims();
    if (num_dims > kMaxRouteDims) {
      throw std::invalid_argument("route_flow: too many torus dimensions");
    }
    if (torus.num_vertices() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "route_flow: torus has more than 2^32 - 1 vertices");
    }
    for (std::size_t i = 0; i < num_dims; ++i) {
      dims[i] = torus.dims()[i];
      strides[i] = num_vertices;
      num_vertices *= dims[i];
    }
  }
};

/// Counts one torus routing call of `flows` flows (node pairs, for a group
/// exchange) and, when tracing, opens its span in `span`.
void count_route_call(std::uint64_t flows,
                      std::optional<obs::ScopedTimer>& span) {
  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("net.torus.route_all").add(1);
    registry->counter("net.torus.flows").add(flows);
  }
  if (obs::tracing_enabled()) {
    span.emplace("torus.route_all flows=" + std::to_string(flows), "net");
  }
}

/// Routes one flow with incremental vertex indexing. Visits the same
/// channels in the same order with the same weights as the original
/// per-hop index_of walk, so accumulated loads are bit-identical.
/// NPAC_HOT: allocation-free by contract; all scratch is caller-owned
/// (enforced by npaclint rule H1).
NPAC_HOT void route_flow_fast(const RouteScratch& scratch, TieBreak tie_break,
                              const Flow& flow, double* loads) {
  if (flow.bytes < 0.0) {
    throw std::invalid_argument("route_flow: negative byte count");
  }
  if (flow.src < 0 || flow.src >= scratch.num_vertices || flow.dst < 0 ||
      flow.dst >= scratch.num_vertices) {
    throw std::out_of_range("route_flow: vertex out of range");
  }
  if (flow.bytes == 0.0) return;

  const std::size_t num_dims = scratch.num_dims;
  // The coordinates of dimensions dim and above; RouteScratch guarantees
  // they fit in 32 bits.
  auto src_rest = static_cast<std::uint32_t>(flow.src);
  auto dst_rest = static_cast<std::uint32_t>(flow.dst);
  std::int64_t node = flow.src;  // the walk's position, one dim at a time
  for (std::size_t dim = 0; dim < num_dims && src_rest != dst_rest; ++dim) {
    const auto length = static_cast<std::uint32_t>(scratch.dims[dim]);
    const std::int64_t from = src_rest % length;
    const std::int64_t target = dst_rest % length;
    src_rest /= length;
    dst_rest /= length;
    if (from == target) continue;

    const std::int64_t a = length;
    const std::int64_t stride = scratch.strides[dim];
    const std::int64_t forward =
        target > from ? target - from : target - from + a;
    const std::int64_t backward = a - forward;

    const auto walk = [&](int direction, std::int64_t hops, double weight) {
      std::int64_t cursor_node = node;
      std::int64_t coord = from;
      for (std::int64_t step = 0; step < hops; ++step) {
        loads[(static_cast<std::size_t>(cursor_node) * num_dims + dim) * 2 +
              static_cast<std::size_t>(direction)] += weight;
        if (direction == 0) {
          if (++coord == a) {
            coord = 0;
            cursor_node -= (a - 1) * stride;
          } else {
            cursor_node += stride;
          }
        } else {
          if (coord == 0) {
            coord = a - 1;
            cursor_node += (a - 1) * stride;
          } else {
            --coord;
            cursor_node -= stride;
          }
        }
      }
    };

    if (a == 2) {
      // The two directions name the same physical link; charge the
      // sender-side + channel.
      walk(0, 1, flow.bytes);
    } else if (forward < backward) {
      walk(0, forward, flow.bytes);
    } else if (backward < forward) {
      walk(1, backward, flow.bytes);
    } else {
      // Antipodal tie.
      if (tie_break == TieBreak::kSplit) {
        walk(0, forward, flow.bytes / 2.0);
        walk(1, backward, flow.bytes / 2.0);
      } else {
        walk(0, forward, flow.bytes);
      }
    }

    node += (target - from) * stride;
  }
}

/// Scratch of one route_exchange call: the difference slots of every ring
/// and the per-dimension weight tables of the group being added.
struct ExchangeScratch {
  /// Per dimension of length a > 1, per ring, per direction: 2a + 1 slots
  /// of integer half rank-pairs over the ring unrolled twice, so an arc
  /// never wraps and writes exactly two endpoints.
  std::vector<std::int64_t> diff;
  /// P: the group's ranks summed over the coordinates below the
  /// dimension, keyed (coordinates above, coordinate) = high * a + x.
  std::vector<std::int64_t> from_weight;
  /// Q: the group's ranks summed over the coordinates above the
  /// dimension, keyed (coordinates below, coordinate) = low * a + y.
  std::vector<std::int64_t> to_weight;
  std::vector<std::int64_t> from_keys;  // keys with nonzero P
  std::vector<std::int64_t> to_keys;    // keys with nonzero Q
  // The nonzero Q entries decoded once per dimension for the pair loop.
  std::vector<std::int64_t> to_coord;
  std::vector<std::int64_t> to_ring;
  std::vector<std::int64_t> to_ranks;
};

/// Adds one group's arcs, dimension by dimension, to the difference slots.
/// Pair (a, b) crosses dimension d on the ring of b's coordinates below d
/// and a's above d, from a's coordinate x to b's y, so the ring's pair
/// weights are the rank-1 product P(x) * Q(y): one arc per nonzero (P, Q)
/// entry pair instead of one walk per node pair. Returns the endpoints
/// written. NPAC_HOT: every buffer is caller-owned (npaclint rule H1).
NPAC_HOT std::int64_t add_group_arcs(
    const RouteScratch& shape, TieBreak tie_break,
    const GroupExchange::Member* members, std::size_t count,
    const std::int64_t* dim_offset, ExchangeScratch& s) {
  std::int64_t endpoints = 0;
  for (std::size_t dim = 0; dim < shape.num_dims; ++dim) {
    const std::int64_t a = shape.dims[dim];
    if (a == 1) continue;
    const std::int64_t stride = shape.strides[dim];
    std::size_t num_from = 0;
    std::size_t num_to = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t v = members[i].node;
      const std::int64_t x = (v / stride) % a;
      const std::int64_t from = v / (stride * a) * a + x;
      const std::int64_t to = v % stride * a + x;
      if (s.from_weight[static_cast<std::size_t>(from)] == 0) {
        s.from_keys[num_from++] = from;
      }
      if (s.to_weight[static_cast<std::size_t>(to)] == 0) {
        s.to_keys[num_to++] = to;
      }
      s.from_weight[static_cast<std::size_t>(from)] += members[i].ranks;
      s.to_weight[static_cast<std::size_t>(to)] += members[i].ranks;
    }
    const std::int64_t slots = 2 * a + 1;
    for (std::size_t j = 0; j < num_to; ++j) {
      const std::int64_t key = s.to_keys[j];
      s.to_coord[j] = key % a;
      s.to_ring[j] = key / a * 2 * slots;  // ring index low + high * stride
      s.to_ranks[j] = s.to_weight[static_cast<std::size_t>(key)];
      s.to_weight[static_cast<std::size_t>(key)] = 0;
    }
    for (std::size_t i = 0; i < num_from; ++i) {
      const std::int64_t key = s.from_keys[i];
      const std::int64_t x = key % a;
      const std::int64_t from_ranks = s.from_weight[static_cast<std::size_t>(key)];
      s.from_weight[static_cast<std::size_t>(key)] = 0;
      std::int64_t* const high_rings =
          s.diff.data() + dim_offset[dim] + key / a * stride * 2 * slots;
      for (std::size_t j = 0; j < num_to; ++j) {
        const std::int64_t y = s.to_coord[j];
        if (y == x) continue;
        // Two half-units per rank pair on a single path.
        const std::int64_t w = 2 * from_ranks * s.to_ranks[j];
        std::int64_t* const plus = high_rings + s.to_ring[j];
        std::int64_t* const minus = plus + slots;
        const std::int64_t forward = y > x ? y - x : y - x + a;
        const std::int64_t backward = a - forward;
        // + arc: channels x .. x+forward-1; - arc: x .. x-backward+1,
        // unrolled one ring length up so the slot indices stay positive.
        if (a == 2 || forward < backward ||
            (forward == backward && tie_break == TieBreak::kPositive)) {
          plus[x] += w;
          plus[x + forward] -= w;
          endpoints += 2;
        } else if (backward < forward) {
          minus[x + a - backward + 1] += w;
          minus[x + a + 1] -= w;
          endpoints += 2;
        } else {
          plus[x] += w / 2;
          plus[x + forward] -= w / 2;
          minus[x + a - backward + 1] += w / 2;
          minus[x + a + 1] -= w / 2;
          endpoints += 4;
        }
      }
    }
  }
  return endpoints;
}

/// Prefix-sums every ring's difference slots and writes the channel loads:
/// channel q of a ring carries the unrolled counts at q and q + a, in half
/// rank-pairs of `half_pair_bytes` each. NPAC_HOT: allocation-free.
NPAC_HOT void finish_rings(const RouteScratch& shape,
                           const std::int64_t* dim_offset,
                           std::int64_t* diff, double half_pair_bytes,
                           double* loads) {
  const std::size_t num_dims = shape.num_dims;
  for (std::size_t dim = 0; dim < num_dims; ++dim) {
    const std::int64_t a = shape.dims[dim];
    if (a == 1) continue;
    const std::int64_t stride = shape.strides[dim];
    const std::int64_t slots = 2 * a + 1;
    const std::int64_t rings = shape.num_vertices / a;
    for (std::int64_t ring = 0; ring < rings; ++ring) {
      const std::int64_t low = ring % stride;
      const std::int64_t first = low + (ring / stride) * stride * a;
      for (std::size_t direction = 0; direction < 2; ++direction) {
        std::int64_t* const slot =
            diff + dim_offset[dim] + (ring * 2 + static_cast<std::int64_t>(direction)) * slots;
        std::int64_t run = 0;
        for (std::int64_t u = 0; u < 2 * a; ++u) {
          run += slot[u];
          slot[u] = run;
        }
        for (std::int64_t q = 0; q < a; ++q) {
          const auto node = static_cast<std::size_t>(first + q * stride);
          loads[(node * num_dims + dim) * 2 + direction] =
              static_cast<double>(slot[q] + slot[q + a]) * half_pair_bytes;
        }
      }
    }
  }
}

}  // namespace

void TorusNetwork::route_flow(const Flow& flow, LinkLoads& loads) const {
  const RouteScratch scratch(torus_);
  if (loads.num_dims() != torus_.num_dims() ||
      loads.num_channels() != num_channels()) {
    throw std::invalid_argument("route_flow: loads shape mismatch");
  }
  route_flow_fast(scratch, options().tie_break, flow, loads.raw().data());
}

LinkLoads TorusNetwork::route_all(std::span<const Flow> flows) const {
  const RouteScratch scratch(torus_);  // checks the size limits first
  LinkLoads total(torus_.num_vertices(), torus_.num_dims());

  std::optional<obs::ScopedTimer> span;
  count_route_call(flows.size(), span);
  const TieBreak tie_break = options().tie_break;
  double* const loads = total.raw().data();
  for (const Flow& flow : flows) {
    route_flow_fast(scratch, tie_break, flow, loads);
  }
  return total;
}

LinkLoads TorusNetwork::route_exchange(const GroupExchange& exchange) const {
  const RouteScratch shape(torus_);  // checks the size limits first
  const std::int64_t n = torus_.num_vertices();
  exchange.check(n);
  const std::int64_t node_pairs = exchange.node_pairs();
  LinkLoads total(n, torus_.num_dims());

  std::optional<obs::ScopedTimer> span;
  count_route_call(static_cast<std::uint64_t>(node_pairs), span);

  std::array<std::int64_t, kMaxRouteDims> dim_offset{};
  std::int64_t slots = 0;
  for (std::size_t dim = 0; dim < shape.num_dims; ++dim) {
    dim_offset[dim] = slots;
    const std::int64_t a = shape.dims[dim];
    if (a > 1) slots += n / a * 2 * (2 * a + 1);
  }
  static thread_local ExchangeScratch scratch;
  scratch.diff.assign(static_cast<std::size_t>(slots), 0);
  for (std::vector<std::int64_t>* table :
       {&scratch.from_weight, &scratch.to_weight, &scratch.from_keys,
        &scratch.to_keys, &scratch.to_coord, &scratch.to_ring,
        &scratch.to_ranks}) {
    // The weight tables are left zeroed by every call, so growing them is
    // the only initialisation they need.
    if (table->size() < static_cast<std::size_t>(n)) {
      table->resize(static_cast<std::size_t>(n), 0);
    }
  }

  std::int64_t endpoints = 0;
  for (std::size_t g = 0; g < exchange.group_ends.size(); ++g) {
    const std::size_t begin = g == 0 ? 0 : exchange.group_ends[g - 1];
    endpoints += add_group_arcs(shape, options().tie_break,
                                exchange.members.data() + begin,
                                exchange.group_ends[g] - begin,
                                dim_offset.data(), scratch);
  }
  finish_rings(shape, dim_offset.data(), scratch.diff.data(),
               exchange.bytes_per_pair * 0.5, total.raw().data());
  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("net.torus.ring_updates")
        .add(static_cast<std::uint64_t>(endpoints));
  }
  return total;
}

LinkLoads TorusNetwork::route_shift(const TorusShift& shift) const {
  const RouteScratch shape(torus_);  // checks the size limits first
  if (shift.dims != torus_.dims()) {
    throw std::invalid_argument("route_shift: shift dims do not match the torus");
  }
  shift.check(shape.num_vertices);
  const std::size_t num_dims = shape.num_dims;
  LinkLoads total(shape.num_vertices, num_dims);

  std::optional<obs::ScopedTimer> span;
  count_route_call(static_cast<std::uint64_t>(shift.num_flows()), span);
  // route_flow_fast skips a zero-byte flow, so -0.0 leaves +0.0 loads too.
  if (shift.bytes == 0.0) return total;

  // Per (dimension, direction) class: the one addend its channels take and
  // how many times each takes it. On the ring of dimension d fixed by the
  // destination's coordinates below d and the source's above d, an offset
  // of x != 0 in d routes one flow from every coordinate, each over the
  // same hops channels in the same direction with the same weight, as
  // route_flow_fast chooses them. So every channel of the class takes
  // `hops` addends per offset.
  struct ClassLoad {
    std::int64_t hops = 0;
    double weight = 0.0;
  };
  std::array<ClassLoad, 2 * kMaxRouteDims> classes{};
  const auto add = [&](std::size_t dim, int direction, std::int64_t hops,
                       double weight) {
    ClassLoad& c = classes[dim * 2 + static_cast<std::size_t>(direction)];
    if (c.hops > 0 &&
        std::bit_cast<std::uint64_t>(c.weight) !=
            std::bit_cast<std::uint64_t>(weight)) {
      // Mixed addends would make each channel's sum depend on flow order.
      throw std::invalid_argument(
          "route_shift: a channel class would take addends of two values");
    }
    c.hops += hops;
    c.weight = weight;
  };
  const double bytes = shift.bytes;
  for (const topo::Coord& offset : shift.offsets) {
    for (std::size_t dim = 0; dim < num_dims; ++dim) {
      const std::int64_t forward = offset[dim];
      if (forward == 0) continue;
      const std::int64_t backward = shape.dims[dim] - forward;
      if (shape.dims[dim] == 2) {
        add(dim, 0, 1, bytes);
      } else if (forward < backward) {
        add(dim, 0, forward, bytes);
      } else if (backward < forward) {
        add(dim, 1, backward, bytes);
      } else if (options().tie_break == TieBreak::kSplit) {
        add(dim, 0, forward, bytes / 2.0);
        add(dim, 1, backward, bytes / 2.0);
      } else {
        add(dim, 0, forward, bytes);
      }
    }
  }

  // A node's channels are contiguous, (dim, direction) within node: fill
  // one node's row and copy it to every node.
  std::array<double, 2 * kMaxRouteDims> row{};
  for (std::size_t c = 0; c < 2 * num_dims; ++c) {
    row[c] = repeated_sum(classes[c].weight, classes[c].hops);
  }
  double* loads = total.raw().data();
  for (std::int64_t node = 0; node < shape.num_vertices; ++node) {
    loads = std::copy_n(row.data(), 2 * num_dims, loads);
  }
  return total;
}

PhaseCost TorusNetwork::price_halo(double bytes) const {
  return price_shift(TorusShift::halo(torus_, bytes));
}

std::int64_t TorusNetwork::path_hops(const Flow& flow) const {
  return torus_.distance(torus_.coord_of(flow.src), torus_.coord_of(flow.dst));
}

std::vector<Flow> TorusNetwork::halo_flows(double bytes) const {
  return nearest_neighbor_halo(torus_, bytes);
}

}  // namespace npac::simnet
