#include "simnet/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sweep/pool.hpp"

namespace npac::simnet {

namespace {

/// True when the offset moves a node: it is nonzero in some dimension.
bool moves(const topo::Coord& offset) {
  return std::any_of(offset.begin(), offset.end(),
                     [](std::int64_t x) { return x != 0; });
}

}  // namespace

TorusShift TorusShift::halo(const topo::Torus& torus, double bytes) {
  TorusShift shift{torus.dims(), {}, bytes};
  const std::size_t num_dims = torus.num_dims();
  for (std::size_t dim = 0; dim < num_dims; ++dim) {
    const std::int64_t a = torus.dims()[dim];
    if (a == 1) continue;
    shift.offsets.emplace_back(num_dims, 0);
    shift.offsets.back()[dim] = 1;
    if (a == 2) continue;
    shift.offsets.emplace_back(num_dims, 0);
    shift.offsets.back()[dim] = a - 1;
  }
  return shift;
}

TorusShift TorusShift::antipodal(const topo::Torus& torus, double bytes) {
  TorusShift shift{torus.dims(), {topo::Coord(torus.num_dims())}, bytes};
  for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
    shift.offsets[0][dim] = torus.dims()[dim] / 2;
  }
  return shift;
}

void TorusShift::check(std::int64_t num_nodes) const {
  if (bytes < 0.0) {
    throw std::invalid_argument("TorusShift: negative byte count");
  }
  std::int64_t product = 1;
  for (const std::int64_t a : dims) {
    if (a < 1 || __builtin_mul_overflow(product, a, &product)) {
      throw std::invalid_argument(
          "TorusShift: dimension lengths must be positive");
    }
  }
  if (product != num_nodes) {
    throw std::invalid_argument("TorusShift: node count mismatch");
  }
  for (const topo::Coord& offset : offsets) {
    if (offset.size() != dims.size()) {
      throw std::invalid_argument(
          "TorusShift: an offset needs one entry per dimension");
    }
    for (std::size_t dim = 0; dim < dims.size(); ++dim) {
      if (offset[dim] < 0 || offset[dim] >= dims[dim]) {
        throw std::invalid_argument("TorusShift: offset out of range");
      }
    }
  }
}

std::int64_t TorusShift::num_flows() const {
  std::int64_t nodes = 1;
  for (const std::int64_t a : dims) nodes *= a;
  return nodes * std::count_if(offsets.begin(), offsets.end(), moves);
}

double TorusShift::total_bytes() const {
  return repeated_sum(bytes, num_flows());
}

std::vector<Flow> TorusShift::flows() const {
  std::vector<Flow> result;
  result.reserve(static_cast<std::size_t>(num_flows()));
  std::vector<topo::Coord> moving;
  std::copy_if(offsets.begin(), offsets.end(), std::back_inserter(moving),
               moves);
  if (moving.empty()) return result;
  // One odometer over the coordinates c (coordinate 0 fastest, as vertex
  // ids count) carries, per offset, the peer's coordinates (c + delta) mod
  // a and its id. Each step of v advances every carried dimension by one:
  // the peer id moves by +stride, or by -(a - 1) * stride where its
  // coordinate wraps.
  const std::size_t num_dims = dims.size();
  std::int64_t nodes = 1;
  std::vector<std::int64_t> peer(moving.size(), 0);
  for (std::size_t dim = 0; dim < num_dims; ++dim) {
    for (std::size_t k = 0; k < moving.size(); ++k) {
      peer[k] += moving[k][dim] * nodes;
    }
    nodes *= dims[dim];
  }
  topo::Coord c(num_dims, 0);
  for (topo::VertexId v = 0; v < nodes; ++v) {
    for (const std::int64_t dst : peer) result.push_back({v, dst, bytes});
    std::int64_t stride = 1;
    for (std::size_t dim = 0; dim < num_dims; ++dim) {
      const std::int64_t a = dims[dim];
      for (std::size_t k = 0; k < moving.size(); ++k) {
        if (++moving[k][dim] == a) {
          moving[k][dim] = 0;
          peer[k] -= (a - 1) * stride;
        } else {
          peer[k] += stride;
        }
      }
      if (++c[dim] != a) break;
      c[dim] = 0;
      stride *= a;
    }
  }
  return result;
}

double repeated_sum(double addend, std::int64_t count) {
  if (count <= 0 || addend == 0.0) return 0.0;  // 0.0 + -0.0 reads +0.0
  if (std::isfinite(addend)) {
    // |addend| = m * 2^e with m an odd integer below 2^53. Every partial
    // sum i * addend is then (i * m) * 2^e, exact while count * m < 2^53
    // and the product does not overflow, so the loop below would return
    // the exact product, which is what the multiplication rounds to.
    int exponent = 0;
    auto significand = static_cast<std::uint64_t>(
        std::ldexp(std::fabs(std::frexp(addend, &exponent)), 53));
    significand >>= std::countr_zero(significand);
    std::uint64_t bound = 0;
    if (!__builtin_mul_overflow(significand,
                                static_cast<std::uint64_t>(count), &bound) &&
        bound < (std::uint64_t{1} << 53)) {
      const double product = addend * static_cast<double>(count);
      if (std::isfinite(product)) return product;
    }
  }
  double sum = 0.0;
  for (std::int64_t i = 0; i < count; ++i) sum += addend;
  return sum;
}

std::vector<Flow> furthest_node_pairing(const topo::Torus& torus,
                                        double bytes) {
  return TorusShift::antipodal(torus, bytes).flows();
}

std::vector<Flow> furthest_node_pairing(const topo::Graph& graph,
                                        double bytes) {
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(graph.num_vertices()));
  // One BFS scratch reused across all sources: after the first source sizes
  // it, the n BFS sweeps below are allocation-free.
  topo::BfsScratch scratch;
  for (topo::VertexId v = 0; v < graph.num_vertices(); ++v) {
    // The eccentricity returned by the BFS is the pairing distance; the
    // peer is the lowest-id vertex attaining it (identical to the old
    // first-strict-improvement scan).
    const std::int64_t best = graph.bfs_distances_into(v, scratch);
    topo::VertexId peer = v;
    if (best > 0) {
      // The frontier records vertices in discovery order, so the furthest
      // level is a contiguous tail slice; the lowest id in that slice is
      // exactly the vertex the old full-array scan would have found first.
      std::size_t begin = scratch.reached;
      while (begin > 0 &&
             scratch.dist[static_cast<std::size_t>(
                 scratch.frontier[begin - 1])] == best) {
        --begin;
      }
      std::int32_t lowest = scratch.frontier[begin];
      for (std::size_t i = begin + 1; i < scratch.reached; ++i) {
        lowest = std::min(lowest, scratch.frontier[i]);
      }
      peer = lowest;
    }
    if (peer != v) flows.push_back({v, peer, bytes});
  }
  return flows;
}

std::vector<Flow> random_permutation(const topo::Torus& torus, double bytes,
                                     std::uint64_t seed) {
  const std::int64_t n = torus.num_vertices();
  std::vector<topo::VertexId> destination(static_cast<std::size_t>(n));
  std::iota(destination.begin(), destination.end(), topo::VertexId{0});
  // Inline Fisher-Yates on task_seed draws, as RankMap's kRandom: the
  // permutation std::shuffle draws differs between standard libraries.
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        sweep::task_seed(seed, i) % static_cast<std::uint64_t>(i + 1));
    std::swap(destination[static_cast<std::size_t>(i)],
              destination[static_cast<std::size_t>(j)]);
  }

  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (topo::VertexId v = 0; v < n; ++v) {
    const topo::VertexId dst = destination[static_cast<std::size_t>(v)];
    if (dst != v) flows.push_back({v, dst, bytes});
  }
  return flows;
}

namespace {

/// Members [begin, end) of group g.
std::pair<std::size_t, std::size_t> group_range(const GroupExchange& exchange,
                                                std::size_t g) {
  return {g == 0 ? 0 : exchange.group_ends[g - 1], exchange.group_ends[g]};
}

}  // namespace

void GroupExchange::check(std::int64_t num_nodes) const {
  if (!std::isfinite(bytes_per_pair) || bytes_per_pair < 0.0) {
    throw std::invalid_argument(
        "GroupExchange: bytes per pair must be finite and non-negative");
  }
  if ((group_ends.empty() ? 0 : group_ends.back()) != members.size()) {
    throw std::invalid_argument("GroupExchange: groups must cover the members");
  }
  // last_group[v] = 1 + the last group that listed node v.
  std::vector<std::size_t> last_group(static_cast<std::size_t>(num_nodes), 0);
  std::int64_t twice_pairs = 0;  // 2 * sum over groups of (group ranks)^2
  for (std::size_t g = 0; g < group_ends.size(); ++g) {
    const auto [begin, end] = group_range(*this, g);
    if (end < begin) {
      throw std::invalid_argument("GroupExchange: group ends must not decrease");
    }
    std::int64_t group_ranks = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Member& m = members[i];
      if (m.node < 0 || m.node >= num_nodes) {
        throw std::invalid_argument("GroupExchange: node out of range");
      }
      if (m.ranks < 1) {
        throw std::invalid_argument("GroupExchange: rank counts must be positive");
      }
      std::size_t& seen = last_group[static_cast<std::size_t>(m.node)];
      if (seen == g + 1) {
        throw std::invalid_argument("GroupExchange: node listed twice in a group");
      }
      seen = g + 1;
      if (__builtin_add_overflow(group_ranks, m.ranks, &group_ranks)) {
        throw std::overflow_error("GroupExchange: rank count overflows int64");
      }
    }
    std::int64_t square = 0;
    if (__builtin_mul_overflow(group_ranks, group_ranks, &square) ||
        __builtin_mul_overflow(square, std::int64_t{2}, &square) ||
        __builtin_add_overflow(twice_pairs, square, &twice_pairs)) {
      throw std::overflow_error("GroupExchange: rank pair count overflows int64");
    }
  }
}

std::int64_t GroupExchange::node_pairs() const {
  std::int64_t pairs = 0;
  for (std::size_t g = 0; g < group_ends.size(); ++g) {
    const auto [begin, end] = group_range(*this, g);
    const auto k = static_cast<std::int64_t>(end - begin);
    pairs += k * (k - 1);
  }
  return pairs;
}

double GroupExchange::total_bytes() const {
  // Rank pairs on different nodes: S^2 - sum of c^2 per group of S ranks.
  std::int64_t pairs = 0;
  for (std::size_t g = 0; g < group_ends.size(); ++g) {
    const auto [begin, end] = group_range(*this, g);
    std::int64_t group_ranks = 0;
    for (std::size_t i = begin; i < end; ++i) {
      group_ranks += members[i].ranks;
      pairs -= members[i].ranks * members[i].ranks;
    }
    pairs += group_ranks * group_ranks;
  }
  return static_cast<double>(pairs) * bytes_per_pair;
}

double GroupExchange::peak_injection_bytes(std::int64_t num_nodes) const {
  // A node hosting c of a group's S ranks sends to c * (S - c) rank pairs.
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(num_nodes), 0);
  for (std::size_t g = 0; g < group_ends.size(); ++g) {
    const auto [begin, end] = group_range(*this, g);
    std::int64_t group_ranks = 0;
    for (std::size_t i = begin; i < end; ++i) group_ranks += members[i].ranks;
    for (std::size_t i = begin; i < end; ++i) {
      const Member& m = members[i];
      pairs[static_cast<std::size_t>(m.node)] += m.ranks * (group_ranks - m.ranks);
    }
  }
  const std::int64_t peak =
      pairs.empty() ? 0 : *std::max_element(pairs.begin(), pairs.end());
  return static_cast<double>(peak) * bytes_per_pair;
}

std::vector<Flow> GroupExchange::flows() const {
  std::vector<Flow> result;
  result.reserve(static_cast<std::size_t>(node_pairs()));
  for (std::size_t g = 0; g < group_ends.size(); ++g) {
    const auto [begin, end] = group_range(*this, g);
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = begin; j < end; ++j) {
        if (i == j) continue;
        result.push_back({members[i].node, members[j].node,
                          bytes_per_pair * static_cast<double>(members[i].ranks) *
                              static_cast<double>(members[j].ranks)});
      }
    }
  }
  return result;
}

GroupExchange uniform_all_to_all(const topo::Torus& torus,
                                 double total_bytes_per_source) {
  const std::int64_t n = torus.num_vertices();
  GroupExchange exchange;
  if (n < 2) return exchange;
  exchange.bytes_per_pair =
      total_bytes_per_source / static_cast<double>(n - 1);
  exchange.members.reserve(static_cast<std::size_t>(n));
  for (topo::VertexId v = 0; v < n; ++v) exchange.members.push_back({v, 1});
  exchange.group_ends.push_back(exchange.members.size());
  return exchange;
}

std::vector<Flow> nearest_neighbor_halo(const topo::Torus& torus,
                                        double bytes) {
  return TorusShift::halo(torus, bytes).flows();
}

std::vector<Flow> nearest_neighbor_halo(const topo::Graph& graph,
                                        double bytes) {
  std::vector<Flow> flows;
  flows.reserve(graph.num_arcs());
  for (topo::VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const topo::Arc& arc : graph.neighbors(v)) {
      flows.push_back({v, arc.to, bytes});
    }
  }
  return flows;
}

}  // namespace npac::simnet
