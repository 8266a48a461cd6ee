#include "simnet/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sweep/pool.hpp"

namespace npac::simnet {

std::vector<Flow> furthest_node_pairing(const topo::Torus& torus,
                                        double bytes) {
  const std::int64_t n = torus.num_vertices();
  const topo::Dims& dims = torus.dims();
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n));
  // An odometer over the antipode's coordinates f = (c + a/2) mod a, as
  // nearest_neighbor_halo walks c: each step of v advances f by one in
  // every dimension it carries through, moving the peer id by +stride, or
  // by -(a - 1) * stride where f wraps. c wraps, and carries into the next
  // dimension, exactly when f comes back to a/2.
  topo::Coord far(dims.size());
  topo::VertexId peer = 0;
  std::int64_t stride = 1;
  for (std::size_t dim = 0; dim < dims.size(); ++dim) {
    far[dim] = dims[dim] / 2;
    peer += far[dim] * stride;
    stride *= dims[dim];
  }
  for (topo::VertexId v = 0; v < n; ++v) {
    if (peer != v) flows.push_back({v, peer, bytes});
    stride = 1;
    for (std::size_t dim = 0; dim < dims.size(); ++dim) {
      const std::int64_t a = dims[dim];
      if (++far[dim] == a) {
        far[dim] = 0;
        peer -= (a - 1) * stride;
      } else {
        peer += stride;
      }
      if (far[dim] != a / 2) break;
      stride *= a;
    }
  }
  return flows;
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
  const std::int64_t n = torus.num_vertices();
  const topo::Dims& dims = torus.dims();
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n) * torus.degree());
  // An odometer over the coordinates (coordinate 0 fastest, as vertex ids
  // count) gives each neighbour as v +/- stride, wrapping by (a - 1) * stride.
  topo::Coord c(dims.size(), 0);
  for (topo::VertexId v = 0; v < n; ++v) {
    std::int64_t stride = 1;
    for (std::size_t dim = 0; dim < dims.size(); ++dim) {
      const std::int64_t a = dims[dim];
      if (a > 1) {
        const std::int64_t wrap = (a - 1) * stride;
        flows.push_back(
            {v, c[dim] + 1 == a ? v - wrap : v + stride, bytes});
        if (a > 2) {
          flows.push_back({v, c[dim] == 0 ? v + wrap : v - stride, bytes});
        }
      }
      stride *= a;
    }
    for (std::size_t dim = 0; dim < dims.size() && ++c[dim] == dims[dim];
         ++dim) {
      c[dim] = 0;
    }
  }
  return flows;
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
