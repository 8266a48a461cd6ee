#include "simnet/traffic.hpp"

#include <numeric>
#include <algorithm>
#include <random>

namespace npac::simnet {

std::vector<Flow> furthest_node_pairing(const topo::Torus& torus,
                                        double bytes) {
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(torus.num_vertices()));
  for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
    const topo::Coord far = torus.antipode(torus.coord_of(v));
    const topo::VertexId peer = torus.index_of(far);
    if (peer != v) flows.push_back({v, peer, bytes});
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
  std::mt19937_64 rng(seed);
  std::shuffle(destination.begin(), destination.end(), rng);

  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (topo::VertexId v = 0; v < n; ++v) {
    const topo::VertexId dst = destination[static_cast<std::size_t>(v)];
    if (dst != v) flows.push_back({v, dst, bytes});
  }
  return flows;
}

std::vector<Flow> uniform_all_to_all(const topo::Torus& torus,
                                     double total_bytes_per_source) {
  const std::int64_t n = torus.num_vertices();
  if (n < 2) return {};
  const double per_pair = total_bytes_per_source / static_cast<double>(n - 1);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  for (topo::VertexId u = 0; u < n; ++u) {
    for (topo::VertexId v = 0; v < n; ++v) {
      if (u != v) flows.push_back({u, v, per_pair});
    }
  }
  return flows;
}

std::vector<Flow> nearest_neighbor_halo(const topo::Torus& torus,
                                        double bytes) {
  std::vector<Flow> flows;
  for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
    const topo::Coord c = torus.coord_of(v);
    for (std::size_t dim = 0; dim < torus.num_dims(); ++dim) {
      const std::int64_t a = torus.dims()[dim];
      if (a == 1) continue;
      topo::Coord fwd = c;
      fwd[dim] = (c[dim] + 1) % a;
      flows.push_back({v, torus.index_of(fwd), bytes});
      if (a > 2) {
        topo::Coord back = c;
        back[dim] = (c[dim] - 1 + a) % a;
        flows.push_back({v, torus.index_of(back), bytes});
      }
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
