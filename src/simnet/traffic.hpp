// Traffic-pattern generators.
//
// The headline pattern is the furthest-node bisection pairing of Chen et
// al. [12] used by the paper's Experiment A: every node exchanges messages
// with the node at maximal hop distance (offset floor(a_i/2) in every
// dimension), which drives the full pairwise volume across the partition
// bisection. Additional patterns support the topology-survey benches and
// failure-injection tests.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/flow.hpp"
#include "topo/graph.hpp"
#include "topo/torus.hpp"

namespace npac::simnet {

/// Furthest-node pairing: one flow per ordered node pair (u, antipode(u)),
/// `bytes` each — 2N flows in total (each unordered pair exchanges in both
/// directions simultaneously, as in the paper's ping-pong).
std::vector<Flow> furthest_node_pairing(const topo::Torus& torus,
                                        double bytes);

/// Furthest-node pairing on an arbitrary graph: every vertex sends `bytes`
/// to the lowest-id vertex at maximal BFS distance from it (the graph
/// generalization of the torus antipode pairing; ties broken by lowest id
/// as in tenant_pairing). Isolated or singleton vertices emit no flow.
std::vector<Flow> furthest_node_pairing(const topo::Graph& graph,
                                        double bytes);

/// Random permutation traffic: each node sends `bytes` to a unique,
/// uniformly drawn destination. Deterministic in `seed`.
std::vector<Flow> random_permutation(const topo::Torus& torus, double bytes,
                                     std::uint64_t seed);

/// Uniform all-to-all: every ordered pair (u, v), u != v, carries
/// `total_bytes_per_source / (N - 1)`.
std::vector<Flow> uniform_all_to_all(const topo::Torus& torus,
                                     double total_bytes_per_source);

/// Nearest-neighbour halo exchange: every node sends `bytes` to each of its
/// torus neighbours (the contention-free baseline pattern).
std::vector<Flow> nearest_neighbor_halo(const topo::Torus& torus,
                                        double bytes);

/// Halo exchange on an arbitrary graph: one flow per directed arc. On a
/// torus graph this reproduces the torus halo (a length-2 dimension is a
/// single edge, hence a single flow per direction).
std::vector<Flow> nearest_neighbor_halo(const topo::Graph& graph,
                                        double bytes);

}  // namespace npac::simnet
