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

/// A translation of the torus: every node v sends `bytes` to v + delta for
/// each offset delta, coordinates taken modulo the dimension lengths. The
/// nearest-neighbour halo and the furthest-node pairing are shifts. Every
/// channel of one (dimension, direction) class then carries the same load,
/// so a backend with a closed form for it (TorusNetwork::route_shift)
/// never builds its flows (DESIGN.md decision #24).
struct TorusShift {
  topo::Dims dims;
  /// One entry per dimension, each in [0, a). An offset that is zero in
  /// every dimension moves no node and sends nothing.
  std::vector<topo::Coord> offsets;
  double bytes = 0.0;

  /// Nearest-neighbour halo: per dimension of length a > 1, the + offset,
  /// then the - offset (a - 1) unless a == 2.
  static TorusShift halo(const topo::Torus& torus, double bytes);

  /// Furthest-node pairing: the one offset floor(a / 2) in every dimension.
  static TorusShift antipodal(const topo::Torus& torus, double bytes);

  /// Throws std::invalid_argument unless every dimension length is
  /// positive, their product is `num_nodes`, every offset has one entry
  /// per dimension in [0, a) and the byte count is not negative (NaN
  /// passes, as route_all routes it).
  void check(std::int64_t num_nodes) const;

  /// One flow per node and per offset that moves a node: the number of
  /// flows flows() emits. Requires check() to pass.
  std::int64_t num_flows() const;

  /// Bytes that cross between nodes: num_flows() copies of `bytes` summed
  /// from 0.0, the sum Communicator::run_phase takes over flows().
  double total_bytes() const;

  /// The reference expansion: nodes in id order, each node's flows in
  /// offset order. Built by one odometer over the coordinates in time
  /// linear in the flow count.
  std::vector<Flow> flows() const;
};

/// 0.0 + addend + addend + ..., `count` addends added in order (0.0 for
/// count <= 0). Every addend is the same double, so the sum does not
/// depend on which flow each came from. When every partial sum is exact
/// the product addend * count is that sum, and it is returned without the
/// loop.
double repeated_sum(double addend, std::int64_t count);

/// Furthest-node pairing: one flow per ordered node pair (u, antipode(u)),
/// `bytes` each — 2N flows in total (each unordered pair exchanges in both
/// directions simultaneously, as in the paper's ping-pong). The flows of
/// TorusShift::antipodal; price the pattern itself with
/// Network::price_shift.
std::vector<Flow> furthest_node_pairing(const topo::Torus& torus,
                                        double bytes);

/// Furthest-node pairing on an arbitrary graph: every vertex sends `bytes`
/// to the lowest-id vertex at maximal BFS distance from it (the graph
/// generalization of the torus antipode pairing; ties broken by lowest id
/// as in tenant_pairing). Isolated or singleton vertices emit no flow.
std::vector<Flow> furthest_node_pairing(const topo::Graph& graph,
                                        double bytes);

/// Random permutation traffic: each node sends `bytes` to a unique,
/// uniformly drawn destination (fixed points emit no flow). A Fisher-Yates
/// shuffle over sweep::task_seed draws: deterministic in `seed` and the
/// same on every toolchain.
std::vector<Flow> random_permutation(const topo::Torus& torus, double bytes,
                                     std::uint64_t seed);

/// Uniform all-to-all within groups of ranks, stated per node: every ordered
/// pair of ranks of one group sends `bytes_per_pair`, and ranks sharing a
/// node exchange for free. A group lists the nodes hosting its ranks, each
/// with its rank count c, so node pair (a, b) of one group carries
/// bytes_per_pair * c_a * c_b. This is the CAPS BFS-step and N-body
/// pattern; it stays a pattern so a backend with a closed form for it
/// (TorusNetwork) never builds its flows.
struct GroupExchange {
  struct Member {
    topo::VertexId node = 0;
    std::int64_t ranks = 0;  ///< the group's ranks on this node, >= 1
  };
  double bytes_per_pair = 0.0;
  std::vector<Member> members;          ///< group after group
  std::vector<std::size_t> group_ends;  ///< one past each group's last member

  /// Throws std::invalid_argument unless every node is in [0, num_nodes)
  /// and appears once per group, every rank count is positive, the groups
  /// partition `members` and the byte count is finite and non-negative.
  /// Throws std::overflow_error when twice the rank-pair count, the largest
  /// integer a closed form accumulates, would overflow int64.
  void check(std::int64_t num_nodes) const;

  /// Ordered pairs of distinct nodes of one group, summed over groups: the
  /// number of flows flows() emits.
  std::int64_t node_pairs() const;

  /// Bytes that cross between nodes. Exact integer pair counts: requires
  /// check() to pass.
  double total_bytes() const;

  /// Largest byte count one node injects. The pattern is symmetric, so it
  /// is also the largest a node ejects. Requires check(num_nodes) to pass.
  double peak_injection_bytes(std::int64_t num_nodes) const;

  /// One flow per ordered pair of distinct nodes of a group, group by
  /// group in member order: the reference expansion every backend
  /// without a closed form routes.
  std::vector<Flow> flows() const;
};

/// Uniform all-to-all as a pattern: one group, one rank on every node in
/// vertex order, so every ordered pair (u, v), u != v, carries
/// `total_bytes_per_source / (N - 1)`. Empty (no groups) for N < 2. Price
/// it with Network::route_exchange and exchange_seconds; flows() expands
/// it to its N * (N - 1) flows, source by source in vertex order.
GroupExchange uniform_all_to_all(const topo::Torus& torus,
                                 double total_bytes_per_source);

/// Nearest-neighbour halo exchange: every node sends `bytes` to each of its
/// torus neighbours (the contention-free baseline pattern). Flows come in
/// vertex order; per vertex, dimension by dimension, the + neighbour, then
/// the - neighbour unless the dimension has length 2 (one link, one flow).
/// Length-1 dimensions send nothing. Exactly num_vertices() * degree()
/// flows: those of TorusShift::halo. Network::price_halo prices the halo
/// of any backend; a torus prices the shift without these flows.
std::vector<Flow> nearest_neighbor_halo(const topo::Torus& torus,
                                        double bytes);

/// Halo exchange on an arbitrary graph: one flow per directed arc. On a
/// torus graph this reproduces the torus halo (a length-2 dimension is a
/// single edge, hence a single flow per direction).
std::vector<Flow> nearest_neighbor_halo(const topo::Graph& graph,
                                        double bytes);

}  // namespace npac::simnet
