// Topology-agnostic contention backend: BFS shortest-path routing with
// ECMP-style fractional splitting over any topo::Graph.
//
// Channels are the graph's directed CSR arcs (Graph::num_arcs()), so loads
// are capacity-aware: a channel drains in load / (arc capacity * link
// bandwidth) seconds, which is what lets weighted topologies (Dragonfly's
// 1x/3x/4x links) be priced on the same fluid model as the unit-capacity
// torus.
//
// Routing convention ("ECMP fluid model", DESIGN.md decision #10): a flow
// is propagated as a fractional commodity down the shortest-path DAG toward
// its destination. At each node the outgoing weight is divided per
// TieBreak:
//  * kSplit — equally over every arc that advances toward the destination
//    (hop-by-hop ECMP, the idealization of adaptive multipath routing);
//  * kPositive — entirely onto the first advancing arc in adjacency order
//    (a deterministic single shortest path, the static-routing analog).
//
// On a torus graph under kSplit, the aggregate loads of translation-
// invariant patterns (the paper's furthest-node pairing, uniform
// all-to-all) coincide with TorusNetwork's dimension-ordered split routing
// — tests/simnet/graph_network_test.cpp pins the equivalence to 1e-9.
#pragma once

#include <memory>

#include "simnet/network.hpp"
#include "topo/descriptor.hpp"
#include "topo/graph.hpp"

namespace npac::simnet {

/// Per-thread routing arena (defined in graph_network.cpp): BFS scratch,
/// per-vertex weights, the counting-sort level buckets, the advancing-arc
/// overlay and a chunk's sparse per-arc loads, all reused across
/// destinations and calls so the routing pipeline is allocation-free after
/// warm-up.
struct RoutingScratch;

/// One flow as a destination group's routing kernel sees it: the
/// destination is implicit (every flow of a group shares it), so only
/// source and byte count ride along. Deliberately 16 bytes — route_all's
/// counting-sort scatter writes one of these per flow, and dropping the
/// redundant dst takes a third off that memory traffic.
struct GroupFlow {
  topo::VertexId src = 0;
  double bytes = 0.0;
};

class GraphNetwork final : public Network {
 public:
  /// Requires a non-empty graph whose arcs all have positive capacity.
  explicit GraphNetwork(topo::Graph graph, NetworkOptions options = {});

  const topo::Graph& graph() const { return graph_; }

  std::int64_t num_nodes() const override { return graph_.num_vertices(); }
  std::size_t num_channels() const override { return graph_.num_arcs(); }
  void route_flow(const Flow& flow, LinkLoads& loads) const override;
  /// Groups flows by destination (one BFS per distinct destination, stopped
  /// at its farthest source) and accumulates fixed-size chunks of groups
  /// into sparse per-chunk loads merged in chunk order, so results are
  /// identical for every thread count.
  LinkLoads route_all(std::span<const Flow> flows) const override;
  std::int64_t path_hops(const Flow& flow) const override;
  std::vector<Flow> halo_flows(double bytes) const override;

  /// Channel (arc) index of the first arc from `from` to `to`; throws
  /// std::invalid_argument when no such edge exists. Adjacency lists are
  /// sorted by neighbor id at construction, so the lookup is a binary
  /// search; parallel edges occupy consecutive arc indices and this always
  /// returns the first of them.
  std::size_t channel_of(topo::VertexId from, topo::VertexId to) const;

 protected:
  /// Capacity-aware drain time: max over arcs of load / (capacity * bw).
  double channel_seconds(const LinkLoads& loads) const override;

 private:
  /// Routes every flow of one destination group (all flows share `dst`)
  /// into the scratch's current chunk loads: one BFS + overlay that stops
  /// at the farthest source, a counting-sort level build and one weight
  /// propagation pass. Returns the arcs the BFS scanned. The scratch must
  /// be prepared for this graph and inside a chunk (begin_chunk). Flows
  /// must already be validated (validate_flow); unreachable destinations
  /// still throw here, where the BFS result exists.
  std::uint64_t route_group(topo::VertexId dst,
                            std::span<const GroupFlow> flows,
                            RoutingScratch& scratch) const;

  /// Range/sign validation of one flow, hoisted out of the hot kernels:
  /// throws std::out_of_range on bad vertex ids, std::invalid_argument on
  /// negative byte counts.
  void validate_flow(const Flow& flow) const;

  topo::Graph graph_;
};

/// Builds the preferred Network backend for a topology: TorusNetwork (the
/// specialized routing path) for torus specs, GraphNetwork for everything
/// else.
std::unique_ptr<Network> make_network(const topo::TopologySpec& spec,
                                      NetworkOptions options = {});

}  // namespace npac::simnet
