#include "simnet/graph_network.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/traffic.hpp"
#include "support/hot.hpp"

namespace npac::simnet {

namespace {

/// Largest single routing-arena footprint seen process-wide (bytes) — the
/// value behind the net.graph.scratch.bytes gauge. Updated on the cold
/// prepare() path only.
std::atomic<std::size_t> g_scratch_high_water{0};

void note_scratch_bytes(std::size_t bytes) {
  std::size_t seen = g_scratch_high_water.load(std::memory_order_relaxed);
  while (seen < bytes &&
         !g_scratch_high_water.compare_exchange_weak(
             seen, bytes, std::memory_order_relaxed)) {
  }
}

}  // namespace

/// Per-thread routing arena: every buffer route_group needs, reused across
/// destinations, route_all calls, and networks. Buffers grow monotonically
/// in prepare() (the only allocating path — one warm-up per high-water
/// graph size) and the BFS / level-build / overlay / propagation kernels
/// below run entirely inside them, which is what lets those kernels carry
/// the NPAC_HOT allocation-free contract.
struct RoutingScratch {
  /// BFS state for the current destination. Entries are 32-bit on purpose:
  /// Graph::from_edges rejects vertex counts beyond int32, and the
  /// narrower arrays keep a per-destination rebuild L1-resident on the
  /// graph sizes routing sweeps actually run.
  std::vector<std::int32_t> dist;      ///< hop distance to dst, -1 unreached
  std::vector<std::int32_t> frontier;  ///< flat BFS ring buffer
  std::size_t reached = 0;
  std::vector<double> weight;  ///< per-vertex accumulated bytes
  /// Counting-sort level bucketing of dist: level d's vertices (ascending
  /// id) occupy level_vertices[level_offsets[d] .. level_offsets[d + 1]).
  std::vector<std::uint32_t> level_offsets;
  std::vector<std::uint32_t> level_cursor;
  std::vector<std::int32_t> level_vertices;
  /// Advancing-arc overlay for the current destination: arc indices whose
  /// head is one level closer to dst, in adjacency order per vertex — the
  /// dense list propagate_levels walks instead of re-testing
  /// dist[arc.to] == d - 1 per arc (heads come from the graph's dense
  /// arc_heads array, so only the arc index is stored). Slices are emitted
  /// during the BFS itself (vertex v's slice is adv_arcs[adv_begin[v] ..
  /// adv_end[v])), laid out in BFS pop order rather than vertex order,
  /// which is why this is a begin/end pair instead of a CSR offset array.
  std::vector<std::uint32_t> adv_begin;
  std::vector<std::uint32_t> adv_end;
  std::vector<std::uint32_t> adv_arcs;

  /// Grows every buffer to the graph's dimensions (cold; no-op after the
  /// first call at a given high-water size).
  void prepare(const topo::Graph& graph) {
    const std::size_t n = static_cast<std::size_t>(graph.num_vertices());
    if (dist.size() < n) {
      dist.resize(n);
      frontier.resize(n);
      weight.resize(n);
      level_offsets.resize(n + 2);
      level_cursor.resize(n + 2);
      level_vertices.resize(n);
      adv_begin.resize(n);
      adv_end.resize(n);
    }
    if (adv_arcs.size() < graph.num_arcs()) {
      adv_arcs.resize(graph.num_arcs());
    }
    note_scratch_bytes(bytes());
  }

  std::size_t bytes() const {
    return weight.capacity() * sizeof(double) +
           (dist.capacity() + frontier.capacity() +
            level_vertices.capacity()) *
               sizeof(std::int32_t) +
           (level_offsets.capacity() + level_cursor.capacity() +
            adv_begin.capacity() + adv_end.capacity() +
            adv_arcs.capacity()) *
               sizeof(std::uint32_t);
  }
};

namespace {

/// One destination group's contiguous slice of the sorted flow array.
struct Group {
  std::size_t first = 0;
  std::size_t count = 0;
  topo::VertexId dst = 0;
};

/// Per-thread orchestration arena for route_all itself: the counting-sort
/// grouping buffers and the flat per-chunk partial-loads matrix, reused
/// across calls so the whole pipeline stops allocating once warmed up.
struct RouteAllScratch {
  /// dst_first[d] = first slot of destination d's slice of `sorted` (size
  /// num_vertices + 1, exclusive prefix sums of the per-dst flow counts);
  /// dst_cursor is the scatter cursor per destination.
  std::vector<std::size_t> dst_first;
  std::vector<std::size_t> dst_cursor;
  std::vector<GroupFlow> sorted;
  std::vector<Group> groups;
  std::vector<double> partials;  ///< route_chunks' per-chunk partial loads

  std::size_t bytes() const {
    return (dst_first.capacity() + dst_cursor.capacity()) *
               sizeof(std::size_t) +
           sorted.capacity() * sizeof(GroupFlow) +
           groups.capacity() * sizeof(Group) +
           partials.capacity() * sizeof(double);
  }
};

RoutingScratch& routing_scratch() {
  static thread_local RoutingScratch scratch;
  return scratch;
}

RouteAllScratch& route_all_scratch() {
  static thread_local RouteAllScratch scratch;
  return scratch;
}

topo::BfsScratch& path_hops_scratch() {
  // Not the routing arena: path_hops runs topo's BFS from the flow's
  // *source*, which keeps its state in a topo::BfsScratch.
  static thread_local topo::BfsScratch scratch;
  return scratch;
}

/// Buckets vertices by BFS level with a counting sort over dist: one count
/// pass, one prefix sum, one ascending-id scatter — so vertices stay in
/// ascending id order within a level and the propagation order (hence the
/// floating-point accumulation) is the same pure function of (graph, dst)
/// as the old per-level push_back build.
/// NPAC_HOT: allocation-free by contract; all four arrays are caller-owned
/// scratch (enforced by npaclint rule H1).
NPAC_HOT void build_levels(const std::int32_t* dist, std::size_t num_vertices,
                           std::int32_t max_dist, std::uint32_t* level_offsets,
                           std::uint32_t* level_cursor,
                           std::int32_t* level_vertices) {
  const std::size_t buckets = static_cast<std::size_t>(max_dist) + 2;
  std::fill(level_offsets, level_offsets + buckets, std::uint32_t{0});
  for (std::size_t v = 0; v < num_vertices; ++v) {
    const std::int32_t d = dist[v];
    if (d >= 1) ++level_offsets[static_cast<std::size_t>(d) + 1];
  }
  for (std::size_t d = 1; d < buckets; ++d) {
    level_offsets[d] += level_offsets[d - 1];
  }
  std::copy(level_offsets, level_offsets + buckets, level_cursor);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    const std::int32_t d = dist[v];
    if (d >= 1) {
      level_vertices[level_cursor[static_cast<std::size_t>(d)]++] =
          static_cast<std::int32_t>(v);
    }
  }
}

/// Fused BFS + advancing-arc overlay build for one destination, in a single
/// pass over the arc space. BFS queue ordering guarantees that when vertex
/// v (level d) pops, every level-(d-1) vertex is already finalized, so the
/// same arc scan that discovers unvisited neighbors also classifies each
/// already-labeled neighbor as advancing (dist == d - 1) or not — the
/// separate dist[arc.to] re-test pass the old propagate paid per vertex is
/// gone entirely. Vertex v's advancing arcs land in adv_arcs[adv_begin[v]
/// .. adv_end[v]) in adjacency order (so the kPositive "first advancing
/// arc" pick is unchanged); slices are laid out in BFS pop order, which is
/// irrelevant to propagation (it indexes per vertex). Returns dst's
/// eccentricity over reachable vertices; `reached` reports the visit
/// count. Entries of adv_begin/adv_end for unreachable vertices are stale
/// from earlier groups — propagation only ever visits level-bucketed
/// (reachable, dist >= 1) vertices.
/// NPAC_HOT: allocation-free by contract; every array is caller-owned
/// scratch sized to the graph (enforced by npaclint rule H1).
NPAC_HOT std::int32_t bfs_overlay_kernel(
    const std::size_t* offsets, const std::int32_t* heads,
    std::size_t num_vertices, topo::VertexId dst, std::int32_t* dist,
    std::int32_t* frontier, std::size_t& reached, std::uint32_t* adv_begin,
    std::uint32_t* adv_end, std::uint32_t* adv_arcs) {
  std::fill(dist, dist + num_vertices, std::int32_t{-1});
  std::size_t head = 0;
  std::size_t tail = 0;
  std::uint32_t cursor = 0;
  dist[static_cast<std::size_t>(dst)] = 0;
  frontier[tail++] = static_cast<std::int32_t>(dst);
  std::int32_t eccentricity = 0;
  while (head < tail) {
    const std::size_t v = static_cast<std::size_t>(frontier[head++]);
    const std::int32_t next = dist[v] + 1;
    const std::int32_t closer = dist[v] - 1;
    adv_begin[v] = cursor;
    const std::size_t end = offsets[v + 1];
    for (std::size_t k = offsets[v]; k < end; ++k) {
      const std::size_t to = static_cast<std::size_t>(heads[k]);
      const std::int32_t dist_to = dist[to];
      if (dist_to < 0) [[unlikely]] {  // each vertex is discovered once,
                                       // over a scan of every arc
        dist[to] = next;
        eccentricity = next;
        frontier[tail++] = heads[k];
        continue;
      }
      // Branchless advancing-arc emit: the store is unconditional (cursor
      // <= k keeps it in bounds) and only the cursor bump is predicated —
      // whether an already-labeled neighbor advances is a coin flip on
      // most topologies, too unpredictable for a branch.
      adv_arcs[cursor] = static_cast<std::uint32_t>(k);
      cursor += static_cast<std::uint32_t>(dist_to == closer);
    }
    adv_end[v] = cursor;
  }
  reached = tail;
  return eccentricity;
}

/// The ECMP weight-propagation inner loop: walks the BFS levels from the
/// far fringe toward dst, splitting each vertex's accumulated bytes over
/// its advancing arcs — read straight off the precomputed overlay instead
/// of re-testing dist[arc.to] == d - 1 twice per vertex. The order —
/// descending distance, ascending vertex id within a level, adjacency
/// order within a vertex — is a pure function of (graph, dst), so the
/// floating-point accumulation is deterministic for any thread count.
/// NPAC_HOT: allocation-free by contract; levels/overlay/weight/loads are
/// all caller-owned scratch (enforced by npaclint rule H1).
NPAC_HOT void propagate_levels(TieBreak tie_break,
                               const std::uint32_t* level_offsets,
                               const std::int32_t* level_vertices,
                               std::int32_t max_dist,
                               const std::uint32_t* adv_begin,
                               const std::uint32_t* adv_end,
                               const std::uint32_t* adv_arcs,
                               const std::int32_t* heads, double* weight,
                               double* loads) {
  if (tie_break == TieBreak::kPositive) {
    // kPositive: the whole weight rides the first advancing arc; the
    // tie-break test is hoisted out of the level walk.
    for (std::int32_t d = max_dist; d >= 1; --d) {
      const std::size_t level_end =
          level_offsets[static_cast<std::size_t>(d) + 1];
      for (std::size_t i = level_offsets[static_cast<std::size_t>(d)];
           i < level_end; ++i) {
        const std::size_t v = static_cast<std::size_t>(level_vertices[i]);
        const double w = weight[v];
        if (w == 0.0) continue;
        const std::size_t arc = adv_arcs[adv_begin[v]];
        loads[arc] += w;
        weight[static_cast<std::size_t>(heads[arc])] += w;
      }
    }
    return;
  }
  for (std::int32_t d = max_dist; d >= 1; --d) {
    const std::size_t level_end =
        level_offsets[static_cast<std::size_t>(d) + 1];
    for (std::size_t i = level_offsets[static_cast<std::size_t>(d)];
         i < level_end; ++i) {
      const std::size_t v = static_cast<std::size_t>(level_vertices[i]);
      const double w = weight[v];
      if (w == 0.0) continue;
      const std::size_t begin = adv_begin[v];
      const std::size_t end = adv_end[v];
      const double share = w / static_cast<double>(end - begin);
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t arc = adv_arcs[k];
        loads[arc] += share;
        weight[static_cast<std::size_t>(heads[arc])] += share;
      }
    }
  }
}

}  // namespace

GraphNetwork::GraphNetwork(topo::Graph graph, NetworkOptions options)
    : Network(options), graph_(std::move(graph)) {
  if (graph_.num_vertices() < 1) {
    throw std::invalid_argument("GraphNetwork: empty graph");
  }
  for (std::size_t arc = 0; arc < graph_.num_arcs(); ++arc) {
    if (graph_.arc_at(arc).capacity <= 0.0) {
      throw std::invalid_argument(
          "GraphNetwork: arc capacities must be positive");
    }
  }
}

void GraphNetwork::validate_flow(const Flow& flow) const {
  if (flow.bytes < 0.0) {
    throw std::invalid_argument("route_flow: negative byte count");
  }
  const std::int64_t n = graph_.num_vertices();
  if (flow.src < 0 || flow.src >= n || flow.dst < 0 || flow.dst >= n) {
    throw std::out_of_range("route_flow: vertex out of range");
  }
}

void GraphNetwork::route_group(topo::VertexId dst,
                               std::span<const GroupFlow> flows,
                               double* loads, RoutingScratch& scratch) const {
  const std::size_t n = static_cast<std::size_t>(graph_.num_vertices());
  scratch.prepare(graph_);
  const std::int32_t max_dist = bfs_overlay_kernel(
      graph_.arc_offsets().data(), graph_.arc_heads().data(), n, dst,
      scratch.dist.data(), scratch.frontier.data(), scratch.reached,
      scratch.adv_begin.data(), scratch.adv_end.data(),
      scratch.adv_arcs.data());
  build_levels(scratch.dist.data(), n, max_dist,
               scratch.level_offsets.data(), scratch.level_cursor.data(),
               scratch.level_vertices.data());

  const std::int32_t* const dist = scratch.dist.data();
  double* const weight = scratch.weight.data();
  std::fill(weight, weight + n, 0.0);
  std::int32_t flow_max = 0;
  for (const GroupFlow& flow : flows) {
    if (flow.src == dst || flow.bytes == 0.0) continue;
    const std::int32_t d = dist[static_cast<std::size_t>(flow.src)];
    if (d < 0) {
      throw std::invalid_argument(
          "route_flow: destination unreachable from source");
    }
    weight[static_cast<std::size_t>(flow.src)] += flow.bytes;
    flow_max = std::max(flow_max, d);
  }
  if (flow_max > 0) {
    propagate_levels(options().tie_break, scratch.level_offsets.data(),
                     scratch.level_vertices.data(), flow_max,
                     scratch.adv_begin.data(), scratch.adv_end.data(),
                     scratch.adv_arcs.data(), graph_.arc_heads().data(),
                     weight, loads);
  }
}

void GraphNetwork::route_flow(const Flow& flow, LinkLoads& loads) const {
  if (loads.num_channels() != num_channels()) {
    throw std::invalid_argument("route_flow: loads shape mismatch");
  }
  validate_flow(flow);
  const GroupFlow seed{flow.src, flow.bytes};
  route_group(flow.dst, {&seed, 1}, loads.raw().data(), routing_scratch());
}

LinkLoads GraphNetwork::route_all(std::span<const Flow> flows) const {
  LinkLoads total = make_loads();
  if (flows.empty()) return total;

  // Group flows by destination: one BFS serves every flow with that dst
  // (weight propagation is linear, so batching is exact up to summation
  // order, which the level walk fixes). Destination ids are dense in
  // [0, num_vertices), so a counting sort — count per dst, prefix-sum,
  // scatter in input order — produces exactly the stable-sort-by-dst
  // permutation in O(flows + V) with no comparison sort at all, and the
  // prefix sums are the destination groups. The O(V) term never dominates:
  // routing any group already costs a BFS, which is Omega(V) itself. Every
  // buffer comes from the calling thread's reusable arena.
  //
  // Flow validation — hoisted out of route_group so the hot kernels run on
  // precondition-checked flows — is fused into the counting pass; the check
  // precedes the count, so an out-of-range dst can never index dst_first.
  // Reachability is the one check that needs the per-destination BFS and
  // stays in route_group.
  RouteAllScratch& call = route_all_scratch();
  const std::size_t count = flows.size();
  const std::size_t n = static_cast<std::size_t>(graph_.num_vertices());
  if (call.sorted.size() < count) call.sorted.resize(count);
  if (call.dst_first.size() < n + 1) {
    call.dst_first.resize(n + 1);
    call.dst_cursor.resize(n);
  }
  std::fill(call.dst_first.begin(), call.dst_first.begin() + n + 1,
            std::size_t{0});
  for (const Flow& flow : flows) {
    validate_flow(flow);
    ++call.dst_first[static_cast<std::size_t>(flow.dst) + 1];
  }
  for (std::size_t d = 0; d < n; ++d) {
    call.dst_first[d + 1] += call.dst_first[d];
  }
  std::copy(call.dst_first.begin(), call.dst_first.begin() + n,
            call.dst_cursor.begin());
  for (const Flow& flow : flows) {
    call.sorted[call.dst_cursor[static_cast<std::size_t>(flow.dst)]++] = {
        flow.src, flow.bytes};
  }
  const GroupFlow* const sorted = call.sorted.data();

  call.groups.clear();  // capacity is retained: no allocation after warm-up
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t group_count = call.dst_first[d + 1] - call.dst_first[d];
    if (group_count > 0) {
      call.groups.push_back(
          {call.dst_first[d], group_count, static_cast<topo::VertexId>(d)});
    }
  }
  const std::size_t num_groups = call.groups.size();
  const Group* const groups = call.groups.data();

  // Chunks of destination groups are accumulated independently and merged
  // in chunk order: the chunking depends only on the input, so the result
  // is byte-identical for any thread count.
  constexpr std::size_t kGroupsPerChunk = 16;
  const std::size_t num_chunks =
      (num_groups + kGroupsPerChunk - 1) / kGroupsPerChunk;
  route_chunks(num_chunks, total.raw(), call.partials,
               [&](std::size_t chunk, double* loads) {
    const std::size_t first_group = chunk * kGroupsPerChunk;
    const std::size_t last_group =
        std::min(first_group + kGroupsPerChunk, num_groups);
    // One span per call, or per destination-batch chunk on the thread
    // that routed it, so the trace shows how routing work spread.
    std::optional<obs::ScopedTimer> span;
    if (obs::tracing_enabled()) {
      span.emplace(num_chunks == 1
                       ? "graph.route_all dsts=" + std::to_string(num_groups) +
                             " flows=" + std::to_string(count)
                       : "graph.route_chunk dsts=" +
                             std::to_string(last_group - first_group),
                   "net");
    }
    RoutingScratch& scratch = routing_scratch();
    for (std::size_t g = first_group; g < last_group; ++g) {
      route_group(groups[g].dst, {sorted + groups[g].first, groups[g].count},
                  loads, scratch);
    }
  });

  note_scratch_bytes(call.bytes());

  // Flushed once per call: one BFS (and overlay build) per destination
  // group, each scanning every arc.
  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("net.graph.route_all").add(1);
    registry->counter("net.graph.flows").add(count);
    registry->counter("net.graph.bfs_invocations").add(num_groups);
    registry->counter("net.graph.arcs_touched")
        .add(num_groups * static_cast<std::uint64_t>(graph_.num_arcs()));
    registry->gauge("net.graph.scratch.bytes")
        .set(static_cast<double>(
            g_scratch_high_water.load(std::memory_order_relaxed)));
  }
  return total;
}

std::int64_t GraphNetwork::path_hops(const Flow& flow) const {
  const std::int64_t n = graph_.num_vertices();
  if (flow.src < 0 || flow.src >= n || flow.dst < 0 || flow.dst >= n) {
    throw std::out_of_range("path_hops: vertex out of range");
  }
  topo::BfsScratch& scratch = path_hops_scratch();
  graph_.bfs_distances_into(flow.src, scratch);
  const std::int64_t d = scratch.dist[static_cast<std::size_t>(flow.dst)];
  if (d < 0) {
    throw std::invalid_argument("path_hops: destination unreachable");
  }
  return d;
}

std::vector<Flow> GraphNetwork::halo_flows(double bytes) const {
  return nearest_neighbor_halo(graph_, bytes);
}

std::size_t GraphNetwork::channel_of(topo::VertexId from,
                                     topo::VertexId to) const {
  // Adjacency lists are sorted by neighbor id at construction, so the
  // first arc to `to` (parallel edges are consecutive) is a lower bound.
  const auto adjacency = graph_.neighbors(from);
  const auto it = std::lower_bound(
      adjacency.begin(), adjacency.end(), to,
      [](const topo::Arc& arc, topo::VertexId target) {
        return arc.to < target;
      });
  if (it == adjacency.end() || it->to != to) {
    throw std::invalid_argument("channel_of: no such edge");
  }
  return graph_.arc_begin(from) +
         static_cast<std::size_t>(it - adjacency.begin());
}

double GraphNetwork::channel_seconds(const LinkLoads& loads) const {
  double worst = 0.0;
  for (std::size_t c = 0; c < loads.num_channels(); ++c) {
    worst = std::max(worst, loads[c] / graph_.arc_at(c).capacity);
  }
  return worst / options().link_bytes_per_second;
}

std::unique_ptr<Network> make_network(const topo::TopologySpec& spec,
                                      NetworkOptions options) {
  // Every torus spec — unit, uniform, or per-dimension (Titan-style
  // weighted) capacities — keeps the specialized allocation-free routing
  // path: minimal-path routing is capacity-blind, and TorusNetwork's
  // completion model prices per-dimension capacities exactly like the
  // graph backend (pinned in tests/simnet/graph_network_test.cpp).
  if (spec.kind() == topo::TopologySpec::Kind::kTorus) {
    std::vector<double> capacities = spec.capacities();
    if (capacities.size() == 1) {
      capacities.assign(spec.dims().size(), capacities[0]);
    }
    return std::make_unique<TorusNetwork>(topo::Torus(spec.dims()),
                                          std::move(capacities), options);
  }
  return std::make_unique<GraphNetwork>(spec.build(), options);
}

}  // namespace npac::simnet
