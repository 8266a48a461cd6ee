#include "simnet/graph_network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/traffic.hpp"
#include "support/hot.hpp"
#include "sweep/pool.hpp"

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
  /// graph sizes routing sweeps actually run. dist and weight hold -1 and
  /// 0.0 everywhere but on the last search's labelled vertices,
  /// frontier[0 .. reached), which the next search resets first, so no
  /// per-destination pass touches every vertex.
  std::vector<std::int32_t> dist;      ///< hop distance to dst, -1 unreached
  std::vector<std::int32_t> frontier;  ///< flat BFS queue, in level order
  std::size_t reached = 0;
  std::vector<double> weight;  ///< per-vertex accumulated bytes
  /// Counting-sort level bucketing of the vertices propagation visits:
  /// level d's vertices (ascending id) occupy
  /// level_vertices[level_offsets[d] .. level_offsets[d + 1]). `marks` is
  /// the one-bit-per-vertex set the ascending-id scatter walks; it is all
  /// zero between destinations.
  std::vector<std::uint32_t> level_offsets;
  std::vector<std::uint32_t> level_cursor;
  std::vector<std::int32_t> level_vertices;
  std::vector<std::uint64_t> marks;
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
  /// The current chunk's loads: a dense per-arc accumulator whose entry is
  /// live only where stamp[arc] == epoch. Each arc is listed once, on its
  /// first touch in the chunk, in touched[0 .. num_touched). A new chunk
  /// bumps the epoch instead of clearing anything, so entries left behind
  /// by a chunk that threw are never read.
  std::vector<double> chunk_loads;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> touched;
  std::size_t num_touched = 0;
  std::uint32_t epoch = 0;

  /// Grows every buffer to the graph's dimensions (cold; no-op after the
  /// first call at a given high-water size).
  void prepare(const topo::Graph& graph) {
    const std::size_t n = static_cast<std::size_t>(graph.num_vertices());
    if (dist.size() < n) {
      dist.resize(n, -1);
      frontier.resize(n);
      weight.resize(n, 0.0);
      level_offsets.resize(n + 2);
      level_cursor.resize(n + 2);
      level_vertices.resize(n);
      marks.resize((n + 63) / 64, 0);
      adv_begin.resize(n);
      adv_end.resize(n);
    }
    const std::size_t arcs = graph.num_arcs();
    if (adv_arcs.size() < arcs) {
      adv_arcs.resize(arcs);
      chunk_loads.resize(arcs);
      stamp.resize(arcs, 0);  // epoch is never 0 inside a chunk
      touched.resize(arcs);
    }
    note_scratch_bytes(bytes());
  }

  /// Starts an empty chunk. Epoch 0 is reserved for never-touched stamps;
  /// on wrap-around every stamp is cleared once.
  void begin_chunk() {
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), std::uint32_t{0});
      epoch = 1;
    }
    num_touched = 0;
  }

  std::size_t bytes() const {
    return (weight.capacity() + chunk_loads.capacity()) * sizeof(double) +
           (dist.capacity() + frontier.capacity() +
            level_vertices.capacity()) *
               sizeof(std::int32_t) +
           (level_offsets.capacity() + level_cursor.capacity() +
            adv_begin.capacity() + adv_end.capacity() +
            adv_arcs.capacity() + stamp.capacity() + touched.capacity()) *
               sizeof(std::uint32_t) +
           marks.capacity() * sizeof(std::uint64_t);
  }
};

namespace {

/// One destination group's contiguous slice of the sorted flow array.
struct Group {
  std::size_t first = 0;
  std::size_t count = 0;
  topo::VertexId dst = 0;
};

/// One arc's load in a chunk's sparse result.
struct ArcLoad {
  std::uint32_t arc = 0;
  double load = 0.0;
};

/// What one chunk of destination groups hands to the merge: its touched
/// arcs' loads, in first-touch order, and the arcs its BFS runs scanned.
struct ChunkResult {
  std::vector<ArcLoad> loads;
  std::uint64_t arcs_scanned = 0;
};

/// Per-thread orchestration arena for route_all itself: the counting-sort
/// grouping buffers and the per-chunk sparse results, reused across calls
/// so the whole pipeline stops allocating once warmed up.
struct RouteAllScratch {
  /// dst_first[d] = first slot of destination d's slice of `sorted` (size
  /// num_vertices + 1, exclusive prefix sums of the per-dst flow counts);
  /// dst_cursor is the scatter cursor per destination.
  std::vector<std::size_t> dst_first;
  std::vector<std::size_t> dst_cursor;
  std::vector<GroupFlow> sorted;
  std::vector<Group> groups;
  std::vector<ChunkResult> chunks;

  std::size_t bytes() const {
    std::size_t chunk_bytes = chunks.capacity() * sizeof(ChunkResult);
    for (const ChunkResult& chunk : chunks) {
      chunk_bytes += chunk.loads.capacity() * sizeof(ArcLoad);
    }
    return (dst_first.capacity() + dst_cursor.capacity()) *
               sizeof(std::size_t) +
           sorted.capacity() * sizeof(GroupFlow) +
           groups.capacity() * sizeof(Group) + chunk_bytes;
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

/// Buckets the vertices propagation visits by BFS level with a counting
/// sort: every vertex of levels 1 .. max_dist - 1, and of level max_dist
/// only the sources (nonzero weight; the level's other vertices carry
/// nothing). The frontier lists the labelled vertices in level order, so
/// one pass over its head counts the levels and marks the vertices in a
/// bitset; the scatter then walks the bitset in ascending id. Vertices
/// stay in ascending id order within a level, so the propagation order
/// (hence the floating-point accumulation) is the same pure function of
/// (graph, dst) as a scan over every vertex id, at a cost of the vertices
/// visited plus one word per 64 vertices. Leaves `marks` all zero.
/// NPAC_HOT: allocation-free by contract; every array is caller-owned
/// scratch (enforced by npaclint rule H1).
NPAC_HOT void build_levels(const std::int32_t* frontier, std::size_t reached,
                           const std::int32_t* dist, const double* weight,
                           std::size_t num_vertices, std::int32_t max_dist,
                           std::uint64_t* marks, std::uint32_t* level_offsets,
                           std::uint32_t* level_cursor,
                           std::int32_t* level_vertices) {
  const std::size_t buckets = static_cast<std::size_t>(max_dist) + 2;
  std::fill(level_offsets, level_offsets + buckets, std::uint32_t{0});
  for (std::size_t i = 1; i < reached; ++i) {  // frontier[0] is dst
    const auto v = static_cast<std::size_t>(frontier[i]);
    const std::int32_t d = dist[v];
    if (d >= max_dist) {
      if (d > max_dist) break;
      if (weight[v] == 0.0) continue;
    }
    ++level_offsets[static_cast<std::size_t>(d) + 1];
    marks[v / 64] |= std::uint64_t{1} << (v % 64);
  }
  for (std::size_t d = 1; d < buckets; ++d) {
    level_offsets[d] += level_offsets[d - 1];
  }
  std::copy(level_offsets, level_offsets + buckets, level_cursor);
  const std::size_t words = (num_vertices + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = marks[w];
    marks[w] = 0;
    while (bits != 0) {
      const std::size_t v =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      level_vertices[level_cursor[static_cast<std::size_t>(dist[v])]++] =
          static_cast<std::int32_t>(v);
    }
  }
}

/// How far one destination's BFS went.
struct BfsExtent {
  /// Level of the farthest source; -1 when some source is unreachable.
  std::int32_t source_level = -1;
  std::size_t reached = 0;         ///< vertices labelled (frontier length)
  std::uint64_t arcs_scanned = 0;  ///< arcs of every popped vertex
};

/// Fused BFS + advancing-arc overlay build for one destination, stopped
/// at the farthest source. BFS queue ordering guarantees that when vertex
/// v (level d) pops, every level-(d-1) vertex is already finalized, so the
/// same arc scan that discovers unvisited neighbors also classifies each
/// already-labeled neighbor as advancing (dist == d - 1) or not — the
/// separate dist[arc.to] re-test pass the old propagate paid per vertex is
/// gone entirely. Vertex v's advancing arcs land in adv_arcs[adv_begin[v]
/// .. adv_end[v]) in adjacency order (so the kPositive "first advancing
/// arc" pick is unchanged); slices are laid out in BFS pop order, which is
/// irrelevant to propagation (it indexes per vertex).
///
/// The `sources` distinct vertices with nonzero `weight` are the flows'
/// sources. Once the last of them is labelled, at level L, only what
/// propagation will read is still built: every vertex of a level below L
/// pops, and of level L only the sources, since the level's other
/// vertices carry no weight and propagation skips them before reading
/// their slice. The first pop past level L ends the search. Levels below
/// L and the sources' slices are exactly what a full BFS builds
/// (DESIGN.md decision #22); vertices of level L + 1 discovered meanwhile
/// keep their labels but have no slice. With a source unreachable, the
/// search runs to completion and reports level -1. Entries of
/// adv_begin/adv_end for vertices that never popped are stale from
/// earlier groups. `dist` must be -1 everywhere on entry; the labelled
/// vertices are frontier[0 .. reached).
/// NPAC_HOT: allocation-free by contract; every array is caller-owned
/// scratch sized to the graph (enforced by npaclint rule H1).
NPAC_HOT BfsExtent bfs_overlay_kernel(
    const std::size_t* offsets, const std::int32_t* heads, topo::VertexId dst,
    const double* weight, std::size_t sources, std::int32_t* dist,
    std::int32_t* frontier, std::uint32_t* adv_begin, std::uint32_t* adv_end,
    std::uint32_t* adv_arcs) {
  std::size_t head = 0;
  std::size_t tail = 0;
  std::uint32_t cursor = 0;
  dist[static_cast<std::size_t>(dst)] = 0;
  frontier[tail++] = static_cast<std::int32_t>(dst);
  BfsExtent extent;
  std::int32_t source_level = std::numeric_limits<std::int32_t>::max();
  while (head < tail) {
    const std::size_t v = static_cast<std::size_t>(frontier[head++]);
    if (dist[v] >= source_level) {
      if (dist[v] > source_level) break;
      if (weight[v] == 0.0) continue;  // carries nothing: never propagated
    }
    const std::int32_t next = dist[v] + 1;
    const std::int32_t closer = dist[v] - 1;
    adv_begin[v] = cursor;
    const std::size_t begin = offsets[v];
    const std::size_t end = offsets[v + 1];
    extent.arcs_scanned += end - begin;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t to = static_cast<std::size_t>(heads[k]);
      const std::int32_t dist_to = dist[to];
      if (dist_to < 0) [[unlikely]] {  // each vertex is discovered once
        dist[to] = next;
        frontier[tail++] = heads[k];
        if (weight[to] != 0.0 && --sources == 0) source_level = next;
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
  if (sources == 0) extent.source_level = source_level;
  extent.reached = tail;
  return extent;
}

/// A chunk's view of its sparse loads (RoutingScratch::chunk_loads and
/// friends): add() starts an arc's entry at zero on its first touch in
/// the chunk and lists it in `touched`.
struct ChunkLoads {
  double* loads;
  std::uint32_t* stamp;
  std::uint32_t* touched;
  std::size_t num_touched;
  std::uint32_t epoch;

  void add(std::size_t arc, double bytes) {
    if (stamp[arc] != epoch) {
      stamp[arc] = epoch;
      loads[arc] = 0.0;
      touched[num_touched++] = static_cast<std::uint32_t>(arc);
    }
    loads[arc] += bytes;
  }
};

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
                               ChunkLoads& loads) {
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
        loads.add(arc, w);
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
        loads.add(arc, share);
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

std::uint64_t GraphNetwork::route_group(topo::VertexId dst,
                                        std::span<const GroupFlow> flows,
                                        RoutingScratch& scratch) const {
  std::int32_t* const dist = scratch.dist.data();
  std::int32_t* const frontier = scratch.frontier.data();
  double* const weight = scratch.weight.data();
  // Undo the previous search, which labelled (and weighted) only the
  // vertices it queued.
  for (std::size_t i = 0; i < scratch.reached; ++i) {
    const auto v = static_cast<std::size_t>(frontier[i]);
    dist[v] = -1;
    weight[v] = 0.0;
  }
  scratch.reached = 0;
  // Seed the sources before the BFS, so it knows when it has labelled the
  // last one.
  std::size_t sources = 0;
  for (const GroupFlow& flow : flows) {
    if (flow.src == dst || flow.bytes == 0.0) continue;
    double& seed = weight[static_cast<std::size_t>(flow.src)];
    if (seed == 0.0) ++sources;
    seed += flow.bytes;
  }
  if (sources == 0) return 0;
  const BfsExtent extent = bfs_overlay_kernel(
      graph_.arc_offsets().data(), graph_.arc_heads().data(), dst, weight,
      sources, dist, frontier, scratch.adv_begin.data(),
      scratch.adv_end.data(), scratch.adv_arcs.data());
  scratch.reached = extent.reached;
  if (extent.source_level < 0) {
    // An unreachable source is not in the frontier the next reset walks.
    for (const GroupFlow& flow : flows) {
      weight[static_cast<std::size_t>(flow.src)] = 0.0;
    }
    throw std::invalid_argument(
        "route_flow: destination unreachable from source");
  }
  build_levels(frontier, extent.reached, dist, weight,
               static_cast<std::size_t>(graph_.num_vertices()),
               extent.source_level, scratch.marks.data(),
               scratch.level_offsets.data(), scratch.level_cursor.data(),
               scratch.level_vertices.data());
  ChunkLoads loads{scratch.chunk_loads.data(), scratch.stamp.data(),
                   scratch.touched.data(), scratch.num_touched,
                   scratch.epoch};
  propagate_levels(options().tie_break, scratch.level_offsets.data(),
                   scratch.level_vertices.data(), extent.source_level,
                   scratch.adv_begin.data(), scratch.adv_end.data(),
                   scratch.adv_arcs.data(), graph_.arc_heads().data(),
                   weight, loads);
  scratch.num_touched = loads.num_touched;
  return extent.arcs_scanned;
}

void GraphNetwork::route_flow(const Flow& flow, LinkLoads& loads) const {
  if (loads.num_channels() != num_channels()) {
    throw std::invalid_argument("route_flow: loads shape mismatch");
  }
  validate_flow(flow);
  const GroupFlow seed{flow.src, flow.bytes};
  RoutingScratch& scratch = routing_scratch();
  scratch.prepare(graph_);
  scratch.begin_chunk();
  route_group(flow.dst, {&seed, 1}, scratch);
  // One group adds to each arc at most once, so adding its chunk entry
  // (0.0 + share) is the same addition as routing into `loads` directly.
  double* const out = loads.raw().data();
  for (std::size_t i = 0; i < scratch.num_touched; ++i) {
    const std::uint32_t arc = scratch.touched[i];
    out[arc] += scratch.chunk_loads[arc];
  }
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
  // prefix sums are the destination groups. Every buffer comes from the
  // calling thread's reusable arena.
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

  // Chunks of destination groups are accumulated independently, each into
  // its thread's sparse chunk loads, and merged in chunk order: the
  // chunking depends only on the input, so the result is byte-identical
  // for any thread count. The merge adds only the arcs a chunk touched:
  // any other arc would add +0.0, which leaves a non-negative load
  // unchanged (DESIGN.md decision #22).
  constexpr std::size_t kGroupsPerChunk = 16;
  const std::size_t num_chunks =
      (num_groups + kGroupsPerChunk - 1) / kGroupsPerChunk;
  if (call.chunks.size() < num_chunks) call.chunks.resize(num_chunks);
  ChunkResult* const chunks = call.chunks.data();
  sweep::parallel_for(static_cast<std::int64_t>(num_chunks),
                      [&](std::int64_t c) {
    const auto chunk = static_cast<std::size_t>(c);
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
    scratch.prepare(graph_);
    scratch.begin_chunk();
    ChunkResult& result = chunks[chunk];
    result.arcs_scanned = 0;
    for (std::size_t g = first_group; g < last_group; ++g) {
      result.arcs_scanned += route_group(
          groups[g].dst, {sorted + groups[g].first, groups[g].count},
          scratch);
    }
    result.loads.resize(scratch.num_touched);
    for (std::size_t i = 0; i < scratch.num_touched; ++i) {
      const std::uint32_t arc = scratch.touched[i];
      result.loads[i] = {arc, scratch.chunk_loads[arc]};
    }
  });
  double* const out = total.raw().data();
  std::uint64_t arcs_scanned = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (const ArcLoad& entry : chunks[c].loads) out[entry.arc] += entry.load;
    arcs_scanned += chunks[c].arcs_scanned;
  }

  note_scratch_bytes(call.bytes());

  // Flushed once per call: one BFS (and overlay build) per destination
  // group, and the arcs those searches scanned before they stopped.
  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("net.graph.route_all").add(1);
    registry->counter("net.graph.flows").add(count);
    registry->counter("net.graph.bfs_invocations").add(num_groups);
    registry->counter("net.graph.arcs_touched").add(arcs_scanned);
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
