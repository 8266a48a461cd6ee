#include "iso/brute_force.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/pool.hpp"

namespace npac::iso {

namespace {

/// Enumeration chunking, a function of the subset count only: at least
/// 2^14 subsets per chunk (below that the pool hand-off costs more than
/// the enumeration, so small instances run inline; no chunk is ever
/// empty) and at most 64 chunks.
std::int64_t chunk_count(std::int64_t subsets) {
  constexpr std::int64_t kMinSubsetsPerChunk = std::int64_t{1} << 14;
  constexpr std::int64_t kMaxChunks = 64;
  return std::clamp<std::int64_t>(subsets / kMinSubsetsPerChunk, 1,
                                  kMaxChunks);
}

/// Binomial coefficients C(n, k) for n <= 62, saturating at int64 max.
std::int64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  std::int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    // result * (n - k + i) may overflow only for huge n; n <= 62 keeps the
    // intermediate below 2^62 for all cases we enumerate in practice.
    result = result * (n - k + i) / i;
  }
  return result;
}

/// The `rank`-th t-subset of [0, n) in colexicographic Gosper order.
std::uint64_t unrank_combination(int n, int t, std::int64_t rank) {
  std::uint64_t mask = 0;
  int remaining = t;
  std::int64_t r = rank;
  for (int position = n - 1; position >= 0 && remaining > 0; --position) {
    const std::int64_t without = binomial(position, remaining);
    if (r >= without) {
      mask |= std::uint64_t{1} << position;
      r -= without;
      --remaining;
    }
  }
  return mask;
}

/// Advances `mask` to the next t-subset in Gosper order.
std::uint64_t next_combination(std::uint64_t mask) {
  const std::uint64_t c = mask & (~mask + 1);
  const std::uint64_t r = mask + c;
  return (((r ^ mask) >> 2) / c) | r;
}

struct AdjacencyCache {
  std::vector<std::uint64_t> adj_mask;  // neighbor bitmask per vertex
  std::vector<std::vector<topo::Arc>> arcs;
  bool uniform = true;
  double uniform_capacity = 1.0;
};

AdjacencyCache build_cache(const topo::Graph& graph) {
  const auto n = graph.num_vertices();
  AdjacencyCache cache;
  cache.adj_mask.assign(static_cast<std::size_t>(n), 0);
  cache.arcs.resize(static_cast<std::size_t>(n));
  bool first = true;
  for (topo::VertexId v = 0; v < n; ++v) {
    for (const topo::Arc& a : graph.neighbors(v)) {
      cache.adj_mask[static_cast<std::size_t>(v)] |= std::uint64_t{1}
                                                     << a.to;
      cache.arcs[static_cast<std::size_t>(v)].push_back(a);
      if (first) {
        cache.uniform_capacity = a.capacity;
        first = false;
      } else if (a.capacity != cache.uniform_capacity) {
        cache.uniform = false;
      }
    }
  }
  return cache;
}

double cut_of_mask(const AdjacencyCache& cache, std::uint64_t mask) {
  double cut = 0.0;
  std::uint64_t scan = mask;
  if (cache.uniform) {
    std::int64_t crossing = 0;
    while (scan != 0) {
      const int v = std::countr_zero(scan);
      scan &= scan - 1;
      crossing += std::popcount(cache.adj_mask[static_cast<std::size_t>(v)] &
                                ~mask);
    }
    cut = cache.uniform_capacity * static_cast<double>(crossing);
  } else {
    while (scan != 0) {
      const int v = std::countr_zero(scan);
      scan &= scan - 1;
      for (const topo::Arc& a : cache.arcs[static_cast<std::size_t>(v)]) {
        if ((mask & (std::uint64_t{1} << a.to)) == 0) cut += a.capacity;
      }
    }
  }
  return cut;
}

double volume_of_mask(const AdjacencyCache& cache, std::uint64_t mask) {
  double volume = 0.0;
  std::uint64_t scan = mask;
  while (scan != 0) {
    const int v = std::countr_zero(scan);
    scan &= scan - 1;
    for (const topo::Arc& a : cache.arcs[static_cast<std::size_t>(v)]) {
      volume += a.capacity;
    }
  }
  return volume;
}

/// A subset score and the mask of the subset that attains it.
struct FirstMinimum {
  double value = std::numeric_limits<double>::infinity();
  std::uint64_t mask = 0;
};

/// The first minimum of `score(mask)` over the `size`-subsets of [0, n) in
/// Gosper order, and its mask. The enumeration runs in chunks on
/// sweep::parallel_for; each chunk keeps its first minimum in rank order,
/// and scanning the chunks in order with a strict < then keeps the global
/// first minimum, so value and mask do not depend on the thread count.
template <typename Score>
FirstMinimum first_minimum(int n, int size, const Score& score) {
  const std::int64_t total = binomial(n, size);
  const std::int64_t chunks = chunk_count(total);
  std::vector<FirstMinimum> chunk_min(static_cast<std::size_t>(chunks));
  // The chunk scan is the inner loop of allocator layout scoring. Kept out
  // of line and aligned to a cache line, its loop sits at the same offset
  // from a line boundary whatever code the linker places before it: a
  // 16-byte shift of unrelated code once moved perfbench sched_stream's
  // setup_s by 30%.
  sweep::parallel_for(chunks, [&](std::int64_t chunk)
                                  __attribute__((noinline, aligned(64))) {
    const auto [begin, end] = sweep::balanced_range(total, chunks, chunk);
    std::uint64_t mask = unrank_combination(n, size, begin);
    FirstMinimum local;
    for (std::int64_t i = begin; i < end; ++i) {
      const double value = score(mask);
      if (value < local.value) local = {value, mask};
      if (i + 1 < end) mask = next_combination(mask);
    }
    chunk_min[static_cast<std::size_t>(chunk)] = local;
  });
  FirstMinimum best;
  for (const FirstMinimum& local : chunk_min) {
    if (local.value < best.value) best = local;
  }
  return best;
}

/// Throws std::invalid_argument unless 1 <= |V| <= 62 and 1 <= t <= |V|.
void check_instance(const topo::Graph& graph, std::int64_t t,
                    const std::string& name) {
  if (graph.num_vertices() < 1 || graph.num_vertices() > 62) {
    throw std::invalid_argument(name + ": need 1 <= |V| <= 62");
  }
  if (t < 1 || t > graph.num_vertices()) {
    throw std::invalid_argument(name + ": t out of range");
  }
}

}  // namespace

BruteForceResult brute_force_isoperimetric(const topo::Graph& graph,
                                           std::int64_t t) {
  check_instance(graph, t, "brute_force_isoperimetric");
  const int n = static_cast<int>(graph.num_vertices());
  const AdjacencyCache cache = build_cache(graph);
  const FirstMinimum best =
      first_minimum(n, static_cast<int>(t), [&](std::uint64_t mask) {
        return cut_of_mask(cache, mask);
      });
  BruteForceResult result;
  result.min_cut = best.value;
  result.witness_mask = best.mask;
  result.subsets_examined =
      static_cast<std::uint64_t>(binomial(n, static_cast<int>(t)));
  return result;
}

double brute_force_small_set_expansion(const topo::Graph& graph,
                                       std::int64_t t) {
  check_instance(graph, t, "brute_force_small_set_expansion");
  const int n = static_cast<int>(graph.num_vertices());
  const AdjacencyCache cache = build_cache(graph);
  double best = std::numeric_limits<double>::infinity();
  for (int size = 1; size <= t; ++size) {
    const FirstMinimum local = first_minimum(n, size, [&](std::uint64_t mask) {
      const double volume = volume_of_mask(cache, mask);
      return volume > 0.0 ? cut_of_mask(cache, mask) / volume
                          : std::numeric_limits<double>::infinity();
    });
    best = std::min(best, local.value);
  }
  return best;
}

}  // namespace npac::iso
