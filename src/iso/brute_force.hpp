// Exact edge-isoperimetric oracle by exhaustive subset enumeration.
//
// Infeasible beyond ~30 vertices, but indispensable: every closed form and
// every "optimal" construction in this library (Theorem 3.1 cuboids, Harper
// sets, Lindsey sets) is validated against this oracle on small instances,
// which is what makes the formula layer trustworthy at machine scale.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"

namespace npac::iso {

struct BruteForceResult {
  double min_cut = 0.0;                  ///< capacity of the minimal perimeter
  std::uint64_t witness_mask = 0;        ///< one optimal subset (bitmask)
  std::uint64_t subsets_examined = 0;
};

/// Minimum cut capacity over all vertex subsets of size exactly t.
/// Requires graph.num_vertices() <= 62. Large enumerations run in chunks
/// on sweep::parallel_for; the result (witness included: the first optimal
/// subset in enumeration order) does not depend on the thread count.
BruteForceResult brute_force_isoperimetric(const topo::Graph& graph,
                                           std::int64_t t);

/// Minimum of cut/volume over all subsets A with 1 <= |A| <= t, where
/// volume(A) = 2 * interior(A) + cut(A) (capacity-weighted degree sum).
/// This is the small-set expansion h_t(G) of Section 2.
double brute_force_small_set_expansion(const topo::Graph& graph,
                                       std::int64_t t);

}  // namespace npac::iso
