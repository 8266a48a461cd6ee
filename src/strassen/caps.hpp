// CAPS — Communication-Avoiding Parallel Strassen (Ballard, Demmel, Holtz,
// Lipshitz, Schwartz) — communication model and simulator driver.
//
// The paper's Experiments B and C run the CAPS implementation on Mira with
// f * 7^k MPI ranks (1 <= f <= 6) and l BFS steps. At BFS step i the
// current 7^i subproblems, each distributed over P / 7^i ranks, split
// 7-ways: every rank scatters its shares of the seven Winograd S/T pairs
// across its group and later gathers its share of the seven C products.
// Each scatter/gather is a uniform redistribution *within the group*, so
// step 0 stresses the full-partition bisection while deeper steps stay
// local — exactly the geometry-sensitivity the paper measures (Figure 5:
// communication improves x1.37–x1.52 with the proposed partitions, less
// than the x2 bisection ratio because deep steps don't cross the
// bisection).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgq/geometry.hpp"
#include "simmpi/communicator.hpp"

namespace npac::strassen {

struct CapsParams {
  std::int64_t n = 0;      ///< matrix dimension
  std::int64_t ranks = 0;  ///< f * 7^k MPI ranks
  int bfs_steps = 0;       ///< number of BFS (breadth-first) steps
};

/// Decomposes `ranks` as f * 7^k with the largest possible k. Returns
/// nullopt when the leftover factor f exceeds `max_f` (the implementation
/// constraint quoted in Section 4.2 is f <= 6; Mira's 4-midplane run used
/// 31213 = 13 * 7^4 ranks, so callers may relax the cap).
struct RankFactorization {
  std::int64_t f = 1;
  int k = 0;
};
std::optional<RankFactorization> factor_ranks(std::int64_t ranks,
                                              std::int64_t max_f = 6);

/// The dimension constraint of the CAPS implementation: n must be a
/// multiple of f * 2^r * 7^ceil(k/2) for some integer r >= bfs-related
/// granularity. Checks the r = `r` instance.
bool caps_dimension_ok(std::int64_t n, std::int64_t f, int k, int r);

/// Per-rank bytes scattered at BFS step i (the S/T operand redistribution):
/// 2 matrices, each contributing (n/2^(i+1))^2 * 7^(i+1) / P elements.
double caps_scatter_bytes_per_rank(const CapsParams& params, int step);

/// Per-rank bytes gathered at BFS step i on the way back up (the C
/// product): half the scatter volume (one matrix instead of two).
double caps_gather_bytes_per_rank(const CapsParams& params, int step);

/// Total memory footprint across all ranks: 3 * (7/4)^l * sizeof(double) *
/// n^2 bytes (the quantity the paper compares against aggregate L2 in
/// Section 4.3).
double caps_total_memory_bytes(const CapsParams& params);

/// Simulated end-to-end communication time of one CAPS multiplication on a
/// partition: for each BFS step, a scatter phase and a gather phase, each a
/// uniform redistribution within the 7^i rank groups, timed by the fluid
/// contention model. Phases are recorded in `timeline` when non-null.
double simulate_caps_communication(const simmpi::Communicator& comm,
                                   const CapsParams& params,
                                   simmpi::Timeline* timeline = nullptr);

/// Rows of the paper's Table 3 (matrix multiplication experiment on Mira).
struct MatmulExperimentRow {
  std::int64_t nodes = 0;
  std::int64_t midplanes = 0;
  std::int64_t mpi_ranks = 0;
  std::int64_t max_active_cores = 0;
  double avg_cores_per_proc = 0.0;
  std::int64_t matrix_dimension = 0;
};
std::vector<MatmulExperimentRow> table3_parameters();

/// Rows of the paper's Table 4 (strong scaling experiment on Mira,
/// n = 9408).
struct ScalingExperimentRow {
  std::int64_t nodes = 0;
  std::int64_t midplanes = 0;
  std::int64_t mpi_ranks = 0;
  std::int64_t max_active_cores = 0;
  double avg_cores_per_proc = 0.0;
  std::int64_t current_bw = 0;
  std::int64_t proposed_bw = 0;
};
std::vector<ScalingExperimentRow> table4_parameters();

}  // namespace npac::strassen
