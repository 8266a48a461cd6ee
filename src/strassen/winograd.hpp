// Shared-memory Strassen–Winograd matrix multiplication.
//
// The 7-multiplication, 15-addition Winograd variant of Strassen's
// algorithm — the local kernel underlying the CAPS distributed algorithm
// benchmarked by the paper's Experiment B. Each level runs its seven
// products as four sections on sweep::parallel_for (so only the top level
// fans out; nested levels run inline) and falls back to the blocked
// classical multiply at the cutoff or on odd dimensions.
#pragma once

#include <cstdint>

#include "strassen/matrix.hpp"

namespace npac::strassen {

struct WinogradOptions {
  std::int64_t cutoff = 64;  ///< classical fallback below this dimension
};

/// C = A * B for square matrices via Strassen–Winograd. Dimensions need not
/// be powers of two; odd sizes fall back to the classical multiply at that
/// level.
Matrix strassen_winograd(const Matrix& a, const Matrix& b,
                         const WinogradOptions& options = {});

/// Flop count of Strassen–Winograd with `bfs_steps` recursion levels before
/// switching to the classical algorithm: 7^l * classical(n/2^l) plus 15
/// additions of quarter-size blocks per level.
double strassen_flops(std::int64_t n, int levels);

}  // namespace npac::strassen
