#include "strassen/caps.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace npac::strassen {

namespace {

constexpr double kBytesPerElement = 8.0;  // double precision

// Whether factor^times divides `value` (value >= 1, factor >= 2). Divides
// the value down instead of building the power, which overflows int64 for
// exponents the check must still reject (7^23 > 2^63).
bool divisible_by_power(std::int64_t value, std::int64_t factor, int times) {
  for (int i = 0; i < times; ++i) {
    if (value % factor != 0) return false;
    value /= factor;
  }
  return true;
}

void check_params(const CapsParams& params) {
  if (params.n < 1) {
    throw std::invalid_argument("CapsParams: n must be >= 1");
  }
  if (params.ranks < 1) {
    throw std::invalid_argument("CapsParams: ranks must be >= 1");
  }
  if (params.bfs_steps < 0) {
    throw std::invalid_argument("CapsParams: bfs_steps must be >= 0");
  }
}

}  // namespace

std::optional<RankFactorization> factor_ranks(std::int64_t ranks,
                                              std::int64_t max_f) {
  if (ranks < 1 || max_f < 1) return std::nullopt;
  RankFactorization result;
  result.f = ranks;
  result.k = 0;
  while (result.f % 7 == 0) {
    result.f /= 7;
    ++result.k;
  }
  if (result.f > max_f) return std::nullopt;
  return result;
}

bool caps_dimension_ok(std::int64_t n, std::int64_t f, int k, int r) {
  if (n < 1 || f < 1 || k < 0 || r < 0) return false;
  if (n % f != 0) return false;
  const std::int64_t rest = n / f;
  const int half_up = k / 2 + k % 2;  // ceil(k / 2); k + 1 may overflow
  return divisible_by_power(rest, 2, r) &&
         divisible_by_power(rest, 7, half_up);
}

double caps_scatter_bytes_per_rank(const CapsParams& params, int step) {
  check_params(params);
  if (step < 0 || step >= params.bfs_steps) {
    throw std::invalid_argument("caps_scatter_bytes_per_rank: step out of range");
  }
  // At BFS step i the two operand matrices are split into 7^(i+1)
  // Winograd S/T pairs of dimension n / 2^(i+1); each rank holds a
  // 1 / P share of each and redistributes it within its group.
  const double half_dim =
      static_cast<double>(params.n) / std::pow(2.0, step + 1);
  const double pieces = std::pow(7.0, step + 1);
  const double elements_per_rank =
      2.0 * half_dim * half_dim * pieces / static_cast<double>(params.ranks);
  return elements_per_rank * kBytesPerElement;
}

double caps_gather_bytes_per_rank(const CapsParams& params, int step) {
  // The way back up moves one matrix (the product C) instead of the two
  // operands, hence half the scatter volume.
  return 0.5 * caps_scatter_bytes_per_rank(params, step);
}

double caps_total_memory_bytes(const CapsParams& params) {
  check_params(params);
  const double growth = std::pow(7.0 / 4.0, params.bfs_steps);
  const double n = static_cast<double>(params.n);
  return 3.0 * growth * kBytesPerElement * n * n;
}

double simulate_caps_communication(const simmpi::Communicator& comm,
                                   const CapsParams& params,
                                   simmpi::Timeline* timeline) {
  check_params(params);
  if (comm.size() != params.ranks) {
    throw std::invalid_argument(
        "simulate_caps_communication: communicator size != params.ranks");
  }
  if (!divisible_by_power(params.ranks, 7, params.bfs_steps)) {
    throw std::invalid_argument(
        "simulate_caps_communication: ranks must be divisible by 7^bfs_steps");
  }

  simmpi::Timeline local;
  simmpi::Timeline& sink = timeline != nullptr ? *timeline : local;

  double total_seconds = 0.0;
  // Descend: scatter the S/T operands of every BFS step. The gather of the
  // same step moves the identical node-level pattern at exactly half the
  // volume (one matrix instead of two), and the fluid model is linear in
  // bytes with a power-of-two factor — halving every pair halves every
  // channel load, injection sum, and completion time bit-exactly. So each
  // step is priced once and its gather phase is derived by scaling.
  std::vector<simmpi::PhaseRecord> scatter_records;
  scatter_records.reserve(static_cast<std::size_t>(params.bfs_steps));
  std::int64_t group = params.ranks;  // ranks / 7^step
  for (int step = 0; step < params.bfs_steps; ++step, group /= 7) {
    total_seconds += comm.run_phase(
        "bfs" + std::to_string(step) + ":scatter",
        comm.group_alltoall(group, caps_scatter_bytes_per_rank(params, step)),
        sink);
    scatter_records.push_back(sink.records().back());
  }
  // Ascend: gather the C products in reverse order. The volume ratio comes
  // from the per-rank byte API (currently exactly 0.5, a power of two, so
  // the scaling is bit-exact) — never hardcode it here, or the simulated
  // phases would silently diverge from caps_gather_bytes_per_rank.
  for (int step = params.bfs_steps - 1; step >= 0; --step) {
    const double ratio = caps_gather_bytes_per_rank(params, step) /
                         caps_scatter_bytes_per_rank(params, step);
    simmpi::PhaseRecord record =
        scatter_records[static_cast<std::size_t>(step)];
    record.label = "bfs" + std::to_string(step) + ":gather";
    record.seconds *= ratio;
    record.max_channel_bytes *= ratio;
    record.total_bytes *= ratio;
    total_seconds += record.seconds;
    sink.add(std::move(record));
  }
  return total_seconds;
}

std::vector<MatmulExperimentRow> table3_parameters() {
  // Paper Table 3, verbatim.
  return {
      {2048, 4, 31213, 16, 15.24, 32928},
      {4096, 8, 31213, 8, 7.62, 32928},
      {8192, 16, 31213, 4, 3.81, 32928},
      {12288, 24, 117649, 16, 9.57, 21952},
  };
}

std::vector<ScalingExperimentRow> table4_parameters() {
  // Paper Table 4, verbatim (n = 9408).
  return {
      {1024, 2, 2401, 4, 2.34, 256, 256},
      {2048, 4, 4802, 4, 2.34, 256, 512},
      {4096, 8, 9604, 4, 2.34, 512, 1024},
  };
}

}  // namespace npac::strassen
