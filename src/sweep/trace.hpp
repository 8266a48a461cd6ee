// Synthetic workload traces for scheduler Monte Carlo studies.
//
// The paper's Future Work (Section 5) asks how much a scheduler gains from
// knowing which jobs are contention-bound. Answering that statistically
// needs many job streams with controlled mixes; this module generates them
// reproducibly — sizes drawn from the machine's allocatable sizes (Mira's
// scheduler list by default), a configurable contention-bound fraction,
// exponential-ish arrival bursts — and serializes them so a trace can be
// archived and replayed exactly.
//
// Determinism contract: generate_trace is a pure function of
// (machine, config, seed). It uses its own inline distributions instead of
// <random>'s (whose outputs are implementation-defined), so traces are
// reproducible across standard libraries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgq/machine.hpp"
#include "core/scheduler.hpp"
#include "core/scheduler_stream.hpp"

namespace npac::sweep {

struct TraceConfig {
  int num_jobs = 48;
  /// Probability that a job is contention-bound (network-bound).
  double contention_fraction = 2.0 / 3.0;
  /// Mean of the exponential interarrival gap between jobs.
  double mean_interarrival_seconds = 2.0;
  /// Base runtimes are uniform in [min, max] (on a best-bisection box).
  double min_base_seconds = 20.0;
  double max_base_seconds = 40.0;
  /// Job sizes are drawn uniformly from this list; empty selects the
  /// machine-feasible subset of Mira's scheduler sizes (paper Table 6).
  std::vector<std::int64_t> sizes;
};

/// The sizes Mira's scheduler list offers that fit `machine` — the default
/// size pool for traces.
std::vector<std::int64_t> default_trace_sizes(const bgq::Machine& machine);

/// Deterministic synthetic job stream: ids 0..num_jobs-1, non-decreasing
/// arrivals, ready for core::simulate_schedule.
std::vector<core::Job> generate_trace(const bgq::Machine& machine,
                                      const TraceConfig& config,
                                      std::uint64_t seed);

/// Machine-agnostic variant: job sizes are drawn from `size_pool` (in the
/// target machine's allocation units — midplanes, chassis, or pod
/// subtrees). The draw sequence is identical to the bgq overload with the
/// same effective pool, so cross-family sweeps can replay one trace on
/// every machine of an equal-unit-count tier. Drains a SyntheticJobSource.
std::vector<core::Job> generate_trace(
    const std::vector<std::int64_t>& size_pool, const TraceConfig& config,
    std::uint64_t seed);

/// The one draw loop behind every synthetic trace: yields the job sequence
/// one job at a time, so the event-driven scheduler can consume
/// million-job traces without a million-element vector ever existing;
/// generate_trace collects the same sequence into a vector.
class SyntheticJobSource final : public core::JobSource {
 public:
  /// `config.sizes` is ignored in favor of `size_pool`. Throws
  /// std::invalid_argument for an invalid config or an empty pool.
  SyntheticJobSource(std::vector<std::int64_t> size_pool, TraceConfig config,
                     std::uint64_t seed);
  std::optional<core::Job> next() override;

 private:
  std::vector<std::int64_t> sizes_;
  TraceConfig config_;
  std::uint64_t state_;
  int produced_ = 0;
  double arrival_ = 0.0;
};

/// Round-trip-exact decimal rendering ("%.17g") — the double format of
/// every sweep CSV artifact, so byte-identity checks compare like with
/// like.
std::string format_exact(double value);

/// CSV serialization (header + one row per job). Doubles are rendered
/// round-trip exactly.
std::string format_trace(const std::vector<core::Job>& jobs);

/// Inverse of format_trace. Throws std::invalid_argument on malformed
/// input.
std::vector<core::Job> parse_trace(const std::string& text);

// --- deterministic inline RNG helpers (exposed for tests) ----------------

/// xorshift-multiply step; mutates and returns the state. Never yields 0
/// streaks; full period 2^64 - 1 on nonzero states (state 0 is remapped).
std::uint64_t next_u64(std::uint64_t& state);

/// Uniform double in [0, 1) with 53 random bits.
double next_unit(std::uint64_t& state);

}  // namespace npac::sweep
