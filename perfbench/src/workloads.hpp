// The benchmark's three workloads, each a fixed list of operations run
// against the npac library's public API:
//  * sched_stream — streaming scheduler runs (one operation = one stream);
//  * caps_bulk    — CAPS / N-body contention pricing on the Mira torus
//                   (one operation = one pricing call);
//  * design_sweep — the what-if design sweep on a sweep::ThreadPool
//                   (one operation = one row).
// A plain pass (tracer == nullptr) calls the library directly; a traced
// pass routes the same calls through the decorators in decorators.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::uint64_t seed = 42;
  /// Thread budget T: pool workers of design_sweep, OpenMP team of
  /// caps_bulk.
  int threads = 1;
  /// Small inputs for tests and quick checks (pins do not apply).
  bool smoke = false;
};

/// One operation's outputs. `values` compare at 1e-9 relative and `exact`
/// compare exactly, against the pins and between passes.
struct OpResult {
  std::string key;      ///< stable operation id, e.g. "mira/best-bisection/100000"
  bool seeded = false;  ///< outputs depend on the workload seed
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  std::string error;    ///< non-empty: an exception or a broken invariant
  double seconds = 0.0;       ///< wall time of the operation
  double jobs = 0.0;          ///< jobs placed
  double run_seconds = 0.0;   ///< StreamingScheduler::run time of those jobs
  double node_pairs = 0.0;    ///< ordered node pairs priced (by definition)
};

/// Equality of two results' outputs (not of their timings): exact fields
/// and errors exactly, values to 1e-9 relative.
bool same_outputs(const OpResult& a, const OpResult& b);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what passes reuse (allocators and their layout-score warm-up,
  /// geometry lists, the thread pool). May be called repeatedly; each call
  /// replaces the previous state. `tracer` (may be null) observes it.
  virtual void setup(Tracer* tracer) = 0;

  /// Runs every operation once, results in a fixed order. Traced when
  /// `tracer` is non-null.
  virtual std::vector<OpResult> pass(Tracer* tracer) = 0;

  /// Worker threads of the sweep pool (1 when the workload is serial).
  virtual int pool_workers() const = 0;
  /// Threads of the OpenMP team route_all may open.
  virtual int omp_team() const = 0;
  /// Wall time of one full-size pass on the reference host (a 4-vCPU
  /// Xeon virtual machine, T = 4). A run makes --seconds over this many
  /// passes, so the pass count does not depend on the code's speed.
  virtual double nominal_pass_seconds() const = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

}  // namespace perfbench
