// Drivers that regenerate every table and figure of the paper's evaluation.
//
// Each function returns structured rows; the bench binaries render them via
// core/report.hpp. Figures 3-6 run the flow-level contention simulator in
// place of the dismantled Blue Gene/Q hardware (see DESIGN.md for why the
// fluid model reproduces the paper's ratios); Figures 1-2/7 and all tables
// are exact analytical outputs of the isoperimetric machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "simnet/pingpong.hpp"
#include "strassen/caps.hpp"
#include "topo/descriptor.hpp"

namespace npac::core {

// ---------------------------------------------------------------------------
// Experiment engine: the seam through which every figure/table driver
// obtains its expensive sub-results.
// ---------------------------------------------------------------------------

struct PairingComparison;

/// Backend for the experiment drivers below. The base class computes
/// everything serially; its geometry and bisection hooks read
/// partition_oracle(), so an engine that supplies a memoizing oracle
/// shares those tables with its allocators. sweep::SweepEngine overrides
/// only pingpong (memoized), partition_oracle and parallel_for (pooled),
/// so one code path serves both the plain API and the parallel bench/test
/// harness. Overrides must return exactly what the base implementation
/// would (pure functions of the arguments) — the drivers' outputs are
/// asserted byte-identical across engines and thread counts.
class ExperimentEngine {
 public:
  virtual ~ExperimentEngine() = default;

  /// bgq::feasible_sizes. Returned by shared_ptr so the memoizing engine
  /// hands out a reference to its one cached list (the tables iterate this
  /// per machine, per replication); never null, immutable.
  virtual std::shared_ptr<const std::vector<std::int64_t>> feasible_sizes(
      const bgq::Machine& machine);
  /// bgq::best_geometry: the front of partition_oracle().geometries().
  virtual std::optional<bgq::Geometry> best_geometry(const bgq::Machine& machine,
                                                     std::int64_t midplanes);
  /// bgq::worst_geometry: the back of partition_oracle().geometries().
  virtual std::optional<bgq::Geometry> worst_geometry(
      const bgq::Machine& machine, std::int64_t midplanes);
  /// bgq::propose_improvement, given best_geometry().
  virtual std::optional<bgq::Geometry> propose_improvement(
      const bgq::Machine& machine, const bgq::Geometry& current);
  /// simnet::run_pingpong on a partition geometry (default NetworkOptions).
  virtual simnet::PingPongResult pingpong(const bgq::Geometry& geometry,
                                          const simnet::PingPongConfig& config);
  /// The Experiment A row: the same ping-pong run on both geometries plus
  /// the measured and predicted speedups. Both runs go through pingpong(),
  /// so an engine that memoizes pingpong() routes each geometry once.
  virtual PairingComparison pairing(const bgq::Geometry& baseline,
                                    const bgq::Geometry& proposed,
                                    const simnet::PingPongConfig& config);
  /// Simulated CAPS communication time on one geometry (caps_comm_seconds).
  virtual double caps_comm_seconds(const bgq::Geometry& geometry,
                                   const strassen::CapsParams& params);
  /// core::topology_bisection — graph-backed bisection where the cuboid
  /// search does not apply, through partition_oracle().bisection().
  virtual TopologyBisection topology_bisection(const topo::TopologySpec& spec);
  /// core::topology_pairing_seconds — furthest-pairing contention time on
  /// the topology's preferred Network backend.
  virtual double topology_pairing_seconds(const topo::TopologySpec& spec,
                                          double bytes_per_pair);
  /// The PartitionOracle behind the geometry and bisection hooks, and the
  /// one scheduler/advisor queries running through this engine should use,
  /// so allocator layout scoring (geometry enumerations, sub-network
  /// bisections) shares the engine's memoization. The base engine returns
  /// the process-wide uncached oracle.
  virtual const PartitionOracle& partition_oracle();
  /// Runs fn(i) for i in [0, n); the base class loops serially in index
  /// order, pooled engines fan out. Row writes must be index-addressed.
  virtual void parallel_for(std::int64_t n,
                            const std::function<void(std::int64_t)>& fn);
};

/// Process-wide serial, uncached engine — what `engine = nullptr` means.
ExperimentEngine& serial_engine();

// ---------------------------------------------------------------------------
// Figures 1, 2, 7 and Tables 1, 2, 5, 6, 7: bisection-bandwidth analysis.
// ---------------------------------------------------------------------------

/// One size on Mira's scheduler list: the current geometry and, when the
/// bisection can be improved, the paper's proposed replacement.
struct MiraRow {
  std::int64_t midplanes = 0;
  std::int64_t nodes = 0;
  bgq::Geometry current{1, 1, 1, 1};
  std::int64_t current_bw = 0;
  std::optional<bgq::Geometry> proposed;  ///< set only when strictly better
  std::int64_t proposed_bw = 0;           ///< == current_bw when !proposed
};

/// Table 6 (all scheduler sizes) / Figure 1 (same data as a series).
std::vector<MiraRow> mira_rows(ExperimentEngine* engine = nullptr);

/// Table 1: the subset of mira_rows() where the bisection improves.
std::vector<MiraRow> table1_rows(ExperimentEngine* engine = nullptr);

/// One size on a free-cuboid machine: worst and best geometries.
struct BestWorstRow {
  std::int64_t midplanes = 0;
  std::int64_t nodes = 0;
  bgq::Geometry worst{1, 1, 1, 1};
  std::int64_t worst_bw = 0;
  bgq::Geometry best{1, 1, 1, 1};
  std::int64_t best_bw = 0;
};

/// Table 7 / Figure 2: every feasible JUQUEEN size.
std::vector<BestWorstRow> juqueen_rows(ExperimentEngine* engine = nullptr);

/// Table 2: the subset of juqueen_rows() where best and worst differ.
std::vector<BestWorstRow> table2_rows(ExperimentEngine* engine = nullptr);

/// Section 5's Sequoia analysis (no table in the paper — experiments were
/// impossible after its transition to classified work, but the analysis
/// applies): every feasible size of the 4 x 4 x 4 x 3 machine.
std::vector<BestWorstRow> sequoia_rows(ExperimentEngine* engine = nullptr);

/// The Sequoia sizes where the free-cuboid policy can hand out a
/// sub-optimal geometry.
std::vector<BestWorstRow> sequoia_improvable_rows(
    ExperimentEngine* engine = nullptr);

/// One size in the machine-design comparison (Table 5 / Figure 7): the
/// best-case bisection on JUQUEEN and on the hypothetical JUQUEEN-54 and
/// JUQUEEN-48. Fields are nullopt when the size does not fit the machine.
struct MachineDesignRow {
  std::int64_t midplanes = 0;
  std::optional<bgq::Geometry> juqueen, j54, j48;
  std::int64_t juqueen_bw = 0, j54_bw = 0, j48_bw = 0;
};

std::vector<MachineDesignRow> table5_rows(ExperimentEngine* engine = nullptr);

// ---------------------------------------------------------------------------
// ext_topologies: the Table 5 procurement question asked across network
// families — torus vs dragonfly vs fat-tree vs Hamming/HyperX vs hypercube
// at equal node count and equal link budget.
// ---------------------------------------------------------------------------

/// Bytes each ordered pair exchanges in the cross-topology pairing run.
inline constexpr double kTopologyPairingBytes = 1.0e9;

/// Completion time of the bisection pairing (`bytes_per_pair` per ordered
/// pair) on `spec`'s preferred Network backend (TorusNetwork for tori,
/// capacity-aware GraphNetwork otherwise) at the default 2 GB/s link
/// bandwidth and the topology's own capacities. Tori run the paper's
/// antipode pairing; every other family pairs host h with host
/// (h + H/2) mod H, the hotspot-free permutation across the id-space
/// bisection (fat-tree switches do not inject).
double topology_pairing_seconds(const topo::TopologySpec& spec,
                                double bytes_per_pair);

/// One point of the cross-topology machine-design grid.
struct TopologyDesignCase {
  std::string tier;          ///< equal-node-count tier label, e.g. "512"
  topo::TopologySpec spec;
  /// Total link capacity every tier member is normalized to (the tier's
  /// BG/Q torus budget), making the pairing times cost-comparable.
  double link_budget = 0.0;
};

/// The ext_topologies grid: per node-count tier (512 / 1024 / 2048), a
/// BG/Q-style torus and hypercube / HyperX / dragonfly / fat-tree peers.
/// `fast` keeps only the 512-node tier.
std::vector<TopologyDesignCase> topology_design_cases(bool fast);

struct TopologyDesignRow {
  TopologyDesignCase design_case;
  std::int64_t vertices = 0;
  std::int64_t hosts = 0;
  std::int64_t edges = 0;
  double link_capacity_total = 0.0;
  TopologyBisection bisection;
  /// Pairing completion at the tier's link budget: raw seconds scaled by
  /// link_capacity_total / link_budget (uniform capacity scaling commutes
  /// with the fluid model, so the scaled time is exact, not approximate).
  double pairing_seconds = 0.0;
};

/// Computes one grid row through the (possibly memoizing) engine.
TopologyDesignRow topology_design_row(const TopologyDesignCase& design_case,
                                      ExperimentEngine* engine = nullptr);

// ---------------------------------------------------------------------------
// Figures 3-4: bisection-pairing experiment (Experiment A).
// ---------------------------------------------------------------------------

/// The paper's protocol: 30 rounds (4 warm-up + 26 counted), 2 GiB per pair
/// per round sent as 16 chunks of 0.1342 GB, 2 GB/s/direction links.
simnet::PingPongConfig paper_pingpong_config();

/// One midplane count: the same ping-pong run on two geometries.
struct PairingComparison {
  std::int64_t midplanes = 0;
  bgq::Geometry baseline{1, 1, 1, 1};  ///< current (Mira) / worst (JUQUEEN)
  bgq::Geometry proposed{1, 1, 1, 1};
  simnet::PingPongResult baseline_result;
  simnet::PingPongResult proposed_result;
  /// baseline time / proposed time (paper: >= 1.92 where prediction is 2.0).
  double speedup = 1.0;
  /// proposed_bw / baseline_bw — the prediction the measurement validates.
  double predicted_speedup = 1.0;
};

/// Figure 3: Mira, 4/8/16/24 midplanes, current vs proposed.
std::vector<PairingComparison> fig3_mira_pairing(
    const simnet::PingPongConfig& config = paper_pingpong_config(),
    ExperimentEngine* engine = nullptr);

/// Figure 4: JUQUEEN, 4/6/8/12/16 midplanes, worst vs best.
std::vector<PairingComparison> fig4_juqueen_pairing(
    const simnet::PingPongConfig& config = paper_pingpong_config(),
    ExperimentEngine* engine = nullptr);

// ---------------------------------------------------------------------------
// Figure 5: CAPS Strassen-Winograd matrix multiplication (Experiment B).
// ---------------------------------------------------------------------------

struct MatmulComparison {
  std::int64_t midplanes = 0;
  strassen::CapsParams params;
  bgq::Geometry current{1, 1, 1, 1};
  bgq::Geometry proposed{1, 1, 1, 1};
  double current_comm_seconds = 0.0;
  double proposed_comm_seconds = 0.0;
  double comm_speedup = 1.0;  ///< current / proposed (paper: 1.37-1.52)
  /// Computation time the paper measured for this size (geometry-
  /// independent): 0.554 / 0.5115 / 0.4965 / 0.0604 s.
  double paper_computation_seconds = 0.0;
};

/// Simulated CAPS communication time of `params` on one geometry, with
/// ranks placed by the default blocked RankMap — the quantity Figures 5-6
/// compare across geometries.
double caps_comm_seconds(const bgq::Geometry& geometry,
                         const strassen::CapsParams& params);

/// Figure 5 / Table 3: Mira, 4/8/16/24 midplanes.
std::vector<MatmulComparison> fig5_matmul(int bfs_steps = 4,
                                          ExperimentEngine* engine = nullptr);

// ---------------------------------------------------------------------------
// Figure 6: strong-scaling illusion (Experiment C).
// ---------------------------------------------------------------------------

struct ScalingPoint {
  std::int64_t midplanes = 0;
  strassen::CapsParams params;
  bgq::Geometry current{1, 1, 1, 1};
  bgq::Geometry proposed{1, 1, 1, 1};
  double current_comm_seconds = 0.0;
  double proposed_comm_seconds = 0.0;
  /// Paper-measured computation seconds (9.84e-2 / 4.21e-2 / 2.98e-2).
  double paper_computation_seconds = 0.0;
};

/// Figure 6 / Table 4: Mira, 2/4/8 midplanes, n = 9408. The 2-midplane
/// point admits only one geometry, so current == proposed there.
std::vector<ScalingPoint> fig6_strong_scaling(int bfs_steps = 4,
                                              ExperimentEngine* engine = nullptr);

}  // namespace npac::core
