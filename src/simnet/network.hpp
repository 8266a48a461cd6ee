// The contention-network abstraction and its torus backend.
//
// Network is the topology-agnostic seam of the flow simulator: a backend
// routes flows into per-channel byte loads, and the shared completion-time
// model (max-congestion fluid model, optionally floored by a per-node
// injection cap) turns loads into seconds. Two backends exist:
//
//  * TorusNetwork (this header) — dimension-ordered minimal ring routing on
//    a topo::Torus, kept on its specialized allocation-free incremental-
//    index path, plus closed forms for group exchanges (route_exchange) and
//    translations (route_shift).
//    Channels are (node, dimension, direction) triples.
//  * GraphNetwork (simnet/graph_network.hpp) — BFS shortest paths with
//    ECMP-style fractional splitting over any topo::Graph. Channels are
//    directed CSR arcs.
//
// Torus channel conventions: every node has, per torus dimension, a +
// channel and a − channel (a directed link to its ring successor /
// predecessor). Dimensions of length 1 have no channels; dimensions of
// length 2 collapse both directions onto the single physical link (the
// sender-side + channel is charged). Antipodal ties are broken per
// TieBreak; splitting yields fractional loads, the fluid-model
// idealization of Blue Gene/Q's adaptive routing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simnet/flow.hpp"
#include "simnet/traffic.hpp"
#include "topo/torus.hpp"

namespace npac::simnet {

/// Blue Gene/Q link bandwidth: 2 GB per second per direction [12].
inline constexpr double kBgqLinkBytesPerSecond = 2.0e9;

struct NetworkOptions {
  double link_bytes_per_second = kBgqLinkBytesPerSecond;
  TieBreak tie_break = TieBreak::kSplit;
  /// Per-node injection/ejection cap in bytes per second; 0 disables the
  /// cap. Blue Gene/Q nodes inject at most 10 links' worth of traffic.
  double injection_bytes_per_second = 0.0;
};

/// Per-channel byte loads produced by routing a set of flows. A channel is
/// whatever directed unit the backend routes onto: arc-indexed storage with
/// an optional torus (node, dimension, direction) layout adapter on top.
class LinkLoads {
 public:
  /// Generic arc-indexed storage (GraphNetwork channels).
  explicit LinkLoads(std::size_t num_channels);

  /// Torus layout: channel (node, dim, direction) at index
  /// (node * num_dims + dim) * 2 + direction.
  LinkLoads(std::int64_t num_nodes, std::size_t num_dims);

  std::size_t num_channels() const { return loads_.size(); }

  double& operator[](std::size_t channel) { return loads_[channel]; }
  double operator[](std::size_t channel) const { return loads_[channel]; }

  /// True when the torus (node, dim, direction) accessors are available.
  bool torus_shaped() const { return num_dims_ > 0; }

  /// Torus dimensions of the layout; 0 for generic arc-indexed storage.
  std::size_t num_dims() const { return num_dims_; }

  /// Channel index for (node, dimension, direction). direction: 0 = +, 1 = −.
  /// Requires torus_shaped().
  std::size_t channel_index(topo::VertexId node, std::size_t dim,
                            int direction) const;

  double& at(topo::VertexId node, std::size_t dim, int direction);
  double at(topo::VertexId node, std::size_t dim, int direction) const;

  std::span<const double> raw() const { return loads_; }
  std::span<double> raw() { return loads_; }

  double max_load() const;

  /// Sum of all channel loads (byte-hops), for flow-conservation checks.
  double total_load() const;

  /// Maximum load among channels of one dimension. Requires torus_shaped().
  double max_load_in_dim(std::size_t dim) const;

 private:
  void require_torus_shape() const;

  std::int64_t num_nodes_ = 0;
  std::size_t num_dims_ = 0;  // 0 = generic arc-indexed storage
  std::vector<double> loads_;
};

/// One priced communication phase.
struct PhaseCost {
  double seconds = 0.0;      ///< completion time, injection cap included
  double max_load = 0.0;     ///< the largest channel load
  double total_bytes = 0.0;  ///< bytes that cross between nodes
};

/// The simulated interconnect of one partition: routes flows to channel
/// loads and prices them under the max-congestion completion-time model.
class Network {
 public:
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const NetworkOptions& options() const { return options_; }

  /// Number of injecting/ejecting endpoints (flow src/dst range).
  virtual std::int64_t num_nodes() const = 0;

  /// Number of directed channels loads are accumulated in.
  virtual std::size_t num_channels() const = 0;

  /// An all-zero LinkLoads of this network's channel shape.
  virtual LinkLoads make_loads() const;

  /// Routes one flow, adding its bytes to `loads`.
  virtual void route_flow(const Flow& flow, LinkLoads& loads) const = 0;

  /// Routes every flow and returns the accumulated loads. Results are
  /// deterministic: independent of thread count and scheduling.
  virtual LinkLoads route_all(std::span<const Flow> flows) const = 0;

  /// Routes a group exchange and returns its loads. The base expands it
  /// to flows (GroupExchange::flows) and calls route_all, so any backend
  /// prices it; a backend with a closed form overrides.
  virtual LinkLoads route_exchange(const GroupExchange& exchange) const;

  /// Routes a torus shift and returns its loads. The base checks it
  /// against num_nodes(), expands it (TorusShift::flows) and calls
  /// route_all, so any backend whose vertex ids number the shift's torus
  /// prices it; a backend with a closed form overrides.
  virtual LinkLoads route_shift(const TorusShift& shift) const;

  /// Routes `flows`, scans their loads once and prices them; total_bytes
  /// sums the bytes of the flows between distinct nodes, in order.
  PhaseCost price_flows(std::span<const Flow> flows) const;

  /// price_flows(shift.flows()) with the loads from route_shift: the flows
  /// are built only for an injection cap, and only when one is set.
  PhaseCost price_shift(const TorusShift& shift) const;

  /// Prices one nearest-neighbour halo phase of `bytes` per neighbour. The
  /// base prices halo_flows(bytes) with price_flows; a backend whose halo
  /// has a closed form overrides.
  virtual PhaseCost price_halo(double bytes) const;

  /// Completion time of a set of flows that start simultaneously:
  /// max-channel-time, floored by the injection cap when one is configured.
  double completion_seconds(std::span<const Flow> flows) const;

  /// Completion time given precomputed loads plus the flows' injection
  /// profile (exposed so callers can reuse loads).
  double completion_seconds(const LinkLoads& loads,
                            std::span<const Flow> flows) const;

  /// completion_seconds for a caller that has already scanned
  /// `max_load` == loads.max_load() (to record it): a backend whose drain
  /// time is max_load / link bandwidth prices from it without a second
  /// scan of the loads.
  double completion_seconds(const LinkLoads& loads, double max_load,
                            std::span<const Flow> flows) const;

  /// completion_seconds for a group exchange's loads, given `max_load` ==
  /// loads.max_load(), with the exchange's injection profile taken in
  /// closed form.
  double exchange_seconds(const LinkLoads& loads, double max_load,
                          const GroupExchange& exchange) const;

  /// Total hop count of the minimal route of a flow (for diagnostics).
  virtual std::int64_t path_hops(const Flow& flow) const = 0;

  /// Nearest-neighbour halo pattern of this network's topology: one flow
  /// of `bytes` per directed channel's endpoint pair (the contention-free
  /// baseline traffic). Backends emit their native flow order. The
  /// reference of price_halo, which a torus answers without these flows.
  virtual std::vector<Flow> halo_flows(double bytes) const = 0;

 protected:
  explicit Network(NetworkOptions options);

  /// Time for the most-loaded channel to drain. The base implementation
  /// assumes uniform unit-capacity channels (max_load / link bandwidth);
  /// capacity-weighted backends override.
  virtual double channel_seconds(const LinkLoads& loads) const;

  /// channel_seconds(loads) given `max_load` == loads.max_load(). The base
  /// calls channel_seconds(loads), which is exact for any override; a
  /// backend whose drain time is max_load / link bandwidth overrides this
  /// to skip the second scan.
  virtual double drain_seconds(const LinkLoads& loads, double max_load) const;

 private:
  /// Floors a drain time by the flows' injection profile when an injection
  /// cap is configured.
  double with_injection_cap(double seconds, std::span<const Flow> flows) const;

  NetworkOptions options_;
};

/// Torus backend: dimension-ordered minimal ring routing (see header
/// comment for channel conventions). Channels may carry per-dimension
/// capacities (Titan-style weighted tori): routing is capacity-blind
/// (minimal paths either way), but the completion model prices a channel's
/// drain as load / (dimension capacity * link bandwidth), matching the
/// capacity-aware GraphNetwork while keeping the allocation-free
/// incremental-index routing path.
class TorusNetwork final : public Network {
 public:
  /// Uniform capacities: every channel at torus.link_capacity().
  explicit TorusNetwork(topo::Torus torus, NetworkOptions options = {});

  /// Per-dimension capacities (dim_capacities.size() == torus.num_dims(),
  /// all positive).
  TorusNetwork(topo::Torus torus, std::vector<double> dim_capacities,
               NetworkOptions options = {});

  const topo::Torus& torus() const { return torus_; }
  const std::vector<double>& dim_capacities() const { return capacities_; }

  std::int64_t num_nodes() const override { return torus_.num_vertices(); }
  std::size_t num_channels() const override;
  LinkLoads make_loads() const override;
  /// Throws std::invalid_argument, before touching `loads`, on a torus of
  /// more than 2^32 - 1 vertices (route_all and route_exchange too) and on
  /// loads not of make_loads()'s shape.
  void route_flow(const Flow& flow, LinkLoads& loads) const override;
  /// One pass over the flows in input order on the allocation-free
  /// incremental-index path, adding straight into the result: the same
  /// bits as a route_flow loop into one LinkLoads.
  LinkLoads route_all(std::span<const Flow> flows) const override;
  /// Closed form: per ring, a group's pair weights are a rank-1 product,
  /// accumulated as exact integer half rank-pairs in difference arrays
  /// (DESIGN.md decision #19). Never builds a flow; single-threaded and
  /// exact, so independent of thread count.
  LinkLoads route_exchange(const GroupExchange& exchange) const override;
  /// Closed form: every channel of a (dimension, direction) class takes
  /// the same addends, so each class is filled once, O(channels), with
  /// repeated_sum of its addend; the same bits as route_all(shift.flows())
  /// (DESIGN.md decision #24). Never builds a flow. Throws
  /// std::invalid_argument on a shift of other dims, a failing
  /// TorusShift::check, or a class whose channels would take addends of
  /// two values.
  LinkLoads route_shift(const TorusShift& shift) const override;
  /// price_shift(TorusShift::halo(torus(), bytes)).
  PhaseCost price_halo(double bytes) const override;
  std::int64_t path_hops(const Flow& flow) const override;
  std::vector<Flow> halo_flows(double bytes) const override;

 protected:
  /// Capacity-aware drain time; falls back to the base (max_load / bw)
  /// fast path when every dimension has unit capacity. Weighted tori throw
  /// std::invalid_argument on loads not of make_loads()'s shape.
  double channel_seconds(const LinkLoads& loads) const override;
  /// With unit capacities, max_load / bw from the caller's scan; weighted
  /// tori keep their per-dimension scan.
  double drain_seconds(const LinkLoads& loads, double max_load) const override;

 private:
  topo::Torus torus_;
  std::vector<double> capacities_;  // one per dimension
  bool unit_capacities_ = true;
};

}  // namespace npac::simnet
