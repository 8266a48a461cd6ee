// Round-based ping-pong benchmark engine (paper Experiment A).
//
// Mirrors the paper's protocol: each node pair exchanges a fixed total
// volume per round, split into fixed-size chunks; a configurable number of
// warm-up rounds is excluded from the reported time. Under the fluid model
// warm-up rounds cost the same as measured rounds, but they are simulated
// anyway so the engine's accounting matches the experimental script.
#pragma once

#include <cstdint>

#include "bgq/geometry.hpp"
#include "simnet/network.hpp"
#include "simnet/traffic.hpp"

namespace npac::simnet {

struct PingPongConfig {
  int total_rounds = 30;
  int warmup_rounds = 4;
  /// Bytes exchanged per pair per round (paper: 2 GB total, sent as 16
  /// chunks of 0.1342 GB).
  double bytes_per_round = 2.0e9;
  int chunks_per_round = 16;
};

struct PingPongResult {
  double measured_seconds = 0.0;  ///< time of the counted rounds
  double total_seconds = 0.0;     ///< including warm-up
  double seconds_per_round = 0.0;
  double max_channel_bytes_per_round = 0.0;
};

/// Runs the ping-pong protocol over an explicit pairing pattern on any
/// network backend: each flow of `pairing` exchanges
/// config.bytes_per_round bytes per round, sent as chunks_per_round
/// serialized chunks (the pattern's own bytes fields are ignored).
PingPongResult run_pingpong(const Network& network,
                            std::span<const Flow> pairing,
                            const PingPongConfig& config = {});

/// Runs the furthest-node ping-pong on an arbitrary torus network, pricing
/// TorusShift::antipodal in closed form (Network::price_shift): the same
/// result as the explicit overload on furthest_node_pairing's flows.
PingPongResult run_pingpong(const TorusNetwork& network,
                            const PingPongConfig& config = {});

/// Convenience wrapper: builds the node torus of a Blue Gene/Q geometry and
/// runs the ping-pong on it.
PingPongResult run_pingpong(const bgq::Geometry& geometry,
                            const PingPongConfig& config = {},
                            const NetworkOptions& options = {});

}  // namespace npac::simnet
