#include "simnet/pingpong.hpp"

#include <stdexcept>
#include <vector>

namespace npac::simnet {

namespace {

/// Validates `config` and returns one chunk's bytes. Chunks within a round
/// are serialized (the paper sends 16 chunks back-to-back), so a round
/// costs chunks * chunk-time under the fluid model.
double chunk_bytes(const PingPongConfig& config) {
  if (config.total_rounds < 1 || config.warmup_rounds < 0 ||
      config.warmup_rounds >= config.total_rounds) {
    throw std::invalid_argument("run_pingpong: invalid round configuration");
  }
  if (config.bytes_per_round <= 0.0 || config.chunks_per_round < 1) {
    throw std::invalid_argument("run_pingpong: invalid volume configuration");
  }
  return config.bytes_per_round / static_cast<double>(config.chunks_per_round);
}

/// The protocol's times from one priced chunk.
PingPongResult rounds(const PingPongConfig& config, const PhaseCost& chunk) {
  const double round_seconds =
      chunk.seconds * static_cast<double>(config.chunks_per_round);

  PingPongResult result;
  result.seconds_per_round = round_seconds;
  result.max_channel_bytes_per_round =
      chunk.max_load * static_cast<double>(config.chunks_per_round);
  result.total_seconds =
      round_seconds * static_cast<double>(config.total_rounds);
  result.measured_seconds =
      round_seconds *
      static_cast<double>(config.total_rounds - config.warmup_rounds);
  return result;
}

}  // namespace

PingPongResult run_pingpong(const Network& network,
                            std::span<const Flow> pairing,
                            const PingPongConfig& config) {
  const double bytes = chunk_bytes(config);
  std::vector<Flow> flows(pairing.begin(), pairing.end());
  for (Flow& flow : flows) flow.bytes = bytes;
  return rounds(config, network.price_flows(flows));
}

PingPongResult run_pingpong(const TorusNetwork& network,
                            const PingPongConfig& config) {
  const double bytes = chunk_bytes(config);
  return rounds(config, network.price_shift(
                            TorusShift::antipodal(network.torus(), bytes)));
}

PingPongResult run_pingpong(const bgq::Geometry& geometry,
                            const PingPongConfig& config,
                            const NetworkOptions& options) {
  const TorusNetwork network(geometry.node_torus(), options);
  return run_pingpong(network, config);
}

}  // namespace npac::simnet
