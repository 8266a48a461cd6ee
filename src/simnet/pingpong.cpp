#include "simnet/pingpong.hpp"

#include <stdexcept>
#include <vector>

namespace npac::simnet {

PingPongResult run_pingpong(const Network& network,
                            std::span<const Flow> pairing,
                            const PingPongConfig& config) {
  if (config.total_rounds < 1 || config.warmup_rounds < 0 ||
      config.warmup_rounds >= config.total_rounds) {
    throw std::invalid_argument("run_pingpong: invalid round configuration");
  }
  if (config.bytes_per_round <= 0.0 || config.chunks_per_round < 1) {
    throw std::invalid_argument("run_pingpong: invalid volume configuration");
  }

  // One chunk's worth of flows; chunks within a round are serialized (the
  // paper sends 16 chunks back-to-back), so a round costs chunks *
  // chunk-time under the fluid model.
  const double chunk_bytes =
      config.bytes_per_round / static_cast<double>(config.chunks_per_round);
  std::vector<Flow> flows(pairing.begin(), pairing.end());
  for (Flow& flow : flows) flow.bytes = chunk_bytes;
  const LinkLoads loads = network.route_all(flows);
  const double max_load = loads.max_load();  // the one scan of the loads
  const double chunk_seconds =
      network.completion_seconds(loads, max_load, flows);
  const double round_seconds =
      chunk_seconds * static_cast<double>(config.chunks_per_round);

  PingPongResult result;
  result.seconds_per_round = round_seconds;
  result.max_channel_bytes_per_round =
      max_load * static_cast<double>(config.chunks_per_round);
  result.total_seconds =
      round_seconds * static_cast<double>(config.total_rounds);
  result.measured_seconds =
      round_seconds *
      static_cast<double>(config.total_rounds - config.warmup_rounds);
  return result;
}

PingPongResult run_pingpong(const TorusNetwork& network,
                            const PingPongConfig& config) {
  return run_pingpong(network, furthest_node_pairing(network.torus(), 0.0),
                      config);
}

PingPongResult run_pingpong(const bgq::Geometry& geometry,
                            const PingPongConfig& config,
                            const NetworkOptions& options) {
  const TorusNetwork network(geometry.node_torus(), options);
  return run_pingpong(network, config);
}

}  // namespace npac::simnet
