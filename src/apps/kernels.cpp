#include "apps/kernels.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "simnet/traffic.hpp"

namespace npac::apps {

double simulate_nbody_communication(const simmpi::Communicator& comm,
                                    const NBodyParams& params,
                                    simmpi::Timeline* timeline) {
  if (params.bodies < 1 || params.steps < 1 || params.bytes_per_body <= 0.0) {
    throw std::invalid_argument("simulate_nbody_communication: bad params");
  }
  simmpi::Timeline local;
  simmpi::Timeline& sink = timeline != nullptr ? *timeline : local;

  // Replicated-positions all-pairs step: every rank spreads its share of
  // the bodies across all other ranks.
  const double bytes_per_rank =
      static_cast<double>(params.bodies) /
      static_cast<double>(comm.size()) * params.bytes_per_body;
  const auto exchange = comm.group_alltoall(comm.size(), bytes_per_rank);

  double total = 0.0;
  for (int step = 0; step < params.steps; ++step) {
    total +=
        comm.run_phase("nbody:step" + std::to_string(step), exchange, sink);
  }
  return total;
}

double simulate_fft_communication(const simmpi::Communicator& comm,
                                  const FftParams& params,
                                  simmpi::Timeline* timeline) {
  const std::int64_t p = comm.size();
  if (params.points < p || params.bytes_per_point <= 0.0) {
    throw std::invalid_argument("simulate_fft_communication: bad params");
  }
  if ((p & (p - 1)) != 0) {
    throw std::invalid_argument(
        "simulate_fft_communication: rank count must be a power of two");
  }
  simmpi::Timeline local;
  simmpi::Timeline& sink = timeline != nullptr ? *timeline : local;

  const double bytes =
      static_cast<double>(params.points) / static_cast<double>(p) *
      params.bytes_per_point;

  double total = 0.0;
  int phase_index = 0;
  std::vector<simnet::Flow> flows;  // one buffer for every phase
  for (std::int64_t stride = 1; stride < p; stride *= 2) {
    comm.butterfly(stride, bytes, flows);
    total += comm.run_phase("fft:phase" + std::to_string(phase_index++),
                            flows, sink);
  }
  return total;
}

double simulate_halo_communication(const simmpi::Communicator& comm,
                                   const HaloParams& params,
                                   simmpi::Timeline* timeline) {
  if (params.steps < 1 || params.bytes_per_face <= 0.0) {
    throw std::invalid_argument("simulate_halo_communication: bad params");
  }
  simmpi::Timeline local;
  simmpi::Timeline& sink = timeline != nullptr ? *timeline : local;

  const auto flows = comm.network().halo_flows(params.bytes_per_face);
  double total = 0.0;
  for (int step = 0; step < params.steps; ++step) {
    total += comm.run_phase("halo:step" + std::to_string(step), flows, sink);
  }
  return total;
}

KernelSensitivity kernel_sensitivity(const bgq::Geometry& worse,
                                     const bgq::Geometry& better,
                                     std::int64_t nbody_bodies,
                                     std::int64_t fft_points) {
  if (worse.nodes() != better.nodes()) {
    throw std::invalid_argument(
        "kernel_sensitivity: geometries must have equal size");
  }
  KernelSensitivity result;
  result.bisection_ratio = bgq::predicted_speedup(worse, better);

  double nbody[2] = {0, 0};
  double fft[2] = {0, 0};
  double halo[2] = {0, 0};
  int index = 0;
  for (const bgq::Geometry* g : {&worse, &better}) {
    const simnet::TorusNetwork network(g->node_torus());
    const std::int64_t nodes = network.torus().num_vertices();

    {
      const simmpi::Communicator comm(&network, simmpi::RankMap(nodes, nodes));
      nbody[index] =
          simulate_nbody_communication(comm, {nbody_bodies, 1, 32.0});
      halo[index] = simulate_halo_communication(comm, {1, 1.0e6});
    }
    {
      // FFT wants a power-of-two rank count; run on the largest one that
      // fits (ranks < nodes leaves trailing nodes idle, as real runs do).
      std::int64_t p = 1;
      while (p * 2 <= nodes) p *= 2;
      const simmpi::Communicator comm(&network, simmpi::RankMap(p, nodes));
      fft[index] = simulate_fft_communication(comm, {fft_points, 16.0});
    }
    ++index;
  }
  result.nbody = nbody[0] / nbody[1];
  result.fft = fft[0] / fft[1];
  result.halo = halo[0] / halo[1];
  return result;
}

}  // namespace npac::apps
