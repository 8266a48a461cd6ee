// Kernel communication-model tests: N-body realizes the full bisection
// ratio, FFT part of it, halo none — the geometry-sensitivity spectrum the
// paper's Future Work predicts.
#include "apps/kernels.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace npac::apps {
namespace {

simnet::TorusNetwork unit_network(topo::Dims dims) {
  simnet::NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  return simnet::TorusNetwork(topo::Torus(std::move(dims)), options);
}

TEST(NBodyTest, TimeScalesLinearlyWithSteps) {
  const auto net = unit_network({8});
  const simmpi::Communicator comm(&net, simmpi::RankMap(8, 8));
  const double one = simulate_nbody_communication(comm, {1024, 1, 32.0});
  const double three = simulate_nbody_communication(comm, {1024, 3, 32.0});
  EXPECT_NEAR(three, 3.0 * one, one * 1e-9);
  EXPECT_GT(one, 0.0);
}

TEST(NBodyTest, RecordsOnePhasePerStep) {
  const auto net = unit_network({4, 4});
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  simmpi::Timeline timeline;
  simulate_nbody_communication(comm, {256, 4, 32.0}, &timeline);
  EXPECT_EQ(timeline.records().size(), 4u);
}

TEST(NBodyTest, Validation) {
  const auto net = unit_network({4});
  const simmpi::Communicator comm(&net, simmpi::RankMap(4, 4));
  EXPECT_THROW(simulate_nbody_communication(comm, {0, 1, 32.0}),
               std::invalid_argument);
  EXPECT_THROW(simulate_nbody_communication(comm, {16, 0, 32.0}),
               std::invalid_argument);
}

TEST(FftTest, HasLogPPhases) {
  const auto net = unit_network({16});
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  simmpi::Timeline timeline;
  simulate_fft_communication(comm, {1 << 12, 16.0}, &timeline);
  EXPECT_EQ(timeline.records().size(), 4u);  // log2(16)
}

TEST(FftTest, HighStridePhasesDominateOnARing) {
  // On a ring the early (stride 1) butterfly is nearest-neighbour; the
  // late (stride P/2) one is antipodal and bisection-bound.
  const auto net = unit_network({16});
  const simmpi::Communicator comm(&net, simmpi::RankMap(16, 16));
  simmpi::Timeline timeline;
  simulate_fft_communication(comm, {1 << 12, 16.0}, &timeline);
  const auto& records = timeline.records();
  EXPECT_GT(records.back().seconds, records.front().seconds);
}

// The FFT as it was priced before Communicator::butterfly: p rank
// messages per phase, aggregated to node flows by an ordered map (bytes
// summed from 0.0 in message order), routed, and priced with a second scan
// of the loads.
double reference_fft(const simmpi::Communicator& comm, const FftParams& params,
                     simmpi::Timeline& timeline) {
  const simnet::Network& net = comm.network();
  const std::int64_t p = comm.size();
  const double bytes = static_cast<double>(params.points) /
                       static_cast<double>(p) * params.bytes_per_point;
  double total = 0.0;
  int phase_index = 0;
  for (std::int64_t stride = 1; stride < p; stride *= 2) {
    std::map<std::pair<topo::VertexId, topo::VertexId>, double> aggregated;
    for (std::int64_t rank = 0; rank < p; ++rank) {
      const topo::VertexId src = comm.rank_map().node_of(rank);
      const topo::VertexId dst = comm.rank_map().node_of(rank ^ stride);
      if (src != dst) aggregated[{src, dst}] += bytes;
    }
    std::vector<simnet::Flow> flows;
    double total_bytes = 0.0;
    for (const auto& [key, sum] : aggregated) {
      flows.push_back({key.first, key.second, sum});
      total_bytes += sum;
    }
    const simnet::LinkLoads loads = net.route_all(flows);
    const double seconds = net.completion_seconds(loads, flows);
    timeline.add({"fft:phase" + std::to_string(phase_index++), seconds,
                  loads.max_load(), total_bytes});
    total += seconds;
  }
  return total;
}

TEST(FftTest, MatchesTheMessageAggregationPathBitForBit) {
  // Unit, weighted and injection-capped tori of 32 nodes; fewer, more and
  // uneven ranks per node under every mapping strategy. The bytes per rank
  // (2^20 * 3 / p) are not a power of two.
  simnet::NetworkOptions capped;
  capped.injection_bytes_per_second = 1.0e9;
  const simnet::TorusNetwork unit(topo::Torus({4, 4, 2}));
  const simnet::TorusNetwork weighted(topo::Torus({4, 4, 2}), {1.0, 2.0, 0.5});
  const simnet::TorusNetwork injection(topo::Torus({4, 4, 2}), capped);
  const FftParams params{std::int64_t{1} << 20, 3.0};
  for (const simnet::TorusNetwork* net : {&unit, &weighted, &injection}) {
    for (const std::int64_t ranks : {16, 32, 64, 256}) {
      for (const simmpi::MappingStrategy strategy :
           {simmpi::MappingStrategy::kBlocked,
            simmpi::MappingStrategy::kStrided,
            simmpi::MappingStrategy::kRandom}) {
        const simmpi::Communicator comm(
            net, simmpi::RankMap::with_mapping(ranks, 32, strategy, 9));
        simmpi::Timeline got;
        simmpi::Timeline want;
        const double seconds = simulate_fft_communication(comm, params, &got);
        EXPECT_EQ(seconds, reference_fft(comm, params, want));
        ASSERT_EQ(got.records().size(), want.records().size());
        for (std::size_t i = 0; i < want.records().size(); ++i) {
          const simmpi::PhaseRecord& g = got.records()[i];
          const simmpi::PhaseRecord& w = want.records()[i];
          EXPECT_EQ(g.label, w.label);
          EXPECT_EQ(g.seconds, w.seconds) << ranks << " ranks, phase " << i;
          EXPECT_EQ(g.max_channel_bytes, w.max_channel_bytes);
          EXPECT_EQ(g.total_bytes, w.total_bytes);
        }
      }
    }
  }
}

TEST(FftTest, RequiresPowerOfTwoRanks) {
  const auto net = unit_network({6});
  const simmpi::Communicator comm(&net, simmpi::RankMap(6, 6));
  EXPECT_THROW(simulate_fft_communication(comm, {1 << 10, 16.0}),
               std::invalid_argument);
}

TEST(FftTest, RequiresEnoughPoints) {
  const auto net = unit_network({8});
  const simmpi::Communicator comm(&net, simmpi::RankMap(8, 8));
  EXPECT_THROW(simulate_fft_communication(comm, {4, 16.0}),
               std::invalid_argument);
}

TEST(HaloTest, ContentionFreeTimeEqualsFaceOverBandwidth) {
  // Every channel carries exactly one face per step.
  const auto net = unit_network({8, 8});
  const simmpi::Communicator comm(&net, simmpi::RankMap(64, 64));
  const double seconds = simulate_halo_communication(comm, {1, 100.0});
  EXPECT_DOUBLE_EQ(seconds, 100.0);
}

TEST(HaloTest, Validation) {
  const auto net = unit_network({4});
  const simmpi::Communicator comm(&net, simmpi::RankMap(4, 4));
  EXPECT_THROW(simulate_halo_communication(comm, {0, 1.0}),
               std::invalid_argument);
}

TEST(KernelSensitivityTest, NBodyRealizesTheFullRatioHaloNone) {
  // The paper's 4-midplane pair: bisection ratio exactly 2.
  const auto s = kernel_sensitivity(bgq::Geometry(4, 1, 1, 1),
                                    bgq::Geometry(2, 2, 1, 1),
                                    /*nbody_bodies=*/1 << 16,
                                    /*fft_points=*/1 << 20);
  EXPECT_DOUBLE_EQ(s.bisection_ratio, 2.0);
  EXPECT_NEAR(s.nbody, 2.0, 0.05);
  EXPECT_NEAR(s.halo, 1.0, 1e-9);
  // FFT sits strictly between the control and the fully bisection-bound
  // kernel.
  EXPECT_GT(s.fft, 1.0);
  EXPECT_LE(s.fft, 2.0 + 1e-9);
}

TEST(KernelSensitivityTest, RequiresEqualSizes) {
  EXPECT_THROW(kernel_sensitivity(bgq::Geometry(2, 1, 1, 1),
                                  bgq::Geometry(2, 2, 1, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace npac::apps
