// The closed-form torus shift against the flow path.
//
// TorusNetwork::route_shift fills every channel of a (dimension,
// direction) class with one repeated sum instead of routing a flow per
// node. Its reference is the base Network path: the shift's flow
// expansion routed by route_all. The loads must agree bit for bit (memcmp)
// on tori with length-1, length-2, length-3, odd and even dimensions, both
// tie-breaks, weighted capacities and byte counts that round (1/3), are
// exact (1e6, 2^27), zero, negative zero and NaN. The ping-pong and the
// halo phase must price exactly as their flow paths, with and without an
// injection cap, and the generators must emit the flows, in the order, of
// the two odometers they replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "core/experiments.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/network.hpp"
#include "simnet/pingpong.hpp"
#include "simnet/traffic.hpp"
#include "topo/descriptor.hpp"

namespace npac::simnet {
namespace {

const std::vector<topo::Dims>& test_tori() {
  static const std::vector<topo::Dims> kTori = {
      {1},       {2},       {3},       {5},       {4},          {6},
      {1, 1},    {2, 3},    {4, 4},    {1, 2, 3}, {3, 1, 6},    {2, 2, 2},
      {6, 2, 2}, {5, 4, 3}, {7, 6},    {4, 1, 2, 5}, {8, 2, 1, 2}, {3, 3, 3, 2}};
  return kTori;
}

const std::vector<double>& test_bytes() {
  static const std::vector<double> kBytes = {
      1.0 / 3.0, 1.0e6, 134217728.0, 0.0, -0.0,
      std::numeric_limits<double>::quiet_NaN()};
  return kBytes;
}

std::string name_of(const topo::Dims& dims, TieBreak tie_break, double bytes) {
  std::string name;
  for (const std::int64_t a : dims) name += std::to_string(a) + "x";
  name.pop_back();
  name += tie_break == TieBreak::kSplit ? " split" : " positive";
  return name + " bytes " + std::to_string(bytes);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const LinkLoads& a, const LinkLoads& b) {
  return a.num_channels() == b.num_channels() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.num_channels() * sizeof(double)) == 0;
}

/// Per-dimension capacities 1, 2, 3, ...: a weighted torus.
std::vector<double> weighted(const topo::Dims& dims) {
  std::vector<double> capacities;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    capacities.push_back(static_cast<double>(i + 1));
  }
  return capacities;
}

// The two odometers TorusShift::flows replaced, as they were.
std::vector<Flow> odometer_pairing(const topo::Torus& torus, double bytes) {
  const std::int64_t n = torus.num_vertices();
  const topo::Dims& dims = torus.dims();
  std::vector<Flow> flows;
  topo::Coord far(dims.size());
  topo::VertexId peer = 0;
  std::int64_t stride = 1;
  for (std::size_t dim = 0; dim < dims.size(); ++dim) {
    far[dim] = dims[dim] / 2;
    peer += far[dim] * stride;
    stride *= dims[dim];
  }
  for (topo::VertexId v = 0; v < n; ++v) {
    if (peer != v) flows.push_back({v, peer, bytes});
    stride = 1;
    for (std::size_t dim = 0; dim < dims.size(); ++dim) {
      const std::int64_t a = dims[dim];
      if (++far[dim] == a) {
        far[dim] = 0;
        peer -= (a - 1) * stride;
      } else {
        peer += stride;
      }
      if (far[dim] != a / 2) break;
      stride *= a;
    }
  }
  return flows;
}

std::vector<Flow> odometer_halo(const topo::Torus& torus, double bytes) {
  const std::int64_t n = torus.num_vertices();
  const topo::Dims& dims = torus.dims();
  std::vector<Flow> flows;
  topo::Coord c(dims.size(), 0);
  for (topo::VertexId v = 0; v < n; ++v) {
    std::int64_t stride = 1;
    for (std::size_t dim = 0; dim < dims.size(); ++dim) {
      const std::int64_t a = dims[dim];
      if (a > 1) {
        const std::int64_t wrap = (a - 1) * stride;
        flows.push_back({v, c[dim] + 1 == a ? v - wrap : v + stride, bytes});
        if (a > 2) {
          flows.push_back({v, c[dim] == 0 ? v + wrap : v - stride, bytes});
        }
      }
      stride *= a;
    }
    for (std::size_t dim = 0; dim < dims.size() && ++c[dim] == dims[dim];
         ++dim) {
      c[dim] = 0;
    }
  }
  return flows;
}

void expect_same_flows(const std::vector<Flow>& got,
                       const std::vector<Flow>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << what << " flow " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << what << " flow " << i;
    EXPECT_TRUE(same_bits(got[i].bytes, want[i].bytes)) << what << " flow " << i;
  }
}

TEST(TorusShiftTest, FlowsMatchTheOdometersTheyReplaced) {
  for (const topo::Dims& dims : test_tori()) {
    const topo::Torus torus(dims);
    const std::string what = name_of(dims, TieBreak::kSplit, 1.0 / 3.0);
    expect_same_flows(furthest_node_pairing(torus, 1.0 / 3.0),
                      odometer_pairing(torus, 1.0 / 3.0), what + " pairing");
    expect_same_flows(nearest_neighbor_halo(torus, 1.0 / 3.0),
                      odometer_halo(torus, 1.0 / 3.0), what + " halo");
    for (const TorusShift& shift : {TorusShift::antipodal(torus, 2.0),
                                    TorusShift::halo(torus, 2.0)}) {
      EXPECT_EQ(shift.num_flows(),
                static_cast<std::int64_t>(shift.flows().size()))
          << what;
    }
  }
}

TEST(TorusShiftTest, ClosedFormLoadsMatchTheFlowPathBitForBit) {
  for (const TieBreak tie_break : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie_break;
    for (const topo::Dims& dims : test_tori()) {
      const topo::Torus torus(dims);
      const TorusNetwork unit(torus, options);
      const TorusNetwork heavy(torus, weighted(dims), options);
      for (const double bytes : test_bytes()) {
        const std::string what = name_of(dims, tie_break, bytes);
        for (const TorusShift& shift : {TorusShift::antipodal(torus, bytes),
                                        TorusShift::halo(torus, bytes)}) {
          for (const TorusNetwork* net : {&unit, &heavy}) {
            EXPECT_TRUE(same_bits(net->route_shift(shift),
                                  net->route_all(shift.flows())))
                << what;
          }
        }
      }
    }
  }
}

TEST(TorusShiftTest, OffsetsSharingAClassMatchTheFlowPath) {
  // Offsets +1 and +2 on a length-7 ring both load the + class with full
  // bytes, three addends per channel; the -3 offset loads the - class.
  const topo::Torus torus({7, 3});
  TorusShift shift{torus.dims(), {{1, 0}, {2, 1}, {4, 2}, {0, 0}}, 1.0 / 3.0};
  const TorusNetwork net(torus);
  EXPECT_EQ(shift.num_flows(), 3 * 21);
  EXPECT_TRUE(same_bits(net.route_shift(shift), net.route_all(shift.flows())));
  EXPECT_TRUE(same_bits(shift.total_bytes(),
                        net.price_flows(shift.flows()).total_bytes));
}

TEST(TorusShiftTest, MixedAddendsAndBadShiftsThrow) {
  const topo::Torus torus({4, 2});
  const TorusNetwork net(torus);
  // Under kSplit the antipodal offset 2 puts half bytes on the + class of
  // dimension 0, the offset 1 full bytes.
  const TorusShift mixed{torus.dims(), {{2, 0}, {1, 0}}, 1.0};
  EXPECT_THROW(net.route_shift(mixed), std::invalid_argument);
  NetworkOptions positive;
  positive.tie_break = TieBreak::kPositive;
  const TorusNetwork static_net(torus, positive);
  EXPECT_TRUE(same_bits(static_net.route_shift(mixed),
                        static_net.route_all(mixed.flows())));

  EXPECT_THROW(net.route_shift(TorusShift::halo(torus, -1.0)),
               std::invalid_argument);
  EXPECT_THROW(net.route_shift(TorusShift::halo(topo::Torus({2, 4}), 1.0)),
               std::invalid_argument);
  EXPECT_THROW(net.route_shift(TorusShift{torus.dims(), {{4, 0}}, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(net.route_shift(TorusShift{torus.dims(), {{1}}, 1.0}),
               std::invalid_argument);
  // The base path checks the shift too.
  const GraphNetwork graph(topo::TopologySpec::torus({4, 2}).build());
  EXPECT_THROW(graph.route_shift(TorusShift::halo(torus, -1.0)),
               std::invalid_argument);
  EXPECT_THROW(graph.route_shift(TorusShift::halo(topo::Torus({3, 2}), 1.0)),
               std::invalid_argument);
  EXPECT_TRUE(same_bits(graph.route_shift(TorusShift::halo(torus, 1.0)),
                        graph.route_all(nearest_neighbor_halo(torus, 1.0))));
}

TEST(TorusShiftTest, RepeatedSumIsTheSequentialSum) {
  const auto sequential = [](double addend, std::int64_t count) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < count; ++i) sum += addend;
    return sum;
  };
  for (const double addend :
       {1.0 / 3.0, 0.1, 1.0e6, 134217728.0, 1.25e8, 0.0, -0.0, 3.0e307,
        -2.5, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::int64_t count :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
          std::int64_t{7}, std::int64_t{1000}, std::int64_t{491520}}) {
      EXPECT_TRUE(same_bits(repeated_sum(addend, count),
                            sequential(addend, count)))
          << addend << " x " << count;
    }
  }
}

TEST(TorusShiftTest, PingPongMatchesTheFlowPathFieldForField) {
  PingPongConfig config;
  config.bytes_per_round = 1.0;  // chunks of 1/16
  config.chunks_per_round = 16;
  for (const double cap : {0.0, 3.0e8}) {
    for (const TieBreak tie_break : {TieBreak::kSplit, TieBreak::kPositive}) {
      NetworkOptions options;
      options.tie_break = tie_break;
      options.injection_bytes_per_second = cap;
      for (const topo::Dims& dims : test_tori()) {
        const topo::Torus torus(dims);
        for (const TorusNetwork& net :
             {TorusNetwork(torus, options),
              TorusNetwork(torus, weighted(dims), options)}) {
          const PingPongResult closed = run_pingpong(net, config);
          const PingPongResult flows =
              run_pingpong(net, furthest_node_pairing(torus, 0.0), config);
          const std::string what = name_of(dims, tie_break, cap);
          EXPECT_TRUE(same_bits(closed.measured_seconds, flows.measured_seconds))
              << what;
          EXPECT_TRUE(same_bits(closed.total_seconds, flows.total_seconds))
              << what;
          EXPECT_TRUE(
              same_bits(closed.seconds_per_round, flows.seconds_per_round))
              << what;
          EXPECT_TRUE(same_bits(closed.max_channel_bytes_per_round,
                                flows.max_channel_bytes_per_round))
              << what;
        }
      }
    }
  }
}

void expect_same_records(const simmpi::PhaseRecord& got,
                         const simmpi::PhaseRecord& want,
                         const std::string& what) {
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_TRUE(same_bits(got.seconds, want.seconds)) << what;
  EXPECT_TRUE(same_bits(got.max_channel_bytes, want.max_channel_bytes)) << what;
  EXPECT_TRUE(same_bits(got.total_bytes, want.total_bytes)) << what;
}

TEST(TorusShiftTest, HaloPhaseMatchesTheFlowPathFieldForField) {
  for (const double cap : {0.0, 1.0e6}) {
    NetworkOptions options;
    options.injection_bytes_per_second = cap;
    for (const topo::Dims& dims : test_tori()) {
      const topo::Torus torus(dims);
      for (const TorusNetwork& net :
           {TorusNetwork(torus, options),
            TorusNetwork(torus, weighted(dims), options)}) {
        const std::int64_t nodes = net.num_nodes();
        const simmpi::Communicator comm(&net, simmpi::RankMap(nodes, nodes));
        for (const double bytes : test_bytes()) {
          simmpi::Timeline closed;
          simmpi::Timeline flows;
          comm.run_halo_phase("halo", bytes, closed);
          comm.run_phase("halo", net.halo_flows(bytes), flows);
          expect_same_records(closed.records().at(0), flows.records().at(0),
                              name_of(dims, TieBreak::kSplit, bytes) +
                                  " cap " + std::to_string(cap));
        }
        simmpi::Timeline kernel;
        simmpi::Timeline reference;
        apps::simulate_halo_communication(comm, {2, 1.0e6}, &kernel);
        const std::vector<Flow> halo = net.halo_flows(1.0e6);
        comm.run_phase("halo:step0", halo, reference);
        comm.run_phase("halo:step1", halo, reference);
        ASSERT_EQ(kernel.records().size(), 2u);
        for (std::size_t i = 0; i < 2; ++i) {
          expect_same_records(kernel.records()[i], reference.records()[i],
                              "simulate_halo_communication");
        }
      }
    }
  }
}

TEST(TorusShiftTest, GraphHaloAndTorusPairingRowsKeepTheirFlowPaths) {
  // The base price_halo prices the backend's own halo flows.
  const GraphNetwork graph(topo::TopologySpec::hypercube(4).build());
  const PhaseCost halo = graph.price_halo(1.0 / 3.0);
  const PhaseCost flows = graph.price_flows(graph.halo_flows(1.0 / 3.0));
  EXPECT_TRUE(same_bits(halo.seconds, flows.seconds));
  EXPECT_TRUE(same_bits(halo.max_load, flows.max_load));
  EXPECT_TRUE(same_bits(halo.total_bytes, flows.total_bytes));
  // A torus design row's pairing time, weighted or not, is the flow path's.
  for (const topo::TopologySpec& spec :
       {topo::TopologySpec::torus({8, 4, 3}),
        topo::TopologySpec::weighted_torus({6, 4, 2}, {1.0, 2.0, 4.0})}) {
    const auto net = make_network(spec);
    EXPECT_TRUE(same_bits(
        core::topology_pairing_seconds(spec, 1.0e9),
        net->completion_seconds(
            furthest_node_pairing(topo::Torus(spec.dims()), 1.0e9))))
        << spec.id();
  }
}

}  // namespace
}  // namespace npac::simnet
