// The closed-form group exchange on the torus against the flow path.
//
// TorusNetwork::route_exchange prices a group all-to-all per ring as a
// rank-1 product of group weights, in integer half rank-pairs, without
// building a flow. Its reference is the base Network path: the pattern's
// flow expansion routed by route_all. Every channel must agree within
// 1e-12 of the largest load, and exactly when every pair's bytes are small
// integers, on tori with length-1, length-2, odd and even dimensions, both
// tie-breaks, any rank mapping, weighted capacities and the injection cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/network.hpp"
#include "simnet/traffic.hpp"
#include "sweep/pool.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"

namespace npac::simnet {
namespace {

const std::vector<topo::Dims>& test_tori() {
  static const std::vector<topo::Dims> kTori = {
      {5},          {6},       {2, 3},    {4, 4},   {1, 2, 3},
      {3, 1, 6},    {2, 2, 2}, {6, 2, 2}, {5, 4, 3}, {4, 1, 2, 5},
      {8, 2, 1, 2}, {7, 6}};
  return kTori;
}

std::string name_of(const topo::Dims& dims, TieBreak tie_break) {
  std::string name;
  for (const std::int64_t a : dims) name += std::to_string(a) + "x";
  name.pop_back();
  return name + (tie_break == TieBreak::kSplit ? " split" : " positive");
}

/// Random groups over the torus nodes: each group a random subset of
/// distinct nodes with random rank counts in [1, max_ranks].
GroupExchange random_exchange(std::int64_t nodes, std::uint64_t seed,
                              std::int64_t max_ranks, double bytes_per_pair) {
  std::uint64_t state = sweep::task_seed(seed, nodes);
  GroupExchange exchange;
  exchange.bytes_per_pair = bytes_per_pair;
  const auto groups = 1 + static_cast<std::int64_t>(sweep::next_u64(state) % 4);
  for (std::int64_t g = 0; g < groups; ++g) {
    for (topo::VertexId v = 0; v < nodes; ++v) {
      if (sweep::next_u64(state) % 3 == 0) continue;  // not in this group
      const auto ranks = 1 + static_cast<std::int64_t>(
                                 sweep::next_u64(state) %
                                 static_cast<std::uint64_t>(max_ranks));
      exchange.members.push_back({v, ranks});
    }
    exchange.group_ends.push_back(exchange.members.size());
  }
  return exchange;
}

/// Asserts the closed form matches the flow path channel by channel:
/// exactly when `exact`, else within 1e-12 of the largest load.
void expect_matches_flow_path(const Network& net,
                              const GroupExchange& exchange, bool exact,
                              const std::string& what) {
  const LinkLoads closed = net.route_exchange(exchange);
  const LinkLoads reference = net.route_all(exchange.flows());
  ASSERT_EQ(closed.num_channels(), reference.num_channels()) << what;
  const double tolerance = exact ? 0.0 : 1e-12 * reference.max_load();
  for (std::size_t c = 0; c < closed.num_channels(); ++c) {
    EXPECT_NEAR(closed[c], reference[c], tolerance)
        << what << " channel " << c;
  }
}

TEST(GroupExchangeTest, SmallIntegerCasesAreExact) {
  for (const TieBreak tie_break : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie_break;
    for (const topo::Dims& dims : test_tori()) {
      const TorusNetwork net(topo::Torus(dims), options);
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        expect_matches_flow_path(
            net, random_exchange(net.num_nodes(), seed, 5, 1.0), true,
            name_of(dims, tie_break) + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(GroupExchangeTest, RandomGroupsAndWeightsMatchTheFlowPath) {
  for (const TieBreak tie_break : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie_break;
    for (const topo::Dims& dims : test_tori()) {
      const TorusNetwork net(topo::Torus(dims), options);
      for (std::uint64_t seed = 10; seed < 14; ++seed) {
        expect_matches_flow_path(
            net, random_exchange(net.num_nodes(), seed, 16, 0.3 + seed),
            false,
            name_of(dims, tie_break) + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(GroupExchangeTest, RankMapsOfEveryStrategyMatchTheFlowPath) {
  using simmpi::MappingStrategy;
  for (const TieBreak tie_break : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie_break;
    for (const topo::Dims& dims : {topo::Dims{4, 4}, topo::Dims{3, 2, 4},
                                   topo::Dims{5, 1, 2}, topo::Dims{6, 3}}) {
      const TorusNetwork net(topo::Torus(dims), options);
      const std::int64_t nodes = net.num_nodes();
      for (const auto strategy :
           {MappingStrategy::kBlocked, MappingStrategy::kStrided,
            MappingStrategy::kRandom}) {
        // 7 * nodes ranks: uneven per-node counts once groups split nodes.
        const simmpi::Communicator comm(
            &net, simmpi::RankMap::with_mapping(7 * nodes, nodes, strategy, 3));
        for (const std::int64_t group : {std::int64_t{7}, nodes, 7 * nodes}) {
          expect_matches_flow_path(
              net, comm.group_alltoall(group, 1.0e6), false,
              name_of(dims, tie_break) + " strategy " +
                  std::to_string(static_cast<int>(strategy)) + " group " +
                  std::to_string(group));
        }
      }
    }
  }
}

TEST(GroupExchangeTest, WeightedCapacitiesAndInjectionCapPriceAlike) {
  NetworkOptions options;
  options.link_bytes_per_second = 3.0;
  for (const double cap : {0.0, 1.0e-3, 10.0}) {
    options.injection_bytes_per_second = cap;
    const TorusNetwork net(topo::Torus({4, 3, 2}), {1.0, 2.0, 0.5}, options);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const GroupExchange exchange =
          random_exchange(net.num_nodes(), seed, 9, 1.5);
      const auto flows = exchange.flows();
      const double reference =
          net.completion_seconds(net.route_all(flows), flows);
      const LinkLoads loads = net.route_exchange(exchange);
      const double closed =
          net.exchange_seconds(loads, loads.max_load(), exchange);
      EXPECT_NEAR(closed, reference, 1e-12 * reference)
          << "cap " << cap << " seed " << seed;
    }
  }
}

TEST(GroupExchangeTest, ClosedFormSummariesMatchTheFlows) {
  const GroupExchange exchange = random_exchange(24, 7, 6, 2.0);
  const auto flows = exchange.flows();
  EXPECT_EQ(exchange.node_pairs(), static_cast<std::int64_t>(flows.size()));
  double total = 0.0;
  std::vector<double> injected(24, 0.0);
  std::vector<double> ejected(24, 0.0);
  for (const Flow& flow : flows) {
    total += flow.bytes;
    injected[static_cast<std::size_t>(flow.src)] += flow.bytes;
    ejected[static_cast<std::size_t>(flow.dst)] += flow.bytes;
  }
  EXPECT_DOUBLE_EQ(exchange.total_bytes(), total);
  EXPECT_DOUBLE_EQ(exchange.peak_injection_bytes(24),
                   *std::max_element(injected.begin(), injected.end()));
  EXPECT_DOUBLE_EQ(exchange.peak_injection_bytes(24),
                   *std::max_element(ejected.begin(), ejected.end()));
}

TEST(GroupExchangeTest, GraphBackendRoutesTheFlowExpansion) {
  const auto graph = make_network(topo::TopologySpec::hypercube(4));
  const GroupExchange exchange = random_exchange(16, 3, 4, 1.0);
  const LinkLoads via_pattern = graph->route_exchange(exchange);
  const LinkLoads via_flows = graph->route_all(exchange.flows());
  ASSERT_EQ(via_pattern.num_channels(), via_flows.num_channels());
  for (std::size_t c = 0; c < via_flows.num_channels(); ++c) {
    EXPECT_EQ(via_pattern[c], via_flows[c]) << "channel " << c;
  }
}

TEST(GroupExchangeTest, CountsTheFlowsItStandsFor) {
  const TorusNetwork net(topo::Torus({4, 3}));
  const GroupExchange exchange = random_exchange(12, 5, 3, 1.0);
  obs::Registry registry;
  {
    obs::ScopedRegistry scoped(registry);
    net.route_exchange(exchange);
  }
  EXPECT_EQ(registry.counter_value("net.torus.route_all"), 1u);
  EXPECT_EQ(registry.counter_value("net.torus.flows"),
            static_cast<std::uint64_t>(exchange.node_pairs()));
  EXPECT_GT(registry.counter_value("net.torus.ring_updates"), 0u);
}

TEST(GroupExchangeTest, EmptyAndSingleNodeGroupsCarryNothing) {
  const TorusNetwork net(topo::Torus({4, 2}));
  GroupExchange exchange;
  exchange.bytes_per_pair = 1.0;
  EXPECT_EQ(net.route_exchange(exchange).max_load(), 0.0);
  exchange.members = {{3, 5}, {6, 2}};
  exchange.group_ends = {1, 2};  // two groups of one node each
  EXPECT_EQ(net.route_exchange(exchange).max_load(), 0.0);
  EXPECT_EQ(exchange.node_pairs(), 0);
  EXPECT_EQ(exchange.total_bytes(), 0.0);
}

TEST(GroupExchangeTest, RejectsMalformedPatterns) {
  const TorusNetwork net(topo::Torus({4, 2}));
  const auto rejects = [&](GroupExchange exchange) {
    EXPECT_THROW(net.route_exchange(exchange), std::invalid_argument);
  };
  rejects({1.0, {{8, 1}}, {1}});                   // node out of range
  rejects({1.0, {{-1, 1}}, {1}});                  // negative node
  rejects({1.0, {{0, 0}, {1, 1}}, {2}});           // no ranks on a node
  rejects({1.0, {{0, 1}, {0, 2}}, {2}});           // node twice in a group
  rejects({1.0, {{0, 1}, {1, 1}}, {1}});           // groups miss a member
  rejects({1.0, {{0, 1}, {1, 1}}, {2, 1}});        // ends decrease
  rejects({-1.0, {{0, 1}, {1, 1}}, {2}});          // negative bytes
  rejects({std::nan(""), {{0, 1}, {1, 1}}, {2}});  // not a number
  // The same node in two groups is fine.
  EXPECT_NO_THROW(net.route_exchange({1.0, {{0, 1}, {1, 1}, {0, 2}}, {2, 3}}));
}

TEST(GroupExchangeTest, RejectsPairCountsThatOverflowInt64) {
  const TorusNetwork net(topo::Torus({4, 2}));
  // 2 * (2^31)^2 = 2^63 half rank-pairs: one past int64.
  const std::int64_t half = std::int64_t{1} << 30;
  const GroupExchange too_many{1.0, {{0, half}, {1, half}}, {2}};
  EXPECT_THROW(net.route_exchange(too_many), std::overflow_error);
  EXPECT_THROW(too_many.check(net.num_nodes()), std::overflow_error);
  // Half as many ranks fit: the kernel then runs on exact integers.
  const GroupExchange fits{1.0, {{0, half / 2}, {1, half / 2}}, {2}};
  EXPECT_NO_THROW(fits.check(net.num_nodes()));
  EXPECT_EQ(net.route_exchange(fits).max_load(),
            static_cast<double>(half / 2) * static_cast<double>(half / 2));
  // A rank total that itself overflows.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(net.route_exchange({1.0, {{0, max}, {1, max}}, {2}}),
               std::overflow_error);
}

}  // namespace
}  // namespace npac::simnet
