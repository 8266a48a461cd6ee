// Ping-pong engine tests (Experiment A's protocol): round accounting,
// warm-up exclusion, and the bisection-ratio predictions of Section 3 on
// node-level partition tori.
#include "simnet/pingpong.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bgq/policy.hpp"
#include "simnet/traffic.hpp"

namespace npac::simnet {
namespace {

TEST(PingPongTest, RoundAccounting) {
  PingPongConfig config;
  config.total_rounds = 10;
  config.warmup_rounds = 2;
  config.bytes_per_round = 8.0;
  config.chunks_per_round = 4;
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  const TorusNetwork net(topo::Torus({4}), options);
  const auto result = run_pingpong(net, config);
  // Measured = 8 rounds, total = 10 rounds.
  EXPECT_NEAR(result.total_seconds / result.seconds_per_round, 10.0, 1e-9);
  EXPECT_NEAR(result.measured_seconds / result.seconds_per_round, 8.0, 1e-9);
}

TEST(PingPongTest, ChunkingDoesNotChangeRoundTime) {
  // Under the fluid model, sending a round in 1 or 16 chunks costs the
  // same total time.
  PingPongConfig one;
  one.bytes_per_round = 16.0;
  one.chunks_per_round = 1;
  PingPongConfig sixteen = one;
  sixteen.chunks_per_round = 16;
  const TorusNetwork net(topo::Torus({8, 4}));
  EXPECT_NEAR(run_pingpong(net, one).seconds_per_round,
              run_pingpong(net, sixteen).seconds_per_round, 1e-12);
}

TEST(PingPongTest, TimeScalesInverselyWithLinkBandwidth) {
  NetworkOptions slow;
  slow.link_bytes_per_second = 1.0;
  NetworkOptions fast;
  fast.link_bytes_per_second = 4.0;
  const topo::Torus torus({8, 4});
  const auto slow_result = run_pingpong(TorusNetwork(torus, slow), {});
  const auto fast_result = run_pingpong(TorusNetwork(torus, fast), {});
  EXPECT_NEAR(slow_result.measured_seconds / fast_result.measured_seconds,
              4.0, 1e-9);
}

TEST(PingPongTest, Validation) {
  const TorusNetwork net(topo::Torus({4}));
  PingPongConfig bad;
  bad.total_rounds = 0;
  EXPECT_THROW(run_pingpong(net, bad), std::invalid_argument);
  bad = {};
  bad.warmup_rounds = 30;
  EXPECT_THROW(run_pingpong(net, bad), std::invalid_argument);
  bad = {};
  bad.bytes_per_round = 0.0;
  EXPECT_THROW(run_pingpong(net, bad), std::invalid_argument);
  bad = {};
  bad.chunks_per_round = 0;
  EXPECT_THROW(run_pingpong(net, bad), std::invalid_argument);
}

TEST(PingPongTest, GeometryRatioMatchesBisectionPrediction) {
  // The paper's Experiment A on 4 midplanes: 4x1x1x1 vs 2x2x1x1 must show
  // the x2 ratio predicted by the bisection analysis.
  const bgq::Geometry current(4, 1, 1, 1);
  const bgq::Geometry proposed(2, 2, 1, 1);
  const auto current_result = run_pingpong(current);
  const auto proposed_result = run_pingpong(proposed);
  const double speedup =
      current_result.measured_seconds / proposed_result.measured_seconds;
  EXPECT_NEAR(speedup, bgq::predicted_speedup(current, proposed), 1e-9);
  EXPECT_NEAR(speedup, 2.0, 1e-9);
}

TEST(PingPongTest, EqualBisectionPerNodeGivesEqualTimes) {
  // Figure 4's caption: the 4 and 8 midplane best-case partitions have the
  // same per-node bisection, so their round times are identical.
  const auto four = run_pingpong(bgq::Geometry(2, 2, 1, 1));
  const auto eight = run_pingpong(bgq::Geometry(2, 2, 2, 1));
  EXPECT_NEAR(four.measured_seconds, eight.measured_seconds, 1e-9);
}

TEST(PingPongTest, MaxChannelBytesConsistentWithTime) {
  NetworkOptions options;
  options.link_bytes_per_second = 2.0e9;
  PingPongConfig config;
  const auto result = run_pingpong(bgq::Geometry(2, 1, 1, 1), config, options);
  EXPECT_NEAR(result.seconds_per_round,
              result.max_channel_bytes_per_round / 2.0e9, 1e-9);
}

TEST(PingPongTest, OneScanPricesAsCompletionSecondsBitForBit) {
  // run_pingpong scans the chunk loads once for the round's max channel
  // and its time; both must equal max_load() and completion_seconds(loads,
  // flows), on unit, weighted and injection-capped tori.
  NetworkOptions capped;
  capped.link_bytes_per_second = 3.0;
  capped.injection_bytes_per_second = 0.25;
  const TorusNetwork unit(topo::Torus({4, 3, 2}));
  const TorusNetwork weighted(topo::Torus({4, 3, 2}), {1.0, 2.0, 0.5});
  const TorusNetwork injection(topo::Torus({4, 3, 2}), capped);
  PingPongConfig config;
  config.bytes_per_round = 10.0;
  config.chunks_per_round = 3;
  for (const TorusNetwork* net : {&unit, &weighted, &injection}) {
    const PingPongResult result = run_pingpong(*net, config);
    std::vector<Flow> flows = furthest_node_pairing(net->torus(), 0.0);
    for (Flow& flow : flows) flow.bytes = 10.0 / 3.0;
    const LinkLoads loads = net->route_all(flows);
    EXPECT_EQ(result.seconds_per_round,
              net->completion_seconds(loads, flows) * 3.0);
    EXPECT_EQ(result.max_channel_bytes_per_round, loads.max_load() * 3.0);
  }
}

}  // namespace
}  // namespace npac::simnet
