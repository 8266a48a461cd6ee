// Simulated message-passing communicator.
//
// Ranks live on the nodes of a simnet::Network partition (via RankMap);
// communication phases are expressed as rank-level volumes, aggregated into
// node-level flows or, for the grouped all-to-all, a node-level
// simnet::GroupExchange (intra-node traffic is free, as on real Blue Gene/Q
// where ranks on one node share memory), routed by the flow simulator, and
// timed under the max-congestion fluid model. A Timeline accumulates phase
// costs so multi-phase algorithms (CAPS BFS steps, N-body rounds) report a
// total communication time the way an MPI profiler would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/rank_map.hpp"
#include "simnet/network.hpp"

namespace npac::simmpi {

/// Record of one timed communication phase.
struct PhaseRecord {
  std::string label;
  double seconds = 0.0;
  double max_channel_bytes = 0.0;
  double total_bytes = 0.0;  ///< inter-node bytes injected in this phase
};

class Timeline {
 public:
  void add(PhaseRecord record) { records_.push_back(std::move(record)); }
  const std::vector<PhaseRecord>& records() const { return records_; }
  double total_seconds() const;

 private:
  std::vector<PhaseRecord> records_;
};

class Communicator {
 public:
  /// `network` must outlive the communicator. Any backend works: the
  /// communicator only aggregates rank traffic to node flows and prices
  /// them through the Network interface.
  Communicator(const simnet::Network* network, RankMap map);

  std::int64_t size() const { return map_.num_ranks(); }
  const RankMap& rank_map() const { return map_; }
  const simnet::Network& network() const { return *network_; }

  /// Times an explicit flow set as one phase, appending it to `timeline`.
  double run_phase(const std::string& label,
                   const std::vector<simnet::Flow>& flows,
                   Timeline& timeline) const;

  /// Times a group exchange as one phase (Network::route_exchange),
  /// appending it to `timeline`.
  double run_phase(const std::string& label,
                   const simnet::GroupExchange& exchange,
                   Timeline& timeline) const;

  /// Uniform all-to-all within consecutive rank groups of `group_size`
  /// (must divide size()): each rank spreads `bytes_per_rank` uniformly
  /// over the other ranks of its group. Returns the node-level pattern,
  /// built in O(size()).
  simnet::GroupExchange group_alltoall(std::int64_t group_size,
                                       double bytes_per_rank) const;

  /// Point-to-point rank-level messages aggregated to node flows.
  /// Each triple is (src_rank, dst_rank, bytes). Intra-node messages are
  /// dropped; one flow per remaining (src node, dst node) pair, in
  /// ascending (src, dst) order, its bytes summed from 0.0 in message
  /// order. A counting sort by source node: O(messages + nodes), plus a
  /// sort of each source's messages by destination. With a registry
  /// current, counts the messages in (simmpi.rank_messages) and the flows
  /// out (simmpi.node_flows).
  struct RankMessage {
    std::int64_t src = 0;
    std::int64_t dst = 0;
    double bytes = 0.0;
  };
  std::vector<simnet::Flow> rank_messages(
      const std::vector<RankMessage>& messages) const;

 private:
  const simnet::Network* network_;
  RankMap map_;
};

}  // namespace npac::simmpi
