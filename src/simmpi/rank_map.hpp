// Rank-to-node placement.
//
// Blue Gene/Q assigns MPI ranks to nodes in ABCDE coordinate order, which
// for our node numbering is simply blocked ascending node ids. The paper's
// matrix-multiplication runs place up to 16 ranks per node (Table 3); this
// map distributes R ranks over N nodes as evenly as possible, filling nodes
// in id order (first R mod N nodes get one extra rank).
//
// Alternative mapping strategies (the topology-aware task-mapping axis of
// Bhatele et al., Related Work [10]) permute which physical node each
// placement slot lands on: kBlocked is the ABCDE default, kStrided scatters
// consecutive slots round-robin, kRandom is a seeded shuffle. Partition
// geometry and mapping choice compose — see bench_ext_mapping.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "topo/graph.hpp"

namespace npac::simmpi {

/// How placement slots map onto physical node ids.
enum class MappingStrategy {
  kBlocked,  ///< slot i -> node i (ABCDE order; the Blue Gene/Q default)
  kStrided,  ///< slot i -> (i * stride) mod N, scattering consecutive
             ///< ranks far apart
  kRandom,   ///< seeded Fisher-Yates shuffle of the node ids, drawn
             ///< from sweep::task_seed (the same on every toolchain)
};

class RankMap {
 public:
  /// Blocked (ABCDE-order) placement.
  RankMap(std::int64_t num_ranks, std::int64_t num_nodes);

  /// Placement with an explicit mapping strategy.
  static RankMap with_mapping(std::int64_t num_ranks, std::int64_t num_nodes,
                              MappingStrategy strategy,
                              std::uint64_t seed = 0);

  std::int64_t num_ranks() const { return num_ranks_; }
  std::int64_t num_nodes() const { return num_nodes_; }

  /// Node hosting `rank`.
  topo::VertexId node_of(std::int64_t rank) const;

  /// Number of ranks on `node`.
  std::int64_t ranks_on(topo::VertexId node) const;

  /// First rank hosted on `node` (the ranks of one node are contiguous).
  std::int64_t first_rank_on(topo::VertexId node) const;

  /// Maximum ranks per node ("max active cores" in the paper's Table 3).
  std::int64_t max_ranks_per_node() const;

  /// Mean ranks per node ("avg cores per proc").
  double avg_ranks_per_node() const;

 private:
  /// Blocked placement slot of `rank`; strategies permute slot -> node.
  std::int64_t slot_of(std::int64_t rank) const;
  std::int64_t slot_of_node(topo::VertexId node) const;

  std::int64_t num_ranks_;
  std::int64_t num_nodes_;
  std::int64_t base_;   // ranks every slot gets
  std::int64_t extra_;  // slots receiving one extra rank
  std::vector<topo::VertexId> slot_to_node_;  // empty = identity (blocked)
  std::vector<std::int64_t> node_to_slot_;    // inverse, same emptiness
};

inline std::int64_t RankMap::slot_of(std::int64_t rank) const {
  // The first `extra_` slots hold base_ + 1 ranks each.
  const std::int64_t boundary = extra_ * (base_ + 1);
  if (rank < boundary) return rank / (base_ + 1);
  if (base_ == 0) {
    throw std::logic_error("RankMap::slot_of: internal inconsistency");
  }
  return extra_ + (rank - boundary) / base_;
}

inline std::int64_t RankMap::slot_of_node(topo::VertexId node) const {
  return node_to_slot_.empty()
             ? node
             : node_to_slot_[static_cast<std::size_t>(node)];
}

inline topo::VertexId RankMap::node_of(std::int64_t rank) const {
  if (rank < 0 || rank >= num_ranks_) {
    throw std::out_of_range("RankMap::node_of: rank out of range");
  }
  const std::int64_t slot = slot_of(rank);
  return slot_to_node_.empty() ? slot
                               : slot_to_node_[static_cast<std::size_t>(slot)];
}

inline std::int64_t RankMap::ranks_on(topo::VertexId node) const {
  if (node < 0 || node >= num_nodes_) {
    throw std::out_of_range("RankMap::ranks_on: node out of range");
  }
  return slot_of_node(node) < extra_ ? base_ + 1 : base_;
}

inline std::int64_t RankMap::first_rank_on(topo::VertexId node) const {
  if (node < 0 || node >= num_nodes_) {
    throw std::out_of_range("RankMap::first_rank_on: node out of range");
  }
  const std::int64_t slot = slot_of_node(node);
  if (slot < extra_) return slot * (base_ + 1);
  return extra_ * (base_ + 1) + (slot - extra_) * base_;
}

}  // namespace npac::simmpi
