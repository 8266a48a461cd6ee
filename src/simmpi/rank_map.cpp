#include "simmpi/rank_map.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "sweep/pool.hpp"

namespace npac::simmpi {

RankMap::RankMap(std::int64_t num_ranks, std::int64_t num_nodes)
    : num_ranks_(num_ranks), num_nodes_(num_nodes) {
  if (num_ranks < 1 || num_nodes < 1) {
    throw std::invalid_argument("RankMap: ranks and nodes must be >= 1");
  }
  base_ = num_ranks / num_nodes;
  extra_ = num_ranks % num_nodes;
}

RankMap RankMap::with_mapping(std::int64_t num_ranks, std::int64_t num_nodes,
                              MappingStrategy strategy, std::uint64_t seed) {
  RankMap map(num_ranks, num_nodes);
  if (strategy == MappingStrategy::kBlocked) return map;

  std::vector<topo::VertexId> order(static_cast<std::size_t>(num_nodes));
  std::iota(order.begin(), order.end(), topo::VertexId{0});
  switch (strategy) {
    case MappingStrategy::kBlocked:
      break;
    case MappingStrategy::kStrided: {
      // Stride coprime to N near sqrt(N) walks the node ids far apart.
      std::int64_t stride = 1;
      while (stride * stride < num_nodes) ++stride;
      while (stride < num_nodes && std::gcd(stride, num_nodes) != 1) {
        ++stride;
      }
      if (stride >= num_nodes) stride = 1;
      for (std::int64_t slot = 0; slot < num_nodes; ++slot) {
        order[static_cast<std::size_t>(slot)] = (slot * stride) % num_nodes;
      }
      break;
    }
    case MappingStrategy::kRandom: {
      // Inline Fisher-Yates on task_seed draws: std::shuffle's permutation
      // is implementation-defined, so it would differ between standard
      // libraries.
      for (std::int64_t i = num_nodes - 1; i > 0; --i) {
        const auto j = static_cast<std::int64_t>(
            sweep::task_seed(seed, i) % static_cast<std::uint64_t>(i + 1));
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(j)]);
      }
      break;
    }
  }
  map.slot_to_node_ = std::move(order);
  map.node_to_slot_.assign(static_cast<std::size_t>(num_nodes), 0);
  for (std::int64_t slot = 0; slot < num_nodes; ++slot) {
    map.node_to_slot_[static_cast<std::size_t>(
        map.slot_to_node_[static_cast<std::size_t>(slot)])] = slot;
  }
  return map;
}

std::int64_t RankMap::max_ranks_per_node() const {
  return extra_ > 0 ? base_ + 1 : base_;
}

double RankMap::avg_ranks_per_node() const {
  return static_cast<double>(num_ranks_) / static_cast<double>(num_nodes_);
}

}  // namespace npac::simmpi
