#include "simmpi/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace npac::simmpi {

double Timeline::total_seconds() const {
  double total = 0.0;
  for (const PhaseRecord& record : records_) total += record.seconds;
  return total;
}

Communicator::Communicator(const simnet::Network* network, RankMap map)
    : network_(network), map_(std::move(map)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("Communicator: network must not be null");
  }
  if (map_.num_nodes() != network_->num_nodes()) {
    throw std::invalid_argument(
        "Communicator: rank map node count must match the network");
  }
}

namespace {

/// Appends a phase to `timeline`. `max_load` is the one scan of the
/// phase's loads: it is recorded and it priced `seconds`.
double record_phase(const std::string& label, double seconds, double max_load,
                    double total_bytes, Timeline& timeline) {
  PhaseRecord record;
  record.label = label;
  record.seconds = seconds;
  record.max_channel_bytes = max_load;
  record.total_bytes = total_bytes;
  timeline.add(std::move(record));
  return seconds;
}

}  // namespace

double Communicator::run_phase(const std::string& label,
                               const std::vector<simnet::Flow>& flows,
                               Timeline& timeline) const {
  const simnet::PhaseCost cost = network_->price_flows(flows);
  return record_phase(label, cost.seconds, cost.max_load, cost.total_bytes,
                      timeline);
}

double Communicator::run_phase(const std::string& label,
                               const simnet::GroupExchange& exchange,
                               Timeline& timeline) const {
  const simnet::LinkLoads loads = network_->route_exchange(exchange);
  const double max_load = loads.max_load();
  return record_phase(label,
                      network_->exchange_seconds(loads, max_load, exchange),
                      max_load, exchange.total_bytes(), timeline);
}

double Communicator::run_halo_phase(const std::string& label, double bytes,
                                    Timeline& timeline) const {
  const simnet::PhaseCost cost = network_->price_halo(bytes);
  return record_phase(label, cost.seconds, cost.max_load, cost.total_bytes,
                      timeline);
}

simnet::GroupExchange Communicator::group_alltoall(
    std::int64_t group_size, double bytes_per_rank) const {
  const std::int64_t ranks = map_.num_ranks();
  if (group_size < 1 || ranks % group_size != 0) {
    throw std::invalid_argument(
        "group_alltoall: group size must divide the rank count");
  }
  simnet::GroupExchange exchange;
  if (group_size == 1) return exchange;
  exchange.bytes_per_pair = bytes_per_rank / static_cast<double>(group_size - 1);
  // Mapping-agnostic: the ranks of one node are contiguous, so walk each
  // group in node-sized chunks, one member per node it touches.
  for (std::int64_t group_first = 0; group_first < ranks;
       group_first += group_size) {
    const std::int64_t group_last = group_first + group_size - 1;
    std::int64_t rank = group_first;
    while (rank <= group_last) {
      const topo::VertexId node = map_.node_of(rank);
      const std::int64_t node_last =
          map_.first_rank_on(node) + map_.ranks_on(node) - 1;
      const std::int64_t chunk_last = std::min(group_last, node_last);
      exchange.members.push_back({node, chunk_last - rank + 1});
      rank = chunk_last + 1;
    }
    exchange.group_ends.push_back(exchange.members.size());
  }
  return exchange;
}

void Communicator::butterfly(std::int64_t mask, double bytes,
                             std::vector<simnet::Flow>& out) const {
  const std::int64_t ranks = map_.num_ranks();
  if ((ranks & (ranks - 1)) != 0 || mask <= 0 || mask >= ranks) {
    throw std::invalid_argument(
        "butterfly: the rank count must be a power of two and the mask in "
        "(0, ranks)");
  }
  out.clear();
  out.reserve(static_cast<std::size_t>(ranks));
  // Nodes in id order, each node's contiguous ranks in rank order: a node's
  // off-node partners are appended, sorted by destination node, and merged
  // into one flow per destination. Every rank sends the same `bytes`, so
  // neither the sort's tie order nor the order a flow's ranks are added in
  // can change its sum from 0.0.
  for (topo::VertexId node = 0; node < map_.num_nodes(); ++node) {
    const std::int64_t first = map_.first_rank_on(node);
    const std::int64_t last = first + map_.ranks_on(node);
    const std::size_t begin = out.size();
    for (std::int64_t rank = first; rank < last; ++rank) {
      const topo::VertexId peer = map_.node_of(rank ^ mask);
      if (peer != node) out.push_back({node, peer, 0.0});
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
              [](const simnet::Flow& x, const simnet::Flow& y) {
                return x.dst < y.dst;
              });
    std::size_t kept = begin;
    for (std::size_t i = begin; i < out.size(); ++i) {
      if (kept == begin || out[kept - 1].dst != out[i].dst) {
        out[kept++] = out[i];
      }
      out[kept - 1].bytes += bytes;
    }
    out.resize(kept);
  }
  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("simmpi.rank_messages")
        .add(static_cast<std::uint64_t>(ranks));
    registry->counter("simmpi.node_flows").add(out.size());
  }
}

}  // namespace npac::simmpi
