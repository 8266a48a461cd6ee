#include "simmpi/communicator.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

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

double record_phase(const std::string& label, const simnet::LinkLoads& loads,
                    double seconds, double total_bytes, Timeline& timeline) {
  PhaseRecord record;
  record.label = label;
  record.seconds = seconds;
  record.max_channel_bytes = loads.max_load();
  record.total_bytes = total_bytes;
  timeline.add(std::move(record));
  return seconds;
}

}  // namespace

double Communicator::run_phase(const std::string& label,
                               const std::vector<simnet::Flow>& flows,
                               Timeline& timeline) const {
  const simnet::LinkLoads loads = network_->route_all(flows);
  double total_bytes = 0.0;
  for (const simnet::Flow& flow : flows) {
    if (flow.src != flow.dst) total_bytes += flow.bytes;
  }
  return record_phase(label, loads, network_->completion_seconds(loads, flows),
                      total_bytes, timeline);
}

double Communicator::run_phase(const std::string& label,
                               const simnet::GroupExchange& exchange,
                               Timeline& timeline) const {
  const simnet::LinkLoads loads = network_->route_exchange(exchange);
  return record_phase(label, loads,
                      network_->exchange_seconds(loads, exchange),
                      exchange.total_bytes(), timeline);
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

std::vector<simnet::Flow> Communicator::rank_messages(
    const std::vector<RankMessage>& messages) const {
  std::map<std::pair<topo::VertexId, topo::VertexId>, double> aggregated;
  for (const RankMessage& message : messages) {
    const topo::VertexId src = map_.node_of(message.src);
    const topo::VertexId dst = map_.node_of(message.dst);
    if (src == dst) continue;
    aggregated[{src, dst}] += message.bytes;
  }
  std::vector<simnet::Flow> flows;
  flows.reserve(aggregated.size());
  for (const auto& [key, bytes] : aggregated) {
    flows.push_back({key.first, key.second, bytes});
  }
  return flows;
}

}  // namespace npac::simmpi
