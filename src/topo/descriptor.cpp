#include "topo/descriptor.hpp"

#include <charconv>
#include <stdexcept>

#include "support/decimal.hpp"
#include "topo/hamming.hpp"
#include "topo/hypercube.hpp"

namespace npac::topo {

namespace {

/// A capacity as "%g" renders it: six significant digits, trailing zeros
/// dropped. std::to_chars in general format with precision 6 produces the
/// same bytes without consulting the locale.
std::string format_capacity(double value) {
  char buffer[32];
  char* const end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                  std::chars_format::general, 6)
                        .ptr;
  return std::string(buffer, end);
}

std::string join_dims(const Dims& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += 'x';
    support::append_int(out, dims[i]);
  }
  return out;
}

bool unit_capacities(const std::vector<double>& capacities) {
  for (const double c : capacities) {
    if (c != 1.0) return false;
  }
  return true;
}

std::string join_capacities(const std::vector<double>& capacities) {
  std::string out;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    if (i > 0) out += ',';
    out += format_capacity(capacities[i]);
  }
  return out;
}

}  // namespace

TopologySpec TopologySpec::torus(Dims dims, double link_capacity) {
  if (dims.empty()) {
    throw std::invalid_argument("TopologySpec::torus: empty dimension list");
  }
  TopologySpec spec;
  spec.kind_ = Kind::kTorus;
  spec.dims_ = std::move(dims);
  spec.capacities_ = {link_capacity};
  return spec;
}

TopologySpec TopologySpec::weighted_torus(Dims dims,
                                          std::vector<double> capacities) {
  if (dims.empty()) {
    throw std::invalid_argument(
        "TopologySpec::weighted_torus: empty dimension list");
  }
  if (capacities.size() != dims.size()) {
    throw std::invalid_argument(
        "TopologySpec::weighted_torus: capacity count must match dimension "
        "count");
  }
  for (const double c : capacities) {
    if (c <= 0.0) {
      throw std::invalid_argument(
          "TopologySpec::weighted_torus: capacities must be positive");
    }
  }
  TopologySpec spec;
  spec.kind_ = Kind::kTorus;
  spec.dims_ = std::move(dims);
  spec.capacities_ = std::move(capacities);
  return spec;
}

TopologySpec TopologySpec::mesh(Dims dims, double link_capacity) {
  if (dims.empty()) {
    throw std::invalid_argument("TopologySpec::mesh: empty dimension list");
  }
  TopologySpec spec;
  spec.kind_ = Kind::kMesh;
  spec.dims_ = std::move(dims);
  spec.capacities_ = {link_capacity};
  return spec;
}

TopologySpec TopologySpec::hypercube(int n, double link_capacity) {
  if (n < 1 || n > 62) {
    throw std::invalid_argument("TopologySpec::hypercube: n out of range");
  }
  TopologySpec spec;
  spec.kind_ = Kind::kHypercube;
  spec.dims_ = {n};
  spec.capacities_ = {link_capacity};
  return spec;
}

TopologySpec TopologySpec::hamming(Dims dims, std::vector<double> capacities) {
  if (dims.empty()) {
    throw std::invalid_argument("TopologySpec::hamming: empty dimension list");
  }
  if (!capacities.empty() && capacities.size() != dims.size()) {
    throw std::invalid_argument(
        "TopologySpec::hamming: capacity count must match dimension count");
  }
  TopologySpec spec;
  spec.kind_ = Kind::kHamming;
  spec.dims_ = std::move(dims);
  spec.capacities_ = std::move(capacities);
  return spec;
}

TopologySpec TopologySpec::dragonfly(const DragonflyConfig& config) {
  TopologySpec spec;
  spec.kind_ = Kind::kDragonfly;
  spec.dims_ = {config.a, config.h, config.groups, config.global_ports};
  spec.capacities_ = {config.cap_a, config.cap_h, config.cap_global};
  spec.arrangement_ = static_cast<int>(config.arrangement);
  return spec;
}

TopologySpec TopologySpec::fat_tree(std::int64_t k, double link_capacity) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("TopologySpec::fat_tree: k must be even >= 2");
  }
  TopologySpec spec;
  spec.kind_ = Kind::kFatTree;
  spec.dims_ = {k};
  spec.capacities_ = {link_capacity};
  return spec;
}

std::string TopologySpec::family() const {
  switch (kind_) {
    case Kind::kTorus:
      return "torus";
    case Kind::kMesh:
      return "mesh";
    case Kind::kHypercube:
      return "hypercube";
    case Kind::kHamming:
      return "hamming";
    case Kind::kDragonfly:
      return "dragonfly";
    case Kind::kFatTree:
      return "fattree";
  }
  return "?";
}

std::string TopologySpec::id() const {
  std::string out = family();
  out += ':';
  switch (kind_) {
    case Kind::kTorus:
    case Kind::kMesh:
    case Kind::kHamming:
      out += join_dims(dims_);
      break;
    case Kind::kHypercube:
      support::append_int(out, dims_[0]);
      break;
    case Kind::kDragonfly:
      out += 'a';
      support::append_int(out, dims_[0]);
      out += ":h";
      support::append_int(out, dims_[1]);
      out += ":g";
      support::append_int(out, dims_[2]);
      out += ":p";
      support::append_int(out, dims_[3]);
      break;
    case Kind::kFatTree:
      out += 'k';
      support::append_int(out, dims_[0]);
      break;
  }
  if (!unit_capacities(capacities_)) {
    out += ":c";
    out += join_capacities(capacities_);
  }
  if (kind_ == Kind::kDragonfly) {
    static constexpr const char* kArrangements[] = {"abs", "rel", "circ"};
    out += ':';
    out += kArrangements[arrangement_];
  }
  return out;
}

std::int64_t TopologySpec::num_vertices() const {
  switch (kind_) {
    case Kind::kTorus:
    case Kind::kMesh:
    case Kind::kHamming: {
      std::int64_t n = 1;
      for (const std::int64_t a : dims_) n *= a;
      return n;
    }
    case Kind::kHypercube:
      return std::int64_t{1} << dims_[0];
    case Kind::kDragonfly:
      return dims_[0] * dims_[1] * dims_[2];
    case Kind::kFatTree: {
      const FatTreeConfig config{dims_[0], capacities_[0]};
      return fat_tree_hosts(config) + fat_tree_switches(config);
    }
  }
  return 0;
}

std::int64_t TopologySpec::num_hosts() const {
  if (kind_ == Kind::kFatTree) {
    return fat_tree_hosts({dims_[0], capacities_[0]});
  }
  return num_vertices();
}

Graph TopologySpec::build() const {
  if (dims_.empty() || capacities_.size() < 1) {
    // Only the Hamming factory may leave capacities empty (unit links).
    if (kind_ != Kind::kHamming || dims_.empty()) {
      throw std::invalid_argument(
          "TopologySpec::build: default-constructed (inert) spec");
    }
  }
  switch (kind_) {
    case Kind::kTorus:
      if (capacities_.size() > 1) {
        return make_weighted_torus(dims_, capacities_);
      }
      return Torus(dims_, capacities_[0]).build_graph();
    case Kind::kMesh:
      return make_mesh(dims_, capacities_[0]);
    case Kind::kHypercube:
      return make_hypercube(static_cast<int>(dims_[0]), capacities_[0]);
    case Kind::kHamming:
      return Hamming(dims_, capacities_).build_graph();
    case Kind::kDragonfly:
      return make_dragonfly(dragonfly_config());
    case Kind::kFatTree:
      return make_fat_tree({dims_[0], capacities_[0]});
  }
  throw std::logic_error("TopologySpec::build: unknown kind");
}

DragonflyConfig TopologySpec::dragonfly_config() const {
  if (kind_ != Kind::kDragonfly) {
    throw std::logic_error(
        "TopologySpec::dragonfly_config: not a dragonfly spec");
  }
  DragonflyConfig config;
  config.a = dims_[0];
  config.h = dims_[1];
  config.groups = dims_[2];
  config.global_ports = dims_[3];
  config.cap_a = capacities_[0];
  config.cap_h = capacities_[1];
  config.cap_global = capacities_[2];
  config.arrangement = static_cast<GlobalArrangement>(arrangement_);
  return config;
}

}  // namespace npac::topo
