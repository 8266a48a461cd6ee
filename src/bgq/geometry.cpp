#include "bgq/geometry.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/decimal.hpp"

namespace npac::bgq {

Geometry::Geometry(std::int64_t a, std::int64_t b, std::int64_t c,
                   std::int64_t d)
    : Geometry(std::array<std::int64_t, 4>{a, b, c, d}) {}

Geometry::Geometry(const std::array<std::int64_t, 4>& dims) : dims_(dims) {
  for (const std::int64_t dim : dims_) {
    if (dim < 1) {
      throw std::invalid_argument("Geometry: dimensions must be >= 1");
    }
  }
  std::sort(dims_.begin(), dims_.end(), std::greater<>());
}

std::int64_t Geometry::midplanes() const {
  return dims_[0] * dims_[1] * dims_[2] * dims_[3];
}

topo::Dims Geometry::node_dims() const {
  topo::Dims dims;
  dims.reserve(5);
  for (const std::int64_t d : dims_) {
    dims.push_back(d * kNodesPerMidplaneDim);
  }
  dims.push_back(kEDimension);
  return dims;
}

topo::Torus Geometry::node_torus() const { return topo::Torus(node_dims()); }

std::int64_t Geometry::longest_node_dim() const {
  return dims_[0] * kNodesPerMidplaneDim;
}

bool Geometry::fits_in(const Geometry& host) const {
  for (std::size_t i = 0; i < 4; ++i) {
    if (dims_[i] > host.dims_[i]) return false;
  }
  return true;
}

std::string Geometry::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) out += " x ";
    support::append_int(out, dims_[i]);
  }
  return out;
}

}  // namespace npac::bgq
