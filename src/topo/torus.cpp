#include "topo/torus.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "support/decimal.hpp"

namespace npac::topo {

Torus::Torus(Dims dims, double link_capacity)
    : dims_(std::move(dims)), link_capacity_(link_capacity) {
  if (dims_.empty()) {
    throw std::invalid_argument("Torus: at least one dimension required");
  }
  if (link_capacity_ <= 0.0) {
    throw std::invalid_argument("Torus: link capacity must be positive");
  }
  strides_.resize(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i] < 1) {
      throw std::invalid_argument("Torus: dimension lengths must be >= 1");
    }
    strides_[i] = num_vertices_;
    num_vertices_ *= dims_[i];
  }
}

std::int64_t Torus::longest_dim() const {
  return *std::max_element(dims_.begin(), dims_.end());
}

VertexId Torus::index_of(const Coord& c) const {
  if (c.size() != dims_.size()) {
    throw std::invalid_argument("Torus::index_of: dimension count mismatch");
  }
  VertexId idx = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (c[i] < 0 || c[i] >= dims_[i]) {
      throw std::out_of_range("Torus::index_of: coordinate out of range");
    }
    idx += c[i] * strides_[i];
  }
  return idx;
}

Coord Torus::coord_of(VertexId v) const {
  if (v < 0 || v >= num_vertices_) {
    throw std::out_of_range("Torus::coord_of: vertex out of range");
  }
  Coord c(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    c[i] = v % dims_[i];
    v /= dims_[i];
  }
  return c;
}

std::size_t Torus::expected_num_edges() const {
  std::size_t edges = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i] == 1) continue;
    const std::int64_t per_vertex = (dims_[i] == 2) ? 1 : 2;
    // Each column of length a_i contributes a_i edges (cycle) or 1 (C_2);
    // equivalently per_vertex * num_vertices / 2.
    edges += static_cast<std::size_t>(per_vertex * num_vertices_ / 2);
  }
  return edges;
}

std::size_t Torus::degree() const {
  std::size_t d = 0;
  for (const std::int64_t a : dims_) {
    if (a >= 3) {
      d += 2;
    } else if (a == 2) {
      d += 1;
    }
  }
  return d;
}

std::int64_t Torus::distance(const Coord& a, const Coord& b) const {
  if (a.size() != dims_.size() || b.size() != dims_.size()) {
    throw std::invalid_argument("Torus::distance: dimension count mismatch");
  }
  std::int64_t dist = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const std::int64_t diff = std::abs(a[i] - b[i]);
    dist += std::min(diff, dims_[i] - diff);
  }
  return dist;
}

Coord Torus::antipode(const Coord& c) const {
  if (c.size() != dims_.size()) {
    throw std::invalid_argument("Torus::antipode: dimension count mismatch");
  }
  Coord far(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    far[i] = (c[i] + dims_[i] / 2) % dims_[i];
  }
  return far;
}

Graph Torus::build_graph() const {
  std::vector<EdgeSpec> edges;
  edges.reserve(expected_num_edges());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const Coord c = coord_of(v);
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (dims_[i] == 1) continue;
      Coord next = c;
      next[i] = (c[i] + 1) % dims_[i];
      const VertexId u = index_of(next);
      // Emit each undirected edge once: from the lower endpoint along the
      // +direction. For a_i == 2, the +1 and -1 neighbors coincide; emitting
      // only from c[i] == 0 keeps a single edge.
      if (dims_[i] == 2) {
        if (c[i] == 0) edges.push_back({v, u, link_capacity_});
      } else {
        edges.push_back({v, u, link_capacity_});
      }
    }
  }
  return Graph::from_edges(num_vertices_, edges);
}

Dims Torus::canonical_dims() const {
  Dims sorted = dims_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

std::vector<bool> Torus::cuboid_indicator(const Coord& lo,
                                          const Dims& len) const {
  if (lo.size() != dims_.size() || len.size() != dims_.size()) {
    throw std::invalid_argument(
        "Torus::cuboid_indicator: dimension count mismatch");
  }
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (len[i] < 1 || len[i] > dims_[i]) {
      throw std::invalid_argument(
          "Torus::cuboid_indicator: side length out of range");
    }
    if (lo[i] < 0 || lo[i] >= dims_[i]) {
      throw std::out_of_range("Torus::cuboid_indicator: origin out of range");
    }
  }
  std::vector<bool> in_set(static_cast<std::size_t>(num_vertices_), false);
  Coord c(dims_.size(), 0);
  // Iterate over all cells of the cuboid via mixed-radix counting.
  while (true) {
    Coord absolute(dims_.size());
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      absolute[i] = (lo[i] + c[i]) % dims_[i];
    }
    in_set[static_cast<std::size_t>(index_of(absolute))] = true;
    std::size_t d = 0;
    while (d < dims_.size()) {
      if (++c[d] < len[d]) break;
      c[d] = 0;
      ++d;
    }
    if (d == dims_.size()) break;
  }
  return in_set;
}

std::int64_t Torus::cuboid_cut_edges(const Dims& len) const {
  if (len.size() != dims_.size()) {
    throw std::invalid_argument(
        "Torus::cuboid_cut_edges: dimension count mismatch");
  }
  std::int64_t volume = 1;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (len[i] < 1 || len[i] > dims_[i]) {
      throw std::invalid_argument(
          "Torus::cuboid_cut_edges: side length out of range");
    }
    volume *= len[i];
  }
  std::int64_t cut = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (len[i] == dims_[i]) continue;  // face wraps onto itself: no cut edges
    // Each of the volume/len[i] columns in dimension i is a sub-path of the
    // cycle C_{a_i}: 2 boundary edges for a_i >= 3, 1 for a_i == 2.
    const std::int64_t per_column = (dims_[i] == 2) ? 1 : 2;
    cut += per_column * (volume / len[i]);
  }
  return cut;
}

std::string Torus::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out += " x ";
    support::append_int(out, dims_[i]);
  }
  return out;
}

Graph make_cycle(std::int64_t n, double link_capacity) {
  return Torus(Dims{n}, link_capacity).build_graph();
}

Graph make_path(std::int64_t n, double link_capacity) {
  if (n < 1) throw std::invalid_argument("make_path: n must be >= 1");
  std::vector<EdgeSpec> edges;
  edges.reserve(static_cast<std::size_t>(n - 1));
  for (std::int64_t v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1, link_capacity});
  }
  return Graph::from_edges(n, edges);
}

Graph make_mesh(const Dims& dims, double link_capacity) {
  const Torus shape(dims, link_capacity);  // reuse coordinate arithmetic
  std::vector<EdgeSpec> edges;
  for (VertexId v = 0; v < shape.num_vertices(); ++v) {
    const Coord c = shape.coord_of(v);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (c[i] + 1 >= dims[i]) continue;  // no wraparound
      Coord next = c;
      ++next[i];
      edges.push_back({v, shape.index_of(next), link_capacity});
    }
  }
  return Graph::from_edges(shape.num_vertices(), edges);
}

Graph make_weighted_torus(const Dims& dims,
                          const std::vector<double>& capacities) {
  if (capacities.size() != dims.size()) {
    throw std::invalid_argument(
        "make_weighted_torus: capacity count must match dimension count");
  }
  for (const double c : capacities) {
    if (c <= 0.0) {
      throw std::invalid_argument(
          "make_weighted_torus: capacities must be positive");
    }
  }
  const Torus shape(dims);
  std::vector<EdgeSpec> edges;
  edges.reserve(shape.expected_num_edges());
  for (VertexId v = 0; v < shape.num_vertices(); ++v) {
    const Coord c = shape.coord_of(v);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (dims[i] == 1) continue;
      Coord next = c;
      next[i] = (c[i] + 1) % dims[i];
      const VertexId u = shape.index_of(next);
      if (dims[i] == 2) {
        if (c[i] == 0) edges.push_back({v, u, capacities[i]});
      } else {
        edges.push_back({v, u, capacities[i]});
      }
    }
  }
  return Graph::from_edges(shape.num_vertices(), edges);
}

}  // namespace npac::topo
