#include "iso/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>

namespace npac::iso {

namespace {

void deflate_ones(std::vector<double>& x) {
  const double mean =
      std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(x.size());
  for (double& value : x) value -= mean;
}

double normalize(std::vector<double>& x) {
  double norm = 0.0;
  for (const double value : x) norm += value * value;
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& value : x) value /= norm;
  }
  return norm;
}

}  // namespace

std::vector<double> fiedler_vector(const topo::Graph& graph,
                                   const SpectralOptions& options) {
  const auto n = graph.num_vertices();
  if (n < 2) {
    throw std::invalid_argument("fiedler_vector: need at least 2 vertices");
  }
  double max_degree = 0.0;
  for (topo::VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, graph.degree_capacity(v));
  }
  const double shift = 2.0 * max_degree + 1.0;
  std::vector<double> diagonal(static_cast<std::size_t>(n));
  for (topo::VertexId v = 0; v < n; ++v) {
    diagonal[static_cast<std::size_t>(v)] = shift - graph.degree_capacity(v);
  }

  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& value : x) value = uniform(rng);
  deflate_ones(x);
  normalize(x);

  // The arc capacities, dense beside the CSR offsets and heads, so the
  // product streams arrays instead of calling neighbors() per vertex.
  const std::span<const std::size_t> offsets = graph.arc_offsets();
  const std::span<const std::int32_t> heads = graph.arc_heads();
  std::vector<double> capacity(graph.num_arcs());
  for (std::size_t arc = 0; arc < capacity.size(); ++arc) {
    capacity[arc] = graph.arc_at(arc).capacity;
  }

  // Each iteration is y = (cI - L) x, where L is the weighted Laplacian and
  // c a shift making the operator PSD with the Fiedler vector as its
  // second-largest eigenvector; then y is deflated against the all-ones
  // vector and normalised. Three fused passes do the same operations in
  // the same order as separate product, deflate and normalise loops.
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> y(size);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double sum = 0.0;
    for (std::size_t v = 0; v < size; ++v) {
      double acc = diagonal[v] * x[v];
      for (std::size_t arc = offsets[v]; arc < offsets[v + 1]; ++arc) {
        acc += capacity[arc] * x[static_cast<std::size_t>(heads[arc])];
      }
      y[v] = acc;
      sum += acc;
    }
    const double mean = sum / static_cast<double>(size);
    double norm = 0.0;
    for (double& value : y) {
      value -= mean;
      norm += value * value;
    }
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      // Degenerate (e.g. disconnected with symmetric start); restart.
      for (double& value : y) value = uniform(rng);
      deflate_ones(y);
      normalize(y);
    }
    // delta compares |y| with |x|, the previous iterate, before the swap.
    double delta = 0.0;
    for (std::size_t v = 0; v < size; ++v) {
      if (norm > 0.0) y[v] /= norm;
      delta = std::max(delta, std::abs(std::abs(y[v]) - std::abs(x[v])));
    }
    x.swap(y);
    if (delta < options.tolerance && iter > 10) break;
  }
  return x;
}

SweepCut spectral_sweep_cut(const topo::Graph& graph, std::int64_t t,
                            const SpectralOptions& options) {
  const auto n = graph.num_vertices();
  if (t < 1 || t >= n) {
    throw std::invalid_argument("spectral_sweep_cut: t must be in [1, n-1]");
  }
  const auto fiedler = fiedler_vector(graph, options);
  std::vector<topo::VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), topo::VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&fiedler](topo::VertexId a, topo::VertexId b) {
                     return fiedler[static_cast<std::size_t>(a)] <
                            fiedler[static_cast<std::size_t>(b)];
                   });
  SweepCut result;
  result.vertices.assign(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(t));
  result.cut_capacity = graph.cut_capacity(graph.indicator(result.vertices));
  return result;
}

SweepCut spectral_best_conductance_cut(const topo::Graph& graph,
                                       const SpectralOptions& options) {
  const auto n = graph.num_vertices();
  if (n < 2) {
    throw std::invalid_argument(
        "spectral_best_conductance_cut: need at least 2 vertices");
  }
  const auto fiedler = fiedler_vector(graph, options);
  std::vector<topo::VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), topo::VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&fiedler](topo::VertexId a, topo::VertexId b) {
                     return fiedler[static_cast<std::size_t>(a)] <
                            fiedler[static_cast<std::size_t>(b)];
                   });

  // Incremental sweep: track the cut as vertices move into the prefix.
  std::vector<bool> in_set(static_cast<std::size_t>(n), false);
  double cut = 0.0;
  double volume = 0.0;
  double total_volume = 0.0;
  for (topo::VertexId v = 0; v < n; ++v) {
    total_volume += graph.degree_capacity(v);
  }

  double best_score = std::numeric_limits<double>::infinity();
  std::int64_t best_prefix = 1;
  double best_cut = 0.0;
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    const topo::VertexId v = order[static_cast<std::size_t>(i)];
    for (const topo::Arc& a : graph.neighbors(v)) {
      if (in_set[static_cast<std::size_t>(a.to)]) {
        cut -= a.capacity;  // edge becomes interior
      } else {
        cut += a.capacity;  // edge becomes boundary
      }
    }
    in_set[static_cast<std::size_t>(v)] = true;
    volume += graph.degree_capacity(v);
    const double denom = std::min(volume, total_volume - volume);
    if (denom <= 0.0) continue;
    const double score = cut / denom;
    if (score < best_score) {
      best_score = score;
      best_prefix = i + 1;
      best_cut = cut;
    }
  }

  SweepCut result;
  result.vertices.assign(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(best_prefix));
  result.cut_capacity = best_cut;
  return result;
}

}  // namespace npac::iso
