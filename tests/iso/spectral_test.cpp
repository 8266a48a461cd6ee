// Spectral (Fiedler) partitioning heuristic tests — the approximation
// route Section 5 points to (Lee–Oveis Gharan–Trevisan) for topologies
// where exact isoperimetry is unknown.
#include "iso/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "iso/brute_force.hpp"
#include "topo/dragonfly.hpp"
#include "topo/torus.hpp"

namespace npac::iso {
namespace {

TEST(FiedlerTest, VectorIsOrthogonalToConstants) {
  const topo::Graph g = topo::make_cycle(12);
  const auto fiedler = fiedler_vector(g);
  ASSERT_EQ(fiedler.size(), 12u);
  double sum = 0.0;
  for (const double x : fiedler) sum += x;
  EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST(FiedlerTest, VectorIsNormalized) {
  const topo::Graph g = topo::make_cycle(12);
  const auto fiedler = fiedler_vector(g);
  double norm = 0.0;
  for (const double x : fiedler) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(FiedlerTest, SortsPathEndToEnd) {
  // On a path graph the Fiedler vector is monotone along the path.
  const topo::Graph g = topo::make_path(10);
  const auto fiedler = fiedler_vector(g);
  const bool increasing = fiedler.front() < fiedler.back();
  for (std::size_t i = 1; i < fiedler.size(); ++i) {
    if (increasing) {
      EXPECT_GT(fiedler[i], fiedler[i - 1]) << "position " << i;
    } else {
      EXPECT_LT(fiedler[i], fiedler[i - 1]) << "position " << i;
    }
  }
}

/// fiedler_vector as it was written before the operator's diagonal was
/// hoisted out of the iteration: shift - degree_capacity(v) recomputed for
/// every vertex on every multiply.
std::vector<double> fiedler_with_per_iteration_degrees(
    const topo::Graph& graph, const SpectralOptions& options) {
  const auto n = graph.num_vertices();
  double max_degree = 0.0;
  for (topo::VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, graph.degree_capacity(v));
  }
  const double shift = 2.0 * max_degree + 1.0;
  const auto deflate = [](std::vector<double>& x) {
    const double mean = std::accumulate(x.begin(), x.end(), 0.0) /
                        static_cast<double>(x.size());
    for (double& value : x) value -= mean;
  };
  const auto normalize = [](std::vector<double>& x) {
    double norm = 0.0;
    for (const double value : x) norm += value * value;
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (double& value : x) value /= norm;
    }
    return norm;
  };
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& value : x) value = uniform(rng);
  deflate(x);
  normalize(x);
  std::vector<double> y(static_cast<std::size_t>(n));
  std::vector<double> prev = x;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (topo::VertexId v = 0; v < n; ++v) {
      double acc = (shift - graph.degree_capacity(v)) *
                   x[static_cast<std::size_t>(v)];
      for (const topo::Arc& a : graph.neighbors(v)) {
        acc += a.capacity * x[static_cast<std::size_t>(a.to)];
      }
      y[static_cast<std::size_t>(v)] = acc;
    }
    deflate(y);
    if (normalize(y) == 0.0) {
      for (double& value : y) value = uniform(rng);
      deflate(y);
      normalize(y);
    }
    x.swap(y);
    double delta = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      delta = std::max(delta, std::abs(std::abs(x[i]) - std::abs(prev[i])));
    }
    prev = x;
    if (delta < options.tolerance && iter > 10) break;
  }
  return x;
}

TEST(FiedlerTest, HoistedDiagonalMatchesPerIterationDegreesBitForBit) {
  // A dragonfly with 1x/3x/4x capacities (its power iteration runs to the
  // iteration cap, the case the hoist speeds up) and a non-regular
  // multigraph with parallel edges of different capacities.
  topo::DragonflyConfig config;
  config.a = 4;
  config.h = 2;
  config.groups = 5;
  config.global_ports = 1;
  const topo::Graph dragonfly = topo::make_dragonfly(config);
  const topo::Graph multigraph = topo::Graph::from_edges(
      7, {{0, 1, 1.0}, {0, 1, 2.5}, {1, 2, 1.0}, {2, 3, 3.0}, {3, 4, 1.0},
          {4, 5, 0.5}, {5, 6, 1.0}, {6, 0, 2.0}, {2, 5, 1.0}, {2, 5, 1.0}});
  for (const topo::Graph* graph : {&dragonfly, &multigraph}) {
    const SpectralOptions options;
    const std::vector<double> want =
        fiedler_with_per_iteration_degrees(*graph, options);
    const std::vector<double> got = fiedler_vector(*graph, options);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      ASSERT_EQ(got[v], want[v]) << "vertex " << v << " of "
                                 << graph->num_vertices();
    }
  }
}

TEST(SweepCutTest, ReturnsRequestedSize) {
  const topo::Graph g = topo::make_cycle(10);
  const auto cut = spectral_sweep_cut(g, 4);
  EXPECT_EQ(cut.vertices.size(), 4u);
}

TEST(SweepCutTest, CutValueMatchesReportedVertices) {
  const topo::Graph g = topo::Torus({4, 3}).build_graph();
  const auto cut = spectral_sweep_cut(g, 6);
  const auto in_set = g.indicator(cut.vertices);
  EXPECT_DOUBLE_EQ(g.cut_capacity(in_set), cut.cut_capacity);
}

TEST(SweepCutTest, OptimalOnCycle) {
  // The sweep cut of a cycle picks a contiguous arc: cut = 2 = optimum.
  const topo::Graph g = topo::make_cycle(16);
  const auto cut = spectral_sweep_cut(g, 8);
  EXPECT_DOUBLE_EQ(cut.cut_capacity, 2.0);
}

TEST(SweepCutTest, WithinFactorOfBruteForceOnSmallTori) {
  // Spectral sweep is a heuristic; on tiny tori it should land within 2x
  // of the true optimum (it is exact on all of these in practice).
  for (const topo::Dims& dims :
       {topo::Dims{4, 3}, topo::Dims{6, 2}, topo::Dims{4, 4}}) {
    const topo::Torus torus(dims);
    const topo::Graph g = torus.build_graph();
    const std::int64_t t = torus.num_vertices() / 2;
    const auto sweep = spectral_sweep_cut(g, t);
    const auto brute = brute_force_isoperimetric(g, t);
    EXPECT_LE(sweep.cut_capacity, 2.0 * brute.min_cut + 1e-9)
        << torus.to_string();
    EXPECT_GE(sweep.cut_capacity, brute.min_cut - 1e-9) << torus.to_string();
  }
}

TEST(BestConductanceTest, FindsBalancedCutOnDumbbell) {
  // Two K_4 cliques joined by one edge: the best-conductance cut is one
  // clique (cut capacity 1).
  std::vector<topo::EdgeSpec> edges;
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        edges.push_back({base + i, base + j});
      }
    }
  }
  edges.push_back({3, 4});
  const topo::Graph g = topo::Graph::from_edges(8, edges);
  const auto cut = spectral_best_conductance_cut(g);
  EXPECT_EQ(cut.vertices.size(), 4u);
  EXPECT_DOUBLE_EQ(cut.cut_capacity, 1.0);
}

TEST(SpectralTest, DeterministicAcrossCalls) {
  const topo::Graph g = topo::Torus({4, 4}).build_graph();
  const auto a = spectral_sweep_cut(g, 8);
  const auto b = spectral_sweep_cut(g, 8);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_DOUBLE_EQ(a.cut_capacity, b.cut_capacity);
}

}  // namespace
}  // namespace npac::iso
