// TopologySpec tests: canonical ids, vertex/host counts, graph
// materialization consistency with the family generators, and ordering.
#include "topo/descriptor.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bgq/geometry.hpp"
#include "testing/global_locale.hpp"
#include "topo/hamming.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus.hpp"

namespace npac::topo {
namespace {

/// Ids and dimension strings with multi-digit fields and %g-style
/// capacities (a six-digit mantissa, an exponent either way), and the
/// bytes the ostringstream/snprintf renderers printed for them under the
/// classic locale.
std::vector<std::string> multi_digit_ids() {
  DragonflyConfig config;
  config.a = 12;
  config.h = 10;
  config.groups = 11;
  config.global_ports = 10;
  config.cap_global = 0.25;
  return {
      TopologySpec::torus({2, 2, 2, 12}).id(),
      TopologySpec::weighted_torus({12, 10, 2}, {1.5, 1234567.0, 0.00001})
          .id(),
      TopologySpec::mesh({10, 11}).id(),
      TopologySpec::hypercube(12).id(),
      TopologySpec::hamming({16, 12}, {1.0, 1e6}).id(),
      TopologySpec::dragonfly(config).id(),
      TopologySpec::fat_tree(22, 100.0).id(),
      Torus({12, 2, 2, 2}).to_string(),
      bgq::Geometry(12, 2, 2, 10).to_string(),
  };
}

const std::vector<std::string> kMultiDigitIds = {
    "torus:2x2x2x12",
    "torus:12x10x2:c1.5,1.23457e+06,1e-05",
    "mesh:10x11",
    "hypercube:12",
    "hamming:16x12:c1,1e+06",
    "dragonfly:a12:h10:g11:p10:c1,3,0.25:abs",
    "fattree:k22:c100",
    "12 x 2 x 2 x 2",
    "12 x 10 x 2 x 2",
};

TEST(TopologySpecTest, MultiDigitIdsRenderExactly) {
  EXPECT_EQ(multi_digit_ids(), kMultiDigitIds);
}

TEST(TopologySpecTest, IdsIgnoreTheGlobalLocale) {
  // Ids are SweepContext cache keys and printed machine names: a
  // digit-grouping global locale must not turn torus:2x2x2x12 into
  // torus:2x2x2x1,2.
  const test_support::ScopedDigitGrouping grouping;
  std::ostringstream stream;  // a new stream takes the global locale
  stream << 12;
  ASSERT_EQ(stream.str(), "1,2");
  EXPECT_EQ(multi_digit_ids(), kMultiDigitIds);
}

TEST(TopologySpecTest, IdsAreCanonicalPerFamily) {
  EXPECT_EQ(TopologySpec::torus({4, 4, 3, 2}).id(), "torus:4x4x3x2");
  EXPECT_EQ(TopologySpec::torus({4, 4}, 2.0).id(), "torus:4x4:c2");
  EXPECT_EQ(TopologySpec::mesh({16, 16}).id(), "mesh:16x16");
  EXPECT_EQ(TopologySpec::hypercube(9).id(), "hypercube:9");
  EXPECT_EQ(TopologySpec::hamming({8, 8, 8}).id(), "hamming:8x8x8");
  EXPECT_EQ(TopologySpec::hamming({16, 6}, {1.0, 3.0}).id(),
            "hamming:16x6:c1,3");
  EXPECT_EQ(TopologySpec::fat_tree(12).id(), "fattree:k12");

  DragonflyConfig config;
  config.a = 8;
  config.h = 4;
  config.groups = 16;
  config.global_ports = 1;
  EXPECT_EQ(TopologySpec::dragonfly(config).id(),
            "dragonfly:a8:h4:g16:p1:c1,3,4:abs");
  config.arrangement = GlobalArrangement::kCirculant;
  config.cap_a = config.cap_h = config.cap_global = 1.0;
  EXPECT_EQ(TopologySpec::dragonfly(config).id(),
            "dragonfly:a8:h4:g16:p1:circ");
}

TEST(TopologySpecTest, VertexAndHostCountsMatchTheGenerators) {
  EXPECT_EQ(TopologySpec::torus({4, 4, 4, 4, 2}).num_vertices(), 512);
  EXPECT_EQ(TopologySpec::hypercube(9).num_vertices(), 512);
  EXPECT_EQ(TopologySpec::hamming({8, 8, 8}).num_vertices(), 512);

  DragonflyConfig config;
  config.a = 8;
  config.h = 4;
  config.groups = 16;
  config.global_ports = 1;
  EXPECT_EQ(TopologySpec::dragonfly(config).num_vertices(), 512);

  const TopologySpec fat_tree = TopologySpec::fat_tree(12);
  EXPECT_EQ(fat_tree.num_hosts(), 432);
  EXPECT_EQ(fat_tree.num_vertices(),
            fat_tree_hosts({12, 1.0}) + fat_tree_switches({12, 1.0}));
  // Direct networks: every vertex injects.
  EXPECT_EQ(TopologySpec::hypercube(9).num_hosts(), 512);
}

TEST(TopologySpecTest, BuildMatchesFamilyGenerators) {
  {
    const Graph from_spec = TopologySpec::torus({4, 3, 2}).build();
    const Graph direct = Torus({4, 3, 2}).build_graph();
    EXPECT_EQ(from_spec.num_vertices(), direct.num_vertices());
    EXPECT_EQ(from_spec.num_edges(), direct.num_edges());
    EXPECT_EQ(from_spec.total_capacity(), direct.total_capacity());
  }
  {
    const Graph from_spec = TopologySpec::hamming({4, 4}, {1.0, 3.0}).build();
    const Graph direct = Hamming({4, 4}, {1.0, 3.0}).build_graph();
    EXPECT_EQ(from_spec.num_edges(), direct.num_edges());
    EXPECT_EQ(from_spec.total_capacity(), direct.total_capacity());
  }
  {
    const Graph from_spec = TopologySpec::hypercube(5).build();
    EXPECT_EQ(from_spec.num_vertices(), 32);
    EXPECT_EQ(from_spec.num_edges(), 80u);
  }
}

TEST(TopologySpecTest, SpecsAreOrderedAndEqualityComparable) {
  const TopologySpec a = TopologySpec::torus({4, 4});
  const TopologySpec b = TopologySpec::torus({4, 4});
  const TopologySpec c = TopologySpec::torus({4, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(TopologySpec::torus({2, 2, 2}).id(),
            TopologySpec::hypercube(3).id());
}

TEST(TopologySpecTest, FactoriesValidateParameters) {
  EXPECT_THROW(TopologySpec::torus({}), std::invalid_argument);
  EXPECT_THROW(TopologySpec::hypercube(0), std::invalid_argument);
  EXPECT_THROW(TopologySpec::hamming({4}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(TopologySpec::fat_tree(5), std::invalid_argument);
  EXPECT_THROW(TopologySpec().build(), std::invalid_argument);
}

TEST(TopologySpecTest, WeightedTorusSpecBuildsAndRendersDistinctIds) {
  const auto weighted =
      TopologySpec::weighted_torus({4, 3, 2}, {2.0, 1.0, 0.5});
  EXPECT_EQ(weighted.kind(), TopologySpec::Kind::kTorus);
  EXPECT_EQ(weighted.family(), "torus");
  EXPECT_EQ(weighted.id(), "torus:4x3x2:c2,1,0.5");
  EXPECT_NE(weighted.id(), TopologySpec::torus({4, 3, 2}).id());
  EXPECT_EQ(weighted.num_vertices(), 24);

  // build() must produce exactly make_weighted_torus's edge set.
  const Graph built = weighted.build();
  const Graph reference = make_weighted_torus({4, 3, 2}, {2.0, 1.0, 0.5});
  ASSERT_EQ(built.num_vertices(), reference.num_vertices());
  ASSERT_EQ(built.num_edges(), reference.num_edges());
  EXPECT_DOUBLE_EQ(built.total_capacity(), reference.total_capacity());

  EXPECT_THROW(TopologySpec::weighted_torus({4, 3}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::weighted_torus({4, 3}, {1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::weighted_torus({}, {}), std::invalid_argument);
}

TEST(TopologySpecTest, ArcAccessorsExposeSortedAdjacency) {
  const Graph g = TopologySpec::torus({4}).build();
  ASSERT_EQ(g.num_arcs(), 8u);
  // Vertex 0's neighbors on C_4 are {1, 3}, sorted ascending.
  EXPECT_EQ(g.arc_begin(0), 0u);
  EXPECT_EQ(g.arc_at(0).to, 1);
  EXPECT_EQ(g.arc_at(1).to, 3);
  EXPECT_THROW(g.arc_at(8), std::out_of_range);
}

}  // namespace
}  // namespace npac::topo
