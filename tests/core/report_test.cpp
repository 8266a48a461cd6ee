// Rendering tests for the table/CSV output layer used by every bench.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "simmpi/communicator.hpp"

namespace npac::core {
namespace {

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable table({"P", "Geometry", "BW"});
  table.add_row({"2048", "4 x 1 x 1 x 1", "256"});
  table.add_row({"4096", "2 x 2 x 2 x 1", "1024"});
  const std::string out = table.render();
  EXPECT_NE(out.find("P"), std::string::npos);
  EXPECT_NE(out.find("4 x 1 x 1 x 1"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TextTableTest, ColumnsAreAligned) {
  TextTable table({"a", "b"});
  table.add_row({"long-cell-value", "x"});
  table.add_row({"y", "z"});
  const std::string out = table.render();
  // Each line containing a second-column cell starts it at the same offset.
  const auto first_line_end = out.find('\n');
  ASSERT_NE(first_line_end, std::string::npos);
  // "a" header padded to the widest first-column cell.
  EXPECT_GE(first_line_end, std::string("long-cell-value  b").size());
}

TEST(TextTableTest, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(FormatTest, Doubles) {
  EXPECT_EQ(format_double(1.9234, 2), "1.92");
  EXPECT_EQ(format_double(0.1342, 4), "0.1342");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
}

TEST(FormatTest, Ints) {
  EXPECT_EQ(format_int(2048), "2048");
  EXPECT_EQ(format_int(-7), "-7");
}

TEST(TimelineRenderTest, ShowsPhasesAndCumulativePercent) {
  simmpi::Timeline timeline;
  timeline.add({"bfs0:scatter", 3.0, 5.0e6, 2.0e7});
  timeline.add({"bfs0:gather", 1.0, 2.5e6, 1.0e7});
  const std::string out = render_timeline(timeline);
  EXPECT_NE(out.find("bfs0:scatter"), std::string::npos);
  EXPECT_NE(out.find("3.0000"), std::string::npos);
  EXPECT_NE(out.find("75.0"), std::string::npos);   // cumulative after phase 1
  EXPECT_NE(out.find("100.0"), std::string::npos);  // cumulative after phase 2
}

TEST(TimelineRenderTest, EmptyTimelineRendersHeaderOnly) {
  simmpi::Timeline timeline;
  const std::string out = render_timeline(timeline);
  EXPECT_NE(out.find("Phase"), std::string::npos);
}

}  // namespace
}  // namespace npac::core
