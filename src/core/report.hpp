// Plain-text table rendering for experiment outputs.
//
// Every bench binary prints the same rows the paper's tables and figures
// report; this module keeps that formatting in one place so outputs stay
// uniform and machine-parseable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace npac::core {

/// Column-aligned text table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::size_t num_rows() const { return rows_.size(); }

  /// Renders with padded columns, a header underline, and two-space gutters.
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision decimal rendering ("0.134", "1.92").
std::string format_double(double value, int precision = 3);

/// Integer rendering with no grouping.
std::string format_int(std::int64_t value);

}  // namespace npac::core

namespace npac::simmpi {
class Timeline;
}

namespace npac::core {

/// Per-phase breakdown of a communication timeline: label, seconds,
/// max-channel megabytes, total inter-node megabytes, and a cumulative
/// percentage column — the view an MPI profiler would give.
std::string render_timeline(const simmpi::Timeline& timeline);

}  // namespace npac::core
