#include "core/report.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "simmpi/communicator.hpp"

namespace npac::core {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TextTable: at least one column required");
  }
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: row width != header width");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < cells.size()) out << "  ";
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w;
  out << std::string(total + 2 * (headers_.size() - 1), '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string format_double(double value, int precision) {
  // std::to_chars prints as printf's %.*f in the "C" locale, whatever the
  // global locale (DESIGN.md decision #21). The buffer doubles until the
  // digits fit: 32 bytes hold every cell the tables print.
  std::string out(32, '\0');
  for (;;) {
    const auto [end, error] =
        std::to_chars(out.data(), out.data() + out.size(), value,
                      std::chars_format::fixed, precision);
    if (error == std::errc()) {
      out.resize(static_cast<std::size_t>(end - out.data()));
      return out;
    }
    out.resize(out.size() * 2);
  }
}

std::string format_int(std::int64_t value) { return std::to_string(value); }

std::string render_timeline(const simmpi::Timeline& timeline) {
  TextTable table(
      {"Phase", "Seconds", "Max channel (MB)", "Volume (MB)", "Cum %"});
  const double total = timeline.total_seconds();
  double cumulative = 0.0;
  for (const simmpi::PhaseRecord& record : timeline.records()) {
    cumulative += record.seconds;
    table.add_row({record.label, format_double(record.seconds, 4),
                   format_double(record.max_channel_bytes / 1e6, 1),
                   format_double(record.total_bytes / 1e6, 1),
                   total > 0.0 ? format_double(100.0 * cumulative / total, 1)
                               : "-"});
  }
  return table.render();
}

}  // namespace npac::core
