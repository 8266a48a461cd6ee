#include "core/swf.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace npac::core {

namespace {

/// SplitMix64 finalizer: the per-id hash behind the contention label.
/// Stateless, so the label of a job depends only on its id — any subset
/// or reordering of the trace reproduces it.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_hash(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

/// True when `x` converts to int64 without undefined behaviour, i.e. it
/// lies in [-2^63, 2^63). NaN fails both comparisons.
bool fits_int64(double x) { return x >= -0x1p63 && x < 0x1p63; }

}  // namespace

std::vector<Job> parse_swf(const std::string& text,
                           const SwfOptions& options) {
  if (options.procs_per_unit < 1) {
    throw std::invalid_argument("parse_swf: procs_per_unit must be >= 1");
  }
  if (options.contention_fraction < 0.0 ||
      options.contention_fraction > 1.0) {
    throw std::invalid_argument(
        "parse_swf: contention_fraction must be in [0, 1]");
  }
  std::vector<std::int64_t> pool = options.size_pool;
  std::sort(pool.begin(), pool.end());

  std::vector<Job> jobs;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // SWF files from the archive are frequently CRLF-encoded.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // `;` opens the comment/header block; blank lines separate sections.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == ';') continue;
    if (options.max_jobs >= 0 &&
        static_cast<std::int64_t>(jobs.size()) >= options.max_jobs) {
      break;
    }

    // Fields 0..8 cover everything the simulation uses; real archive rows
    // have all 18 but partial exports exist, so only require those nine.
    std::istringstream row(line);
    double fields[9];
    for (int i = 0; i < 9; ++i) {
      if (!(row >> fields[i])) {
        throw std::invalid_argument(
            "parse_swf: line " + std::to_string(line_number) +
            " has fewer than 9 numeric fields or a malformed number");
      }
    }

    const double runtime = fields[3] > 0.0 ? fields[3] : fields[8];
    const double procs = fields[7] > 0.0 ? fields[7] : fields[4];
    if (runtime <= 0.0 || procs <= 0.0) continue;  // cancelled/failed rows
    // Casting a double outside the int64 range is undefined behaviour, so
    // the two fields cast to integers are range-checked first.
    if (!fits_int64(fields[0])) {
      throw std::invalid_argument(
          "parse_swf: line " + std::to_string(line_number) +
          " has a job number outside the 64-bit integer range");
    }
    if (!fits_int64(procs)) {
      throw std::invalid_argument(
          "parse_swf: line " + std::to_string(line_number) +
          " has a processor count outside the 64-bit integer range");
    }

    Job job;
    job.id = static_cast<std::int64_t>(fields[0]);
    job.arrival_seconds = fields[1];
    job.base_seconds = runtime;
    // Ceiling division without the `p + ppu - 1` form, which overflows
    // for processor counts near the int64 limit.
    const std::int64_t whole_procs = static_cast<std::int64_t>(procs);
    const std::int64_t units =
        whole_procs / options.procs_per_unit +
        (whole_procs % options.procs_per_unit != 0 ? 1 : 0);
    if (pool.empty()) {
      job.midplanes = units;
    } else {
      const auto fit = std::lower_bound(pool.begin(), pool.end(), units);
      if (fit == pool.end()) continue;  // larger than the machine offers
      job.midplanes = *fit;
    }
    job.contention_bound =
        unit_hash(static_cast<std::uint64_t>(job.id)) <
        options.contention_fraction;
    jobs.push_back(job);
  }

  // The SWF spec orders rows by submit time, but archive files are not
  // all clean; the scheduler requires non-decreasing arrivals, so sort
  // (stably — equal submit times keep file order).
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.arrival_seconds < b.arrival_seconds;
  });
  return jobs;
}

}  // namespace npac::core
