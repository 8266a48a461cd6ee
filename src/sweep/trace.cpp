#include "sweep/trace.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "bgq/policy.hpp"

namespace npac::sweep {

std::uint64_t next_u64(std::uint64_t& state) {
  // xorshift64* (Vigna). State 0 is a fixed point of xorshift, so remap it.
  if (state == 0) state = 0x9e3779b97f4a7c15ULL;
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

double next_unit(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

std::vector<std::int64_t> default_trace_sizes(const bgq::Machine& machine) {
  std::vector<std::int64_t> sizes;
  for (const bgq::PolicyEntry& entry : bgq::mira_scheduler_partitions()) {
    if (bgq::best_geometry(machine, entry.midplanes)) {
      sizes.push_back(entry.midplanes);
    }
  }
  return sizes;
}

std::vector<core::Job> generate_trace(const bgq::Machine& machine,
                                      const TraceConfig& config,
                                      std::uint64_t seed) {
  // Config validation lives in SyntheticJobSource, which this drains.
  std::vector<std::int64_t> sizes;
  if (config.sizes.empty()) {
    sizes = default_trace_sizes(machine);  // already feasibility-filtered
  } else {
    sizes = config.sizes;
    for (const std::int64_t size : sizes) {
      if (!bgq::best_geometry(machine, size)) {
        throw std::invalid_argument("generate_trace: size " +
                                    std::to_string(size) +
                                    " is not allocatable on " + machine.name);
      }
    }
  }
  TraceConfig pooled = config;
  pooled.sizes = std::move(sizes);
  return generate_trace(pooled.sizes, pooled, seed);
}

std::vector<core::Job> generate_trace(
    const std::vector<std::int64_t>& size_pool, const TraceConfig& config,
    std::uint64_t seed) {
  SyntheticJobSource source(size_pool, config, seed);
  std::vector<core::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  while (const auto job = source.next()) jobs.push_back(*job);
  return jobs;
}

SyntheticJobSource::SyntheticJobSource(std::vector<std::int64_t> size_pool,
                                       TraceConfig config, std::uint64_t seed)
    : sizes_(std::move(size_pool)), config_(std::move(config)), state_(seed) {
  if (config_.num_jobs < 0) {
    throw std::invalid_argument("trace: num_jobs must be >= 0");
  }
  if (config_.contention_fraction < 0.0 || config_.contention_fraction > 1.0) {
    throw std::invalid_argument("trace: contention_fraction must be in [0, 1]");
  }
  if (config_.mean_interarrival_seconds < 0.0) {
    throw std::invalid_argument(
        "trace: mean_interarrival_seconds must be >= 0");
  }
  if (config_.min_base_seconds <= 0.0 ||
      config_.max_base_seconds < config_.min_base_seconds) {
    throw std::invalid_argument(
        "trace: need 0 < min_base_seconds <= max_base_seconds");
  }
  if (sizes_.empty()) {
    throw std::invalid_argument("trace: no allocatable job sizes");
  }
}

std::optional<core::Job> SyntheticJobSource::next() {
  if (produced_ >= config_.num_jobs) return std::nullopt;
  // Draw order is part of the format: size, base, contention, gap.
  core::Job job;
  job.id = produced_;
  job.midplanes = sizes_[static_cast<std::size_t>(
      next_u64(state_) % static_cast<std::uint64_t>(sizes_.size()))];
  job.base_seconds =
      config_.min_base_seconds +
      next_unit(state_) * (config_.max_base_seconds - config_.min_base_seconds);
  job.contention_bound = next_unit(state_) < config_.contention_fraction;
  arrival_ += -config_.mean_interarrival_seconds *
              std::log(1.0 - next_unit(state_));
  job.arrival_seconds = arrival_;
  ++produced_;
  return job;
}

namespace {

constexpr const char* kTraceHeader =
    "id,midplanes,base_seconds,contention_bound,arrival_seconds";

}  // namespace

std::string format_exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format_trace(const std::vector<core::Job>& jobs) {
  std::ostringstream out;
  out << kTraceHeader << "\n";
  for (const core::Job& job : jobs) {
    out << job.id << "," << job.midplanes << ","
        << format_exact(job.base_seconds) << ","
        << (job.contention_bound ? 1 : 0) << ","
        << format_exact(job.arrival_seconds) << "\n";
  }
  return out.str();
}

namespace {

/// std::getline keeps the '\r' of a "\r\n" line ending; strip it so traces
/// written (or converted) with CRLF conventions parse identically to
/// LF-only ones.
void strip_trailing_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

std::vector<core::Job> parse_trace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("parse_trace: missing trace header");
  }
  strip_trailing_cr(line);
  if (line != kTraceHeader) {
    throw std::invalid_argument("parse_trace: missing trace header");
  }
  std::vector<core::Job> jobs;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    strip_trailing_cr(line);
    if (line.empty()) continue;
    std::array<std::string, 5> fields;
    std::size_t field = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (field >= fields.size()) {
          throw std::invalid_argument("parse_trace: too many fields on line " +
                                      std::to_string(line_number));
        }
        fields[field++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (field != fields.size()) {
      throw std::invalid_argument("parse_trace: expected 5 fields on line " +
                                  std::to_string(line_number));
    }
    // stoll/stod stop at the first invalid character; require each field
    // to be consumed in full so trailing garbage is rejected, not ignored.
    const auto malformed = [&]() -> std::invalid_argument {
      return std::invalid_argument("parse_trace: malformed number on line " +
                                   std::to_string(line_number));
    };
    const auto parse_int = [&](const std::string& field) -> std::int64_t {
      try {
        std::size_t pos = 0;
        const std::int64_t value = std::stoll(field, &pos);
        if (pos == field.size()) return value;
      } catch (const std::exception&) {
      }
      throw malformed();
    };
    // stod accepts "nan" and "inf"; a non-finite time would poison the
    // scheduler's event ordering, so reject it here with the line.
    const auto parse_double = [&](const std::string& field) -> double {
      double value = 0.0;
      std::size_t pos = 0;
      try {
        value = std::stod(field, &pos);
      } catch (const std::exception&) {
        throw malformed();
      }
      if (pos != field.size()) throw malformed();
      if (!std::isfinite(value)) {
        throw std::invalid_argument("parse_trace: non-finite number on line " +
                                    std::to_string(line_number));
      }
      return value;
    };
    core::Job job;
    job.id = parse_int(fields[0]);
    job.midplanes = parse_int(fields[1]);
    job.base_seconds = parse_double(fields[2]);
    job.contention_bound = parse_int(fields[3]) != 0;
    job.arrival_seconds = parse_double(fields[4]);
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace npac::sweep
