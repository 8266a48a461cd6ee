#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace npac::obs {

int trace_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : origin_(std::chrono::steady_clock::now()), capacity_(capacity) {}

std::int64_t TraceBuffer::to_ts_us(
    std::chrono::steady_clock::time_point when) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(when - origin_)
      .count();
}

void TraceBuffer::add(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceBuffer::add_span(std::string name, std::string category, int pid,
                           int tid, std::int64_t ts_us, std::int64_t dur_us) {
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.pid = pid;
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  add(std::move(event));
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void append_metadata(std::ostringstream& out, int pid, const char* name) {
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

std::string TraceBuffer::json() const {
  const std::vector<TraceEvent> events = snapshot();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  append_metadata(out, kWallPid, "wall clock");
  out << ",";
  append_metadata(out, kSimPid, "simulated schedule");
  for (const TraceEvent& event : events) {
    out << ",{\"name\":";
    append_json_string(out, event.name);
    out << ",\"cat\":";
    append_json_string(out, event.category);
    out << ",\"ph\":\"X\",\"ts\":" << event.ts_us
        << ",\"dur\":" << event.dur_us << ",\"pid\":" << event.pid
        << ",\"tid\":" << event.tid << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool tracing_enabled() {
  const Registry* registry = Registry::current();
  return registry != nullptr && registry->tracing();
}

ScopedTimer::ScopedTimer(std::string name, std::string category)
    : buffer_(nullptr) {
  Registry* registry = Registry::current();
  if (registry == nullptr || !registry->tracing()) return;
  buffer_ = &registry->trace();
  name_ = std::move(name);
  category_ = std::move(category);
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (buffer_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  // Both ends are truncated to the same microsecond grid, so a span that
  // encloses another in time also encloses it in the recorded numbers.
  event.ts_us = buffer_->to_ts_us(start_);
  event.dur_us = buffer_->to_ts_us(end) - event.ts_us;
  event.pid = kWallPid;
  event.tid = trace_thread_id();
  buffer_->add(std::move(event));
}

}  // namespace npac::obs
