#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr int kLayers = static_cast<int>(Layer::kCount);

std::atomic<std::uint64_t> next_tracer_id{1};

/// A fresh tracing registry. Registries live until the process exits: a
/// sweep::ThreadPool worker that goes idle keeps the registry installed at
/// that moment and charges its idle time to it when it wakes, which may be
/// after the window that installed it has closed.
npac::obs::Registry* new_registry() {
  static std::mutex mutex;
  static std::vector<std::unique_ptr<npac::obs::Registry>> registries;
  npac::obs::Registry::Options options;
  options.tracing = true;
  std::lock_guard<std::mutex> lock(mutex);
  registries.push_back(std::make_unique<npac::obs::Registry>(options));
  return registries.back().get();
}

bool is_route(Layer layer) {
  return layer == Layer::kTorusRoute || layer == Layer::kGraphRoute;
}

std::int64_t since(Tracer::Clock::time_point origin,
                   Tracer::Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "bench.op";
    case Layer::kSetup: return "bench.setup";
    case Layer::kSched: return "core.sched";
    case Layer::kAllocQualities: return "core.alloc.qualities";
    case Layer::kAllocTryPlace: return "core.alloc.try_place";
    case Layer::kAllocRelease: return "core.alloc.release";
    case Layer::kOracleGeometries: return "core.oracle.geometries";
    case Layer::kOracleBisection: return "core.oracle.bisection";
    case Layer::kTraceNext: return "sweep.trace.next";
    case Layer::kSink: return "bench.sink";
    case Layer::kSimmpi: return "simmpi";
    case Layer::kTorusRoute: return "simnet.torus.route_all";
    case Layer::kGraphRoute: return "simnet.graph.route_all";
    case Layer::kPrice: return "simnet.price";
    case Layer::kPingpong: return "simnet.pingpong";
    case Layer::kGeometry: return "bgq.geometry";
    case Layer::kBisection: return "core.bisection";
    case Layer::kPairing: return "core.pairing";
    case Layer::kCount: break;
  }
  return "unknown";
}

/// One thread's recording state. Only its owning thread touches it while
/// the tracer is active; start()/stop() touch it while the thread is idle.
struct ThreadBuffer {
  struct Frame {
    std::int64_t span = -1;  // index into spans, -1 = hot frame
    Layer layer = Layer::kOp;
    Tracer::Clock::time_point start;
    std::int64_t child_ns = 0;
  };

  int thread = 0;
  int obs_thread = 0;
  Tracer::Clock::time_point origin;
  std::vector<Frame> stack;
  std::vector<Report::SpanRecord> spans;
  Report::LayerTotals layers[kLayers];
  std::map<const char*, double> sums;
  std::map<const char*, double> maxes;

  void clear(Tracer::Clock::time_point new_origin) {
    origin = new_origin;
    stack.clear();
    spans.clear();
    for (auto& totals : layers) totals = {};
    sums.clear();
    maxes.clear();
  }

  /// Closes the top frame; returns its duration and self time.
  std::pair<std::int64_t, std::int64_t> pop(Tracer::Clock::time_point end) {
    const Frame frame = stack.back();
    stack.pop_back();
    const std::int64_t dur = since(frame.start, end);
    const std::int64_t self = dur - frame.child_ns;
    Report::LayerTotals& totals = layers[static_cast<int>(frame.layer)];
    ++totals.calls;
    totals.total_ns += dur;
    totals.self_ns += self;
    if (!stack.empty()) stack.back().child_ns += dur;
    return {dur, self};
  }
};

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer() = default;

ThreadBuffer* Tracer::buffer() {
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_id == id_) return cached;
  std::lock_guard<std::mutex> lock(mutex_);
  auto owned = std::make_unique<ThreadBuffer>();
  owned->thread = static_cast<int>(buffers_.size());
  owned->obs_thread = npac::obs::trace_thread_id();
  owned->clear(origin_);
  cached = owned.get();
  cached_id = id_;
  buffers_.push_back(std::move(owned));
  return cached;
}

void Tracer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (installed_) throw std::logic_error("Tracer::start: already recording");
  registry_ = new_registry();
  installed_ = std::make_unique<npac::obs::ScopedRegistry>(*registry_);
  origin_ = Clock::now();
  for (auto& buffer : buffers_) buffer->clear(origin_);
  active_ = true;
}

Report Tracer::stop() {
  active_ = false;
  installed_.reset();
  Report report;
  std::map<std::string, double> maxes;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    if (!buffer->stack.empty()) {
      throw std::logic_error("Tracer::stop: a span is still open");
    }
    report.obs_threads.push_back(buffer->obs_thread);
    const auto offset = static_cast<std::int64_t>(report.spans.size());
    for (Report::SpanRecord span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      if (span.root >= 0) span.root += offset;
      span.thread = buffer->thread;
      report.spans.push_back(std::move(span));
    }
    for (int i = 0; i < kLayers; ++i) {
      report.layers[i].calls += buffer->layers[i].calls;
      report.layers[i].total_ns += buffer->layers[i].total_ns;
      report.layers[i].self_ns += buffer->layers[i].self_ns;
    }
    for (const auto& [name, value] : buffer->sums) report.counters[name] += value;
    for (const auto& [name, value] : buffer->maxes) {
      double& peak = maxes[name];
      peak = std::max(peak, value);
    }
  }
  for (const auto& [name, value] : maxes) report.counters[name] = value;
  if (registry_ != nullptr) {
    const npac::obs::TraceBuffer& trace = registry_->trace();
    if (trace.dropped() > 0) {
      throw std::runtime_error("Tracer::stop: the obs trace buffer overflowed");
    }
    report.fold_library_routes(trace.snapshot(), trace.to_ts_us(origin_));
    for (const std::string& name : registry_->counter_names()) {
      report.counters["obs." + name] =
          static_cast<double>(registry_->counter_value(name));
    }
  }
  return report;
}

void Tracer::add(const char* counter, double n) {
  if (!active()) return;
  buffer()->sums[counter] += n;
}

void Tracer::max(const char* counter, double v) {
  if (!active()) return;
  double& peak = buffer()->maxes[counter];
  peak = std::max(peak, v);
}

Tracer::Span::Span(Tracer* tracer, Layer layer, std::string tag) {
  if (tracer == nullptr || !tracer->active()) return;
  buffer_ = tracer->buffer();
  ThreadBuffer& b = *buffer_;
  const auto now = Clock::now();
  std::int64_t parent = -1;
  for (auto it = b.stack.rbegin(); it != b.stack.rend(); ++it) {
    if (it->span >= 0) {
      parent = it->span;
      break;
    }
  }
  const auto index = static_cast<std::int64_t>(b.spans.size());
  index_ = index;
  Report::SpanRecord record;
  record.layer = layer;
  record.start_ns = since(b.origin, now);
  record.parent = parent;
  if (!tag.empty()) {
    record.root = index;
    record.tag = std::move(tag);
  } else if (parent >= 0) {
    record.root = b.spans[static_cast<std::size_t>(parent)].root;
  }
  b.spans.push_back(std::move(record));
  b.stack.push_back({index, layer, now, 0});
}

Tracer::Span::~Span() {
  if (buffer_ == nullptr) return;
  const auto now = Clock::now();
  const std::int64_t index = buffer_->stack.back().span;
  const auto [dur, self] = buffer_->pop(now);
  Report::SpanRecord& record = buffer_->spans[static_cast<std::size_t>(index)];
  record.end_ns = record.start_ns + dur;
  record.self_ns = self;
}

void Tracer::Span::set_flows(std::int64_t flows) {
  if (buffer_ != nullptr) buffer_->spans[static_cast<std::size_t>(index_)].flows = flows;
}

Tracer::Hot::Hot(Tracer* tracer, Layer layer) {
  if (tracer == nullptr || !tracer->active()) return;
  buffer_ = tracer->buffer();
  buffer_->stack.push_back({-1, layer, Clock::now(), 0});
}

Tracer::Hot::~Hot() {
  if (buffer_ == nullptr) return;
  buffer_->pop(Clock::now());
}

double Report::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Report::seconds_under(Layer layer, const std::string& tag_prefix) const {
  std::int64_t ns = 0;
  for (const SpanRecord& span : spans) {
    if (span.layer != layer || span.root < 0) continue;
    const std::string& tag = spans[static_cast<std::size_t>(span.root)].tag;
    if (tag.compare(0, tag_prefix.size(), tag_prefix) == 0) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double Report::root_seconds(Layer root_layer) const {
  std::int64_t ns = 0;
  for (const SpanRecord& span : spans) {
    if (span.layer == root_layer && span.parent < 0) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::pair<double, double> Report::routes_under(Layer parent_layer) const {
  double calls = 0.0;
  double flows = 0.0;
  for (const SpanRecord& span : spans) {
    if (is_route(span.layer) && span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].layer == parent_layer) {
      calls += 1.0;
      flows += static_cast<double>(span.flows);
    }
  }
  return {calls, flows};
}

void Report::fold_library_routes(const std::vector<npac::obs::TraceEvent>& events,
                                 std::int64_t origin_us) {
  // obs times are whole microseconds: a span encloses an event when it
  // holds the event's midpoint to within 1 us.
  constexpr std::int64_t kSlackNs = 1000;
  const std::size_t recorded = spans.size();
  for (const npac::obs::TraceEvent& event : events) {
    const bool torus = event.name.rfind("torus.route_all", 0) == 0;
    const bool graph = event.name.rfind("graph.route_all", 0) == 0 ||
                       event.name.rfind("graph.route_chunk", 0) == 0;
    if (!torus && !graph) continue;
    SpanRecord record;
    record.layer = torus ? Layer::kTorusRoute : Layer::kGraphRoute;
    record.start_ns = (event.ts_us - origin_us) * 1000;
    record.end_ns = record.start_ns + event.dur_us * 1000;
    const auto flows_at = event.name.find(" flows=");
    if (flows_at != std::string::npos) {
      record.flows = std::stoll(event.name.substr(flows_at + 7));
    }
    const std::int64_t mid = (record.start_ns + record.end_ns) / 2;
    std::int64_t parent = -1;
    for (std::size_t i = 0; i < recorded; ++i) {
      const SpanRecord& s = spans[i];
      if (obs_threads[static_cast<std::size_t>(s.thread)] != event.tid) continue;
      if (s.start_ns - kSlackNs <= mid && mid <= s.end_ns + kSlackNs &&
          (parent < 0 || s.start_ns >= spans[static_cast<std::size_t>(parent)].start_ns)) {
        parent = static_cast<std::int64_t>(i);
      }
    }
    // Events of threads that recorded nothing (an OpenMP team's workers
    // routing graph chunks) belong to a call on another thread: skipped.
    record.thread = -1;
    for (std::size_t t = 0; t < obs_threads.size(); ++t) {
      if (obs_threads[t] == event.tid) record.thread = static_cast<int>(t);
    }
    if (record.thread < 0) continue;
    const std::int64_t dur = record.end_ns - record.start_ns;
    if (parent >= 0) {
      SpanRecord& up = spans[static_cast<std::size_t>(parent)];
      if (is_route(up.layer)) continue;  // a decorated call's own span
      up.self_ns -= dur;
      layers[static_cast<int>(up.layer)].self_ns -= dur;
      record.parent = parent;
      record.root = up.root;
    }
    record.self_ns = dur;
    LayerTotals& totals = layers[static_cast<int>(record.layer)];
    ++totals.calls;
    totals.total_ns += dur;
    totals.self_ns += dur;
    spans.push_back(std::move(record));
  }
}

std::string Report::spans_jsonl() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << layer_name(span.layer)
        << "\",\"tag\":\"" << span.tag << "\",\"thread\":" << span.thread
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"self_ns\":" << span.self_ns << ",\"parent\":" << span.parent
        << ",\"root\":" << span.root << ",\"flows\":" << span.flows << "}\n";
  }
  return out.str();
}

}  // namespace perfbench
