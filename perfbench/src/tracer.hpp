// In-memory span tracer for the benchmark's forwarding decorators.
//
// The decorators in decorators.hpp wrap the library's public seams and time
// every call from outside, so nothing under src/ is instrumented. Two kinds
// of record exist:
//  * spans (Tracer::Span) — name, start, end, parent and root operation,
//    kept per thread in memory and written out when the run ends. Used at
//    layer boundaries that are crossed a few thousand times per pass;
//  * hot aggregates (Tracer::Hot) — count, total and self time per layer,
//    for boundaries crossed millions of times (try_place, JobSource::next).
// Both push a frame on a per-thread stack, so a layer's self time is its
// duration minus the time of the spans and hot calls nested inside it.
// Counters (Tracer::add / Tracer::max) record deterministic work counts.
//
// Some calls happen inside library entry points the benchmark cannot
// decorate (core::caps_comm_seconds and run_pingpong build their own
// networks). For those, start() installs an npac::obs registry with
// tracing on, and stop() folds the library's own route_all trace events
// into the report as spans under the span that encloses them on the same
// thread, and copies its counters as "obs.<name>".
//
// A Tracer records only between start() and stop(); stop() merges every
// thread's buffers into one Report. Threads that recorded must be idle
// when start() or stop() is called (the pool is quiescent between runs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace npac::obs {
class Registry;
class ScopedRegistry;
}  // namespace npac::obs

namespace perfbench {

/// Layers the decorators record into. Span and hot layers share one id
/// space so a report can look either up by name.
enum class Layer : int {
  kOp,                  // bench.op: one stream, pricing call or row (root)
  kSetup,               // bench.setup: one workload set-up (root)
  kSched,               // core.sched: StreamingScheduler::run
  kAllocQualities,      // core.alloc.qualities: candidate_qualities
  kAllocTryPlace,       // core.alloc.try_place (hot)
  kAllocRelease,        // core.alloc.release (hot)
  kOracleGeometries,    // core.oracle.geometries
  kOracleBisection,     // core.oracle.bisection
  kTraceNext,           // sweep.trace.next: JobSource::next (hot)
  kSink,                // bench.sink: the benchmark's own sink (hot)
  kSimmpi,              // simmpi: one collective/kernel simulation
  kTorusRoute,          // simnet.torus.route_all
  kGraphRoute,          // simnet.graph.route_all
  kPrice,               // simnet.price: channel drain time (hot)
  kPingpong,            // simnet.pingpong: run_pingpong
  kGeometry,            // bgq.geometry: engine geometry queries
  kBisection,           // core.bisection: engine topology_bisection
  kPairing,             // core.pairing: engine topology_pairing_seconds
  kCount,
};

const char* layer_name(Layer layer);

/// Everything one start()/stop() window recorded, merged over threads.
struct Report {
  struct SpanRecord {
    Layer layer = Layer::kOp;
    std::string tag;          ///< operation key (root spans only)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t parent = -1;  ///< index into spans, -1 = root
    std::int64_t root = -1;    ///< index of the enclosing root span
    int thread = 0;
    std::int64_t flows = 0;    ///< route spans: flows routed
  };
  struct LayerTotals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  std::vector<SpanRecord> spans;
  LayerTotals layers[static_cast<int>(Layer::kCount)];
  std::map<std::string, double> counters;
  /// npac::obs::trace_thread_id() of each recording thread (by `thread`).
  std::vector<int> obs_threads;

  const LayerTotals& at(Layer layer) const {
    return layers[static_cast<int>(layer)];
  }
  double counter(const std::string& name) const;
  /// Total duration of the spans of `layer` nested under root spans whose
  /// tag starts with `tag_prefix`.
  double seconds_under(Layer layer, const std::string& tag_prefix) const;
  /// Sum of root-span durations (the traced operations' wall time).
  double root_seconds(Layer root_layer) const;
  /// Route spans whose parent is a span of `parent_layer`: {calls, flows}.
  std::pair<double, double> routes_under(Layer parent_layer) const;

  /// Adds the library's torus and graph routing trace events as spans of
  /// kTorusRoute / kGraphRoute under the innermost span around them, whose
  /// self time they reduce. Events inside a decorated route span are that
  /// call itself and are skipped. `origin_us` is the report's time origin
  /// on the events' clock.
  void fold_library_routes(const std::vector<npac::obs::TraceEvent>& events,
                           std::int64_t origin_us);

  /// Spans as JSON lines (one object per span), for offline analysis.
  std::string spans_jsonl() const;
};

struct ThreadBuffer;  // one thread's recording state (tracer.cpp)

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool active() const { return active_.load(std::memory_order_relaxed); }
  /// Clears every buffer, installs a fresh tracing obs registry and starts
  /// recording.
  void start();
  /// Stops recording, uninstalls the registry and merges the thread
  /// buffers and the registry's route events and counters.
  Report stop();

  /// Adds `n` to a named work counter.
  void add(const char* counter, double n);
  /// Raises a named counter to at least `v` (peak-style counters).
  void max(const char* counter, double v);

  /// RAII span; a null or inactive tracer makes it a no-op. A span opened
  /// with a tag becomes the root its descendants are attributed to.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer, std::string tag = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Records the number of flows a route span covers.
    void set_flows(std::int64_t flows);

   private:
    ThreadBuffer* buffer_ = nullptr;
    std::int64_t index_ = -1;
  };

  /// RAII hot-call aggregate; same no-op rule as Span.
  class Hot {
   public:
    Hot(Tracer* tracer, Layer layer);
    ~Hot();
    Hot(const Hot&) = delete;
    Hot& operator=(const Hot&) = delete;

   private:
    ThreadBuffer* buffer_ = nullptr;
  };

 private:
  friend class Span;
  friend class Hot;
  /// The calling thread's buffer, registered on first use.
  ThreadBuffer* buffer();

  const std::uint64_t id_;
  std::atomic<bool> active_{false};
  npac::obs::Registry* registry_ = nullptr;  // current window's registry
  std::unique_ptr<npac::obs::ScopedRegistry> installed_;
  Clock::time_point origin_;
  std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace perfbench
