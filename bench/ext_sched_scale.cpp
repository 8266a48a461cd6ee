// ext_sched_scale: the streaming scheduler at scale — trace lengths
// 10^3 -> 10^6 jobs x policy x allocator family, every trace streamed from
// sweep::SyntheticJobSource so no job vector is ever materialized. The
// timed stdout column pins events/second; the CSV pins the deterministic
// side: event counts, peak resident jobs (the memory-bound claim — it
// tracks queue depth + running jobs, never trace length), backfill hits,
// rescan-elimination skips, and the FNV-1a schedule digest.
//
// Utilization is tuned per family (mean interarrival = mean service
// demand / (0.9 * machine units)) so every machine runs near saturation:
// the head blocks on most arrivals — the worst case for a rescanning
// scheduler, the designed case for the free-layout index — while the
// queue, and with it the resident set, stays bounded.
//
// The full grid runs every family x policy at 10^3 and 10^4 jobs, the
// torus family at 10^5, and best-bisection + easy-backfill on the torus at
// 10^6 (the acceptance run); --fast trims to 10^3/10^4. --filter works on
// the "family/policy/jobs" row labels.
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/scheduler_stream.hpp"
#include "sweep/runner.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"

namespace {

using namespace npac;

// FNV-1a over the raw bit patterns of every emitted record, in emission
// (placement) order: equal digests certify identical schedules without
// materializing either.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void digest_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void digest_double(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  digest_u64(hash, bits);
}

void digest_record(std::uint64_t& hash, const core::ScheduledJob& record) {
  digest_u64(hash, static_cast<std::uint64_t>(record.job.id));
  digest_u64(hash, static_cast<std::uint64_t>(record.job.midplanes));
  digest_double(hash, record.start_seconds);
  digest_double(hash, record.finish_seconds);
  digest_double(hash, record.slowdown);
  for (const char c : record.partition.label) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
}

/// One family's machine. `make` builds a fresh allocator that scores its
/// layouts through `oracle`, so rows sharing the runner's SweepContext
/// score each machine's layouts once.
struct ScaleMachine {
  std::string name;
  std::function<std::unique_ptr<core::PartitionAllocator>(
      const core::PartitionOracle& oracle)>
      make;
};

std::vector<ScaleMachine> scale_machines() {
  topo::DragonflyConfig dragonfly;
  dragonfly.a = 4;
  dragonfly.h = 4;
  dragonfly.groups = 8;
  dragonfly.global_ports = 1;
  return {
      {"mira",
       [](const core::PartitionOracle& oracle) {
         return core::make_allocator(bgq::mira(), oracle);
       }},
      {"dragonfly",
       [dragonfly](const core::PartitionOracle& oracle) {
         return core::make_allocator(topo::TopologySpec::dragonfly(dragonfly),
                                     oracle);
       }},
      {"fattree",
       [](const core::PartitionOracle& oracle) {
         return core::make_allocator(topo::TopologySpec::fat_tree(8), oracle);
       }},
  };
}

/// Interarrival that holds nominal utilization near 0.5 for this
/// machine's size pool: mean service demand (units x seconds) over the
/// deliverable unit-rate. The headroom absorbs the contention-slowdown
/// inflation (up to ~1.33x under first-fit) and shape fragmentation, so
/// the queue — and with it the resident set — stays flat in trace length
/// for every policy while the head still blocks on most arrivals.
sweep::TraceConfig scale_config(const core::PartitionAllocator& allocator,
                                const std::vector<std::int64_t>& sizes,
                                int jobs) {
  sweep::TraceConfig config;
  config.num_jobs = jobs;
  const double mean_size =
      static_cast<double>(
          std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0})) /
      static_cast<double>(sizes.size());
  const double mean_base =
      0.5 * (config.min_base_seconds + config.max_base_seconds);
  config.mean_interarrival_seconds =
      mean_size * mean_base /
      (0.5 * static_cast<double>(allocator.total_units()));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  return sweep::Runner::main(
      "ext_sched_scale — streaming scheduler, 10^3..10^6-job traces", argc,
      argv, [](sweep::Runner& runner) {
        const std::uint64_t seed = runner.config().seed;
        const auto machines = scale_machines();
        const std::vector<core::SchedulerPolicy> policies = {
            core::SchedulerPolicy::kFirstFit,
            core::SchedulerPolicy::kBestBisection,
            core::SchedulerPolicy::kWaitForBest,
            core::SchedulerPolicy::kEasyBackfill};

        struct Case {
          std::size_t machine;
          core::SchedulerPolicy policy;
          int jobs;
        };
        std::vector<Case> cases;
        for (std::size_t m = 0; m < machines.size(); ++m) {
          for (const core::SchedulerPolicy policy : policies) {
            for (const int jobs : {1000, 10000}) {
              cases.push_back({m, policy, jobs});
            }
          }
        }
        if (!runner.fast()) {
          for (const core::SchedulerPolicy policy : policies) {
            cases.push_back({0, policy, 100000});
          }
          // The acceptance runs: a million jobs streamed end to end, with
          // and without the backfilling reservation pass.
          cases.push_back({0, core::SchedulerPolicy::kBestBisection, 1000000});
          cases.push_back({0, core::SchedulerPolicy::kEasyBackfill, 1000000});
        }

        sweep::BenchGrid grid;
        grid.columns = {"Family",       "Policy",       "Jobs",
                        "Events",       "PeakResident", "BackfillHits",
                        "RescanSkips",  "Digest"};
        grid.rows = static_cast<std::int64_t>(cases.size());
        grid.timed = true;
        grid.label = [&](std::int64_t i) {
          const Case& c = cases[static_cast<std::size_t>(i)];
          return machines[c.machine].name + "/" +
                 core::to_string(c.policy) + "/" + std::to_string(c.jobs);
        };
        grid.cells = [&](std::int64_t i, std::uint64_t) {
          const Case& c = cases[static_cast<std::size_t>(i)];
          const auto allocator = machines[c.machine].make(runner.context());
          const auto sizes = core::feasible_unit_sizes(*allocator);
          sweep::SyntheticJobSource source(
              sizes, scale_config(*allocator, sizes, c.jobs), seed);
          std::uint64_t digest = kFnvOffset;
          core::StreamingScheduler scheduler(*allocator, c.policy);
          const core::StreamStats stats = scheduler.run(
              source, [&digest](const core::ScheduledJob& record) {
                digest_record(digest, record);
              });
          return std::vector<std::string>{
              machines[c.machine].name,
              core::to_string(c.policy),
              core::format_int(c.jobs),
              core::format_int(static_cast<std::int64_t>(stats.events)),
              core::format_int(
                  static_cast<std::int64_t>(stats.peak_resident_jobs)),
              core::format_int(static_cast<std::int64_t>(stats.backfill_hits)),
              core::format_int(
                  static_cast<std::int64_t>(stats.rescans_skipped)),
              std::to_string(digest)};
        };
        runner.run(grid);
        runner.note(
            "Row time (s) over Events gives events/second per "
            "configuration. PeakResident counts queued + running + the one "
            "look-ahead job — the streaming core's whole per-trace state — "
            "and stays near the machine's concurrency level even on the "
            "million-job rows, which is the bounded-memory claim. Digests "
            "are pure in (family, policy, jobs, seed).");
      });
}
