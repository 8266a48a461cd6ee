#include "sweep/sweep.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace npac::sweep {

// --------------------------------------------------------------------------
// Scheduler sweep
// --------------------------------------------------------------------------

std::vector<TopologySchedulerRow> run_topology_scheduler_sweep(
    const TopologySchedulerGrid& grid, const SweepOptions& options,
    SweepContext& context) {
  if (grid.machines.empty() || grid.policies.empty() ||
      grid.contention_fractions.empty()) {
    throw std::invalid_argument(
        "run_topology_scheduler_sweep: machines, policies and "
        "contention_fractions must be non-empty");
  }
  if (grid.replications < 1) {
    throw std::invalid_argument(
        "run_topology_scheduler_sweep: replications must be >= 1");
  }
  for (const TopologyMachineCase& machine : grid.machines) {
    if (machine.size_pool.empty()) {
      throw std::invalid_argument(
          "run_topology_scheduler_sweep: machine " + machine.label +
          " has an empty size pool");
    }
  }
  const std::int64_t reps = grid.replications;
  const std::int64_t num_fractions =
      static_cast<std::int64_t>(grid.contention_fractions.size());
  const std::int64_t num_policies =
      static_cast<std::int64_t>(grid.policies.size());
  const std::int64_t tasks = static_cast<std::int64_t>(grid.machines.size()) *
                             num_policies * num_fractions * reps;

  ThreadPool pool(options.threads);
  return parallel_map<TopologySchedulerRow>(
      pool, tasks, [&](std::int64_t index) {
        const std::int64_t rep = index % reps;
        const std::int64_t fraction_index = (index / reps) % num_fractions;
        const std::int64_t policy_index =
            (index / (reps * num_fractions)) % num_policies;
        const std::int64_t machine_index =
            index / (reps * num_fractions * num_policies);
        const TopologyMachineCase& machine =
            grid.machines[static_cast<std::size_t>(machine_index)];

        TopologySchedulerRow row;
        row.machine = machine.label;
        row.policy = grid.policies[static_cast<std::size_t>(policy_index)];
        row.contention_fraction = grid.contention_fractions
            [static_cast<std::size_t>(fraction_index)];
        row.replication = static_cast<int>(rep);
        // The trace seed excludes the machine and policy axes on purpose:
        // every (machine, policy) pair replays the identical trace of its
        // (fraction, replication) cell, so those columns are paired.
        row.trace_seed =
            task_seed(options.base_seed, fraction_index * reps + rep);

        TraceConfig config = grid.trace;
        config.contention_fraction = row.contention_fraction;
        const auto allocator = core::make_allocator(machine.spec, context);
        const auto result = core::simulate_schedule(
            *allocator, row.policy,
            generate_trace(machine.size_pool, config, row.trace_seed));
        row.makespan_seconds = result.makespan_seconds;
        row.mean_slowdown = result.mean_slowdown;
        row.mean_wait_seconds = result.mean_wait_seconds;
        return row;
      });
}

core::TextTable topology_scheduler_summary(
    const std::vector<TopologySchedulerRow>& rows) {
  struct Cell {
    double makespan = 0.0;
    double slowdown = 0.0;
    double wait = 0.0;
    int count = 0;
    std::string machine;
    std::string policy;
    double fraction = 0.0;
  };
  std::vector<Cell> cells;
  std::map<std::tuple<std::string, std::string, double>, std::size_t> index;
  for (const TopologySchedulerRow& row : rows) {
    const auto key = std::make_tuple(row.machine, core::to_string(row.policy),
                                     row.contention_fraction);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, cells.size()).first;
      cells.push_back(Cell{});
      cells.back().machine = std::get<0>(key);
      cells.back().policy = std::get<1>(key);
      cells.back().fraction = std::get<2>(key);
    }
    Cell& cell = cells[it->second];
    cell.makespan += row.makespan_seconds;
    cell.slowdown += row.mean_slowdown;
    cell.wait += row.mean_wait_seconds;
    ++cell.count;
  }
  core::TextTable table({"Machine", "Policy", "Contention", "Reps",
                         "Makespan (s)", "Mean slowdown", "Mean wait (s)"});
  for (const Cell& cell : cells) {
    const double n = static_cast<double>(cell.count);
    table.add_row({cell.machine, cell.policy,
                   core::format_double(cell.fraction, 2),
                   core::format_int(cell.count),
                   core::format_double(cell.makespan / n, 1),
                   "x" + core::format_double(cell.slowdown / n, 3),
                   core::format_double(cell.wait / n, 1)});
  }
  return table;
}

std::string topology_scheduler_csv(
    const std::vector<TopologySchedulerRow>& rows) {
  std::ostringstream out;
  out << "machine,policy,contention_fraction,replication,trace_seed,"
         "makespan_seconds,mean_slowdown,mean_wait_seconds\n";
  for (const TopologySchedulerRow& row : rows) {
    out << row.machine << "," << core::to_string(row.policy) << ","
        << format_exact(row.contention_fraction) << "," << row.replication
        << "," << row.trace_seed << "," << format_exact(row.makespan_seconds)
        << "," << format_exact(row.mean_slowdown) << ","
        << format_exact(row.mean_wait_seconds) << "\n";
  }
  return out.str();
}

TopologySchedulerGrid ext_sched_topologies_grid(bool fast) {
  TopologySchedulerGrid grid;
  // Equal allocation-unit count (32) per family, one shared size pool, so
  // every machine replays the identical traces: a torus of 32 midplanes, a
  // dragonfly of 8 groups x 4 chassis, and a k=8 fat-tree of 8 pods x 4
  // edge subtrees.
  topo::DragonflyConfig dragonfly;  // Aries-style 1x/3x/4x capacities
  dragonfly.a = 4;
  dragonfly.h = 4;
  dragonfly.groups = 8;
  dragonfly.global_ports = 1;
  const std::vector<std::int64_t> pool = {2, 4, 8};
  grid.machines = {
      {"torus", topo::TopologySpec::torus({4, 2, 2, 2}), pool},
      {"dragonfly", topo::TopologySpec::dragonfly(dragonfly), pool},
      {"fattree", topo::TopologySpec::fat_tree(8), pool},
  };
  grid.policies = {core::SchedulerPolicy::kFirstFit,
                   core::SchedulerPolicy::kBestBisection,
                   core::SchedulerPolicy::kWaitForBest};
  grid.contention_fractions = {1.0 / 3.0, 2.0 / 3.0, 1.0};
  grid.trace.num_jobs = fast ? 12 : 32;
  grid.replications = fast ? 2 : 4;
  return grid;
}

}  // namespace npac::sweep
