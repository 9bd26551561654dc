#include "eval/scenario.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/check.hpp"
#include "latency/trace.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::eval {

namespace {

/// A process-unique temp-file prefix for partition-on-open slices. Grid runs
/// execute many scenarios concurrently in one process, so a static counter
/// (not the pid alone) keeps concurrent partitioned replays apart.
std::string partition_prefix() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  return (dir / ("nc_scenario_part_" + std::to_string(::getpid()) + "_" +
                 std::to_string(n)))
      .string();
}

/// Deletes the partition slice files when the replay is done (or throws).
struct SliceCleanup {
  std::vector<std::string> paths;
  ~SliceCleanup() {
    for (const std::string& p : paths) std::remove(p.c_str());
  }
};

/// The fields both engine modes take from a spec alike.
void fill_run_config(const ScenarioSpec& spec, sim::RunConfig& c) {
  c.client = spec.client;
  c.duration_s = spec.workload.duration_s;
  c.measure_start_s = resolved_measure_start_s(spec);
  c.collect_timeseries = spec.measurement.collect_timeseries;
  c.timeseries_bucket_s = spec.measurement.timeseries_bucket_s;
  c.collect_oracle = spec.measurement.collect_oracle;
  c.tracked_nodes = spec.measurement.tracked_nodes;
  c.track_interval_s = spec.measurement.track_interval_s;
  c.estimator = spec.estimator;
  c.rebalance_interval_epochs = spec.rebalance_interval_epochs;
  c.rebalance_max_moves = spec.rebalance_max_moves;
}

ScenarioOutput run_replay_mode(const ScenarioSpec& spec) {
  lat::TraceGenerator gen(resolve_trace_config(spec.workload));
  for (const RouteChangeEvent& rc : spec.workload.route_changes)
    gen.network().schedule_route_change(rc.i, rc.j, rc.factor, rc.at_t);

  const sim::ReplayConfig rc = resolve_replay_config(spec);
  sim::ShardedEngine engine(rc, gen.num_nodes());
  // The reader follows from what the run needs: partitioned at shards > 1,
  // EXCEPT under collect_oracle — oracle sampling hits the generating
  // network, which is not safe from concurrent readers, so those runs keep
  // the single reader (the results are bit-identical either way, so this is
  // an engine choice, not a semantic one).
  if (rc.shards > 1 && !spec.measurement.collect_oracle) {
    // Partition-on-open: split the generated trace into per-shard slice
    // files, then let every worker shard read its own slice
    // (run_partitioned) instead of funneling all records through one
    // reader. Bit-identical to the single-reader path by partition_trace's
    // stable split.
    SliceCleanup slices{lat::partition_trace(gen, partition_prefix(),
                                             gen.num_nodes(), rc.shards)};
    std::vector<std::unique_ptr<lat::TraceReader>> readers;
    std::vector<lat::TraceSource*> sources;
    readers.reserve(slices.paths.size());
    sources.reserve(slices.paths.size());
    for (const std::string& path : slices.paths) {
      readers.push_back(std::make_unique<lat::TraceReader>(path));
      sources.push_back(readers.back().get());
    }
    engine.run_partitioned(sources);
  } else {
    engine.run(gen, spec.measurement.collect_oracle ? &gen.network() : nullptr);
  }

  std::uint64_t absorbed = 0;
  for (NodeId id = 0; id < engine.num_nodes(); ++id)
    absorbed += engine.client(id).absorbed_sample_count();
  ScenarioOutput out{std::move(engine.metrics()), gen.produced(),
                     gen.attempts(), absorbed, 0, 0, {}, {}};
  out.estimator_stats = out.metrics.estimator_stats();
  out.memory = engine.memory_budget();
  return out;
}

ScenarioOutput run_online_mode(const ScenarioSpec& spec) {
  const WorkloadSpec& w = spec.workload;

  // The epoch-sharded engine is the only online engine: spec.shards = 0
  // (the retired serial simulator's slot) runs it with one worker shard.
  // It derives all link/node stochastic state itself from w.seed.
  sim::ShardedEngine simulator(
      resolve_online_config(spec), std::max(1, spec.shards),
      lat::Topology::make(resolve_topology_config(w)),
      w.link_model.value_or(lat::LinkModelConfig{}),
      w.availability.value_or(lat::AvailabilityConfig{}),
      resolve_route_changes(w));
  simulator.run();
  ScenarioOutput out{std::move(simulator.metrics()), 0, 0, 0,
                     simulator.pings_sent(), simulator.pings_lost(), {}, {}};
  out.estimator_stats = out.metrics.estimator_stats();
  out.memory = simulator.memory_budget();
  return out;
}

}  // namespace

sim::OnlineSimConfig resolve_online_config(const ScenarioSpec& spec) {
  const WorkloadSpec& w = spec.workload;
  sim::OnlineSimConfig oc;
  fill_run_config(spec, oc);
  oc.ping_interval_s = w.ping_interval_s;
  oc.bootstrap_degree = w.bootstrap_degree;
  oc.seed = w.seed;
  return oc;
}

sim::ReplayConfig resolve_replay_config(const ScenarioSpec& spec) {
  sim::ReplayConfig rc;
  fill_run_config(spec, rc);
  // The kernel's epoch matches the trace cadence; spec.shards = 0 means
  // "one worker shard" (there is no other replay engine).
  rc.epoch_s = spec.workload.ping_interval_s;
  rc.shards = std::max(1, spec.shards);
  return rc;
}

lat::TopologyConfig resolve_topology_config(const WorkloadSpec& workload) {
  lat::TopologyConfig topo = workload.topology.value_or(lat::TopologyConfig{});
  topo.num_nodes = workload.num_nodes;
  if (topo.seed == lat::TopologyConfig{}.seed) topo.seed = workload.seed;
  return topo;
}

std::vector<sim::ShardedRouteChange> resolve_route_changes(
    const WorkloadSpec& workload) {
  std::vector<sim::ShardedRouteChange> rcs;
  rcs.reserve(workload.route_changes.size());
  for (const RouteChangeEvent& rc : workload.route_changes)
    rcs.push_back({rc.i, rc.j, rc.factor, rc.at_t});
  return rcs;
}

lat::TraceGenConfig resolve_trace_config(const WorkloadSpec& workload) {
  lat::TraceGenConfig cfg;
  cfg.topology = resolve_topology_config(workload);
  cfg.link_model = workload.link_model.value_or(lat::LinkModelConfig{});
  cfg.availability = workload.availability.value_or(lat::AvailabilityConfig{});
  cfg.duration_s = workload.duration_s;
  cfg.ping_interval_s = workload.ping_interval_s;
  cfg.seed = workload.seed;
  return cfg;
}

double resolved_measure_start_s(const ScenarioSpec& spec) {
  return spec.measurement.measure_start_s >= 0.0
             ? spec.measurement.measure_start_s
             : spec.workload.duration_s / 2.0;
}

ScenarioOutput run_scenario(const ScenarioSpec& spec) {
  NC_CHECK_MSG(spec.workload.num_nodes >= 2, "need at least two nodes");
  NC_CHECK_MSG(spec.shards >= 0, "shards must be >= 0 (0 and 1 both mean one "
                                 "worker shard)");
  return spec.mode == SimMode::kReplay ? run_replay_mode(spec)
                                       : run_online_mode(spec);
}

}  // namespace nc::eval
