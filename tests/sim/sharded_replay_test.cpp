// Replay mode on the epoch-sharded kernel: the PR 5 port's acceptance
// suite, mirroring sharded_sim_test for SimMode::kReplay. The contract is
// the same as the online engine's: every metric and every coordinate is
// bit-identical for ANY --shards=W, because each entity consumes its
// observation stream in a canonical, partition-independent order.
#include "sim/sharded_sim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "eval/registry.hpp"
#include "eval/scenario.hpp"
#include "latency/trace.hpp"
#include "latency/trace_generator.hpp"

namespace nc::sim {
namespace {

lat::TraceGenConfig small_trace(int nodes = 24, double duration = 600.0) {
  lat::TraceGenConfig c;
  c.topology.num_nodes = nodes;
  c.duration_s = duration;
  c.seed = 71;
  c.availability.enabled = false;
  return c;
}

ReplayConfig small_replay(double duration = 600.0, int shards = 1) {
  ReplayConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.shards = shards;
  return c;
}

// Every node's final coordinate bit-identical for any shard count (shards
// own disjoint node sets, so equality here means every client's observation
// stream replayed alike, including the cross-shard state stamps).
TEST(ShardedReplay, CoordinatesBitIdenticalAcrossShardCounts) {
  const auto run_with = [](int shards) {
    lat::TraceGenerator gen(small_trace());
    ShardedEngine engine(small_replay(600.0, shards), gen.num_nodes());
    engine.run(gen);
    std::vector<Coordinate> coords;
    for (NodeId id = 0; id < engine.num_nodes(); ++id)
      coords.push_back(engine.client(id).system_coordinate());
    return std::tuple{coords, engine.metrics().observation_count(),
                      engine.events_processed()};
  };
  const auto one = run_with(1);
  EXPECT_EQ(one, run_with(2));
  EXPECT_EQ(one, run_with(3));
  EXPECT_EQ(one, run_with(4));
}

// The acceptance-level check: full metric surface, bit-identical, on the
// planetlab and churn presets through the scenario engine.
TEST(ShardedReplay, MetricsBitIdenticalOnPresets) {
  for (const char* preset : {"planetlab", "churn"}) {
    eval::ScenarioSpec spec = eval::make_scenario(preset);
    spec.mode = eval::SimMode::kReplay;
    spec.workload.num_nodes = 48;
    spec.workload.duration_s = 900.0;
    spec.measurement.measure_start_s = 450.0;
    spec.measurement.collect_timeseries = true;
    spec.measurement.timeseries_bucket_s = 120.0;

    spec.shards = 1;
    const eval::ScenarioOutput a = eval::run_scenario(spec);
    spec.shards = 4;
    const eval::ScenarioOutput b = eval::run_scenario(spec);

    EXPECT_EQ(a.records, b.records) << preset;
    EXPECT_EQ(a.attempts, b.attempts) << preset;
    EXPECT_EQ(a.absorbed, b.absorbed) << preset;
    EXPECT_EQ(a.metrics.observation_count(), b.metrics.observation_count())
        << preset;
    EXPECT_EQ(a.metrics.total_app_updates(), b.metrics.total_app_updates())
        << preset;
    EXPECT_EQ(a.metrics.median_relative_error(), b.metrics.median_relative_error())
        << preset;
    EXPECT_EQ(a.metrics.mean_instability_ms_per_s(),
              b.metrics.mean_instability_ms_per_s())
        << preset;
    EXPECT_EQ(a.metrics.mean_pct_nodes_updating_per_s(),
              b.metrics.mean_pct_nodes_updating_per_s())
        << preset;

    const auto cdf_equal = [](const stats::Ecdf& x, const stats::Ecdf& y) {
      const auto xs = x.sorted_values();
      const auto ys = y.sorted_values();
      return std::vector<double>(xs.begin(), xs.end()) ==
             std::vector<double>(ys.begin(), ys.end());
    };
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_median_error(),
                          b.metrics.per_node_median_error()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_p95_error(),
                          b.metrics.per_node_p95_error()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.instability(), b.metrics.instability()))
        << preset;
    EXPECT_TRUE(
        cdf_equal(a.metrics.system_instability(), b.metrics.system_instability()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_p95_movement(),
                          b.metrics.per_node_p95_movement()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_dst_median_error(),
                          b.metrics.per_dst_median_error()))
        << preset;

    const auto series_equal = [](const std::vector<stats::SeriesPoint>& x,
                                 const std::vector<stats::SeriesPoint>& y) {
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i].t != y[i].t || x[i].value != y[i].value) return false;
      return true;
    };
    EXPECT_TRUE(series_equal(a.metrics.error_timeseries_median(),
                             b.metrics.error_timeseries_median()))
        << preset;
    EXPECT_TRUE(series_equal(a.metrics.error_timeseries_p95(),
                             b.metrics.error_timeseries_p95()))
        << preset;
    EXPECT_TRUE(series_equal(a.metrics.instability_timeseries(),
                             b.metrics.instability_timeseries()))
        << preset;
  }
}

// Oracle metrics flow through the reader's gt stamps identically at any W.
TEST(ShardedReplay, OracleMetricsShardCountInvariant) {
  const auto oracle_cdf = [](int shards) {
    lat::TraceGenerator gen(small_trace(12, 300.0));
    ReplayConfig rc = small_replay(300.0, shards);
    rc.collect_oracle = true;
    ShardedEngine engine(rc, gen.num_nodes());
    engine.run(gen, &gen.network());
    const auto cdf = engine.metrics().oracle_per_node_median_error();
    return std::vector<double>(cdf.sorted_values().begin(),
                               cdf.sorted_values().end());
  };
  const auto one = oracle_cdf(1);
  EXPECT_GT(one.size(), 6u);
  EXPECT_EQ(one, oracle_cdf(3));
}

// Drift tracking: every shard carries the tick series of its own tracked
// nodes; the merged series must not depend on the partition.
TEST(ShardedReplay, DriftTrackingIsShardCountInvariant) {
  const auto drift_of = [](int shards) {
    lat::TraceGenerator gen(small_trace(24, 600.0));
    ReplayConfig rc = small_replay(600.0, shards);
    rc.tracked_nodes = {1, 17};  // land on different shards at W=3
    rc.track_interval_s = 120.0;
    ShardedEngine engine(rc, gen.num_nodes());
    engine.run(gen);
    std::vector<std::pair<double, Vec>> points;
    for (NodeId id : {1, 17})
      for (const DriftPoint& p : engine.metrics().drift(id))
        points.emplace_back(p.t, p.position);
    return std::pair{points, engine.events_processed()};
  };
  const auto serial = drift_of(1);
  // 4 interior ticks + the final duration_s flush, per tracked node.
  EXPECT_EQ(serial.first.size(), 10u);
  EXPECT_EQ(serial, drift_of(3));
}

// Parallel trace ingest (PR 7): a pre-partitioned replay — every shard
// reading its own slice — must be bit-identical to the single-reader path
// on the unpartitioned trace, for any shard count. Equality of every final
// coordinate plus the merged metric surface means each client consumed the
// same observation stream in the same order.
TEST(ShardedReplay, PartitionedReplayBitIdenticalToSingleReader) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(32, 600.0), whole);

  struct Result {
    std::vector<Coordinate> coords;
    std::uint64_t observations;
    std::uint64_t events;
    double median_err;
    double instability;
    bool operator==(const Result&) const = default;
  };
  const auto result_of = [](ShardedEngine& engine) {
    Result r;
    for (NodeId id = 0; id < engine.num_nodes(); ++id)
      r.coords.push_back(engine.client(id).system_coordinate());
    r.observations = engine.metrics().observation_count();
    r.events = engine.events_processed();
    r.median_err = engine.metrics().median_relative_error();
    r.instability = engine.metrics().mean_instability_ms_per_s();
    return r;
  };

  lat::TraceReader ref_src(whole);
  ShardedEngine ref(small_replay(600.0, 1), ref_src.num_nodes());
  ref.run(ref_src);
  const Result expected = result_of(ref);

  for (int shards : {1, 2, 3}) {
    lat::TraceReader src(whole);
    const auto paths = lat::partition_trace(src, prefix, src.num_nodes(), shards);
    std::vector<std::unique_ptr<lat::TraceReader>> slices;
    std::vector<lat::TraceSource*> sources;
    for (const std::string& p : paths) {
      slices.push_back(std::make_unique<lat::TraceReader>(p));
      sources.push_back(slices.back().get());
    }
    ShardedEngine engine(small_replay(600.0, shards), ref_src.num_nodes());
    engine.run_partitioned(sources);
    EXPECT_EQ(result_of(engine), expected) << "shards=" << shards;
  }
}

// The partitioned entry point enforces its contract: one slice per shard,
// no nulls, no foreign records in a slice.
TEST(ShardedReplay, PartitionedReplayRejectsBadSlices) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part-bad";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(12, 60.0), whole);

  {
    // Wrong slice count.
    lat::TraceReader a(whole);
    ShardedEngine engine(small_replay(60.0, 2), 12);
    std::vector<lat::TraceSource*> sources{&a};
    EXPECT_THROW(engine.run_partitioned(sources), CheckError);
  }
  {
    // The whole trace handed to every shard: shard 1's reader immediately
    // sees records whose dst it does not own.
    lat::TraceReader a(whole);
    lat::TraceReader b(whole);
    ShardedEngine engine(small_replay(60.0, 2), 12);
    std::vector<lat::TraceSource*> sources{&a, &b};
    EXPECT_THROW(engine.run_partitioned(sources), CheckError);
  }
}

TEST(ShardedReplay, MoreShardsThanNodesWorks) {
  lat::TraceGenerator gen(small_trace(5, 300.0));
  ShardedEngine engine(small_replay(300.0, 8), gen.num_nodes());
  engine.run(gen);
  EXPECT_GT(engine.metrics().observation_count(), 0u);
}

TEST(ShardedReplay, RunTwiceRejected) {
  lat::TraceGenerator gen(small_trace(8, 60.0));
  ShardedEngine engine(small_replay(60.0, 2), gen.num_nodes());
  engine.run(gen);
  lat::TraceGenerator gen2(small_trace(8, 60.0));
  EXPECT_THROW(engine.run(gen2), CheckError);
}

TEST(ShardedReplay, RejectsBadConfigs) {
  EXPECT_THROW(ShardedEngine(small_replay(600.0, 0), 8), CheckError);
  ReplayConfig bad_epoch = small_replay();
  bad_epoch.epoch_s = 0.0;
  EXPECT_THROW(ShardedEngine(bad_epoch, 8), CheckError);
  ReplayConfig bad_track = small_replay();
  bad_track.tracked_nodes = {1};
  bad_track.track_interval_s = 0.0;
  EXPECT_THROW(ShardedEngine(bad_track, 8), CheckError);
}

// The two run() entry points are mode-gated: a replay engine cannot run as
// an online simulation and vice versa.
TEST(ShardedReplay, ModeMismatchedRunRejected) {
  ShardedEngine replay(small_replay(60.0), 8);
  EXPECT_THROW(replay.run(), CheckError);

  lat::TopologyConfig tc;
  tc.num_nodes = 8;
  OnlineSimConfig oc;
  oc.duration_s = 60.0;
  oc.measure_start_s = 30.0;
  ShardedEngine online(oc, 1, lat::Topology::make(tc));
  lat::TraceGenerator gen(small_trace(8, 60.0));
  EXPECT_THROW(online.run(gen), CheckError);
}

// Scheduled route changes reach the replay oracle via the generating
// network — the composed schedule presets drive replay mode too.
TEST(ShardedReplay, RouteScheduleShiftsOracleRtts) {
  const auto oracle_err = [](const char* schedule) {
    eval::ScenarioSpec spec = eval::make_scenario("planetlab");
    spec.mode = eval::SimMode::kReplay;
    spec.workload.num_nodes = 12;
    spec.workload.duration_s = 300.0;
    spec.workload.availability = lat::AvailabilityConfig{.enabled = false};
    spec.measurement.measure_start_s = 150.0;
    spec.measurement.collect_oracle = true;
    eval::apply_route_schedule(spec, schedule);
    const eval::ScenarioOutput out = eval::run_scenario(spec);
    return out.metrics.oracle_median_error_of(0);
  };
  EXPECT_NE(oracle_err("single-link"), oracle_err("none"));
}

}  // namespace
}  // namespace nc::sim
