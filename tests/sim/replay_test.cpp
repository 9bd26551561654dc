#include "sim/sharded_sim.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
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

ReplayConfig small_replay(double duration = 600.0) {
  ReplayConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  return c;
}

TEST(ReplayEngine, CoordinatesConvergeOnSyntheticPlanetLab) {
  lat::TraceGenerator gen(small_trace());
  ShardedEngine engine(small_replay(), gen.num_nodes());
  engine.run(gen);
  EXPECT_GT(engine.metrics().observation_count(), 5000u);
  // With the MP filter, the median node should reach reasonable accuracy
  // within 10 minutes on a 24-node network.
  EXPECT_LT(engine.metrics().median_relative_error(), 0.25);
  // Confidence rises from 0 on every node that observed samples.
  int confident = 0;
  for (NodeId id = 0; id < engine.num_nodes(); ++id)
    if (engine.client(id).confidence() > 0.5) ++confident;
  EXPECT_GT(confident, engine.num_nodes() / 2);
}

TEST(ReplayEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    lat::TraceGenerator gen(small_trace(16, 300.0));
    ShardedEngine engine(small_replay(300.0), gen.num_nodes());
    engine.run(gen);
    return std::pair{engine.metrics().median_relative_error(),
                     engine.metrics().median_instability_ms_per_s()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ReplayEngine, RecordsPastDurationIgnored) {
  lat::TraceGenerator gen(small_trace(8, 600.0));
  ReplayConfig rc = small_replay(300.0);  // engine stops at 300 s
  ShardedEngine engine(rc, gen.num_nodes());
  engine.run(gen);
  EXPECT_GT(engine.metrics().observation_count(), 0u);
  // ~8 nodes * 300 s at 1 Hz minus losses.
  EXPECT_LT(engine.metrics().observation_count(), 8u * 301u);
}

TEST(ReplayEngine, OracleMetricsCollected) {
  lat::TraceGenerator gen(small_trace(12, 300.0));
  ReplayConfig rc = small_replay(300.0);
  rc.collect_oracle = true;
  ShardedEngine engine(rc, gen.num_nodes());
  engine.run(gen, &gen.network());
  const auto cdf = engine.metrics().oracle_per_node_median_error();
  EXPECT_GT(cdf.size(), 6u);
  EXPECT_LT(cdf.median(), 0.5);
}

TEST(ReplayEngine, TracksDriftOfSelectedNodes) {
  lat::TraceGenerator gen(small_trace(8, 300.0));
  ReplayConfig rc = small_replay(300.0);
  rc.tracked_nodes = {0, 3};
  rc.track_interval_s = 60.0;
  ShardedEngine engine(rc, gen.num_nodes());
  engine.run(gen);
  const auto& drift = engine.metrics().drift(3);
  EXPECT_GE(drift.size(), 3u);  // snapshots at 60, 120, 180, 240
  EXPECT_LE(drift.size(), 5u);
}

TEST(ReplayEngine, TraceWithMoreNodesThanEngineRejected) {
  lat::TraceGenerator gen(small_trace(8, 60.0));
  ShardedEngine engine(small_replay(60.0), 4);
  EXPECT_THROW(engine.run(gen), CheckError);
}

TEST(ReplayEngine, AppUpdatesSuppressedByEnergyHeuristic) {
  lat::TraceGenerator gen_a(small_trace(16, 600.0));
  ReplayConfig always = small_replay(600.0);
  ShardedEngine da(always, gen_a.num_nodes());
  da.run(gen_a);

  lat::TraceGenerator gen_b(small_trace(16, 600.0));
  ReplayConfig energy = small_replay(600.0);
  energy.client.heuristic = HeuristicConfig::energy(8.0, 32);
  ShardedEngine db(energy, gen_b.num_nodes());
  db.run(gen_b);

  // Identical workload (same seed): ENERGY must cut application updates and
  // instability dramatically without hurting error much.
  EXPECT_LT(db.metrics().total_app_updates(),
            da.metrics().total_app_updates() / 5);
  EXPECT_LT(db.metrics().median_instability_ms_per_s(),
            da.metrics().median_instability_ms_per_s() / 2.0);
  EXPECT_LT(db.metrics().median_relative_error(),
            da.metrics().median_relative_error() * 1.6 + 0.05);
}

}  // namespace
}  // namespace nc::sim
