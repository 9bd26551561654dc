#include "estimate/idms_estimator.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace nc::est {
namespace {

LatencyObservation obs(NodeId src, NodeId dst, double t_s, double rtt,
                       const Coordinate& src_app = {},
                       const Coordinate& dst_app = {}) {
  return LatencyObservation{src, dst, t_s, rtt, src_app, dst_app};
}

TEST(IDMSEstimator, FirstSampleFillsTheCell) {
  IDMSEstimator est({}, 4, 0, 4);
  est.on_observation(obs(0, 1, 1.0, 120.0));
  const auto e = est.estimate_rtt(0, 1, 1.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 120.0);
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.direct_hits, 1u);
}

TEST(IDMSEstimator, RepeatedSamplesSmoothWithEwma) {
  IDMSEstimator est({.max_age_s = 600.0, .alpha = 0.3}, 4, 0, 4);
  est.on_observation(obs(0, 1, 1.0, 100.0));
  est.on_observation(obs(0, 1, 2.0, 50.0));
  // Bit-exact EWMA reference: alpha * newest + (1 - alpha) * cell.
  double cell = 100.0;
  cell = 0.3 * 50.0 + (1.0 - 0.3) * cell;
  EXPECT_EQ(est.estimate_rtt(0, 1, 2.0), cell);
  // A spike moves the cell by alpha only, it does not own it.
  est.on_observation(obs(0, 1, 3.0, 1000.0));
  cell = 0.3 * 1000.0 + (1.0 - 0.3) * cell;
  EXPECT_EQ(est.estimate_rtt(0, 1, 3.0), cell);
  EXPECT_EQ(est.stats().entries, 1u);  // still one cell
}

TEST(IDMSEstimator, MatrixIsDirected) {
  IDMSEstimator est({}, 4, 0, 4);
  est.on_observation(obs(0, 1, 1.0, 100.0));
  est.on_observation(obs(1, 0, 1.0, 200.0));
  EXPECT_EQ(est.estimate_rtt(0, 1, 1.0), 100.0);
  EXPECT_EQ(est.estimate_rtt(1, 0, 1.0), 200.0);
  EXPECT_EQ(est.stats().entries, 2u);
}

TEST(IDMSEstimator, StaleCellFallsBackToCoordinates) {
  IDMSEstimator est({.max_age_s = 10.0}, 4, 0, 4);
  const Coordinate a{Vec{30.0, 0.0}};
  const Coordinate b{Vec{0.0, 40.0}};
  est.on_observation(obs(0, 1, 0.0, 120.0, a, b));
  // Fresh: the measured cell answers.
  EXPECT_EQ(est.estimate_rtt(0, 1, 5.0), 120.0);
  // Past the horizon the point measurement is dead; the embedded coordinate
  // backend (fed the same stream) answers instead.
  const auto e = est.estimate_rtt(0, 1, 100.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, a.distance_to(b));
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.direct_hits, 1u);
  EXPECT_EQ(s.fallback_hits, 1u);
  EXPECT_EQ(s.stale_entries, 1u);
}

TEST(IDMSEstimator, MissesWhenCellAndFallbackBothEmpty) {
  IDMSEstimator est({}, 4, 0, 4);
  // No observation at all: nothing measured, no coordinates advertised.
  EXPECT_EQ(est.estimate_rtt(2, 3, 1.0), std::nullopt);
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(IDMSEstimator, OwnsAShardSlice) {
  // Rows for nodes [2, 4) of a 4-node deployment, as a shard would own.
  IDMSEstimator est({}, 4, 2, 2);
  est.on_observation(obs(2, 0, 1.0, 80.0));
  est.on_observation(obs(3, 1, 1.0, 90.0));
  EXPECT_EQ(est.estimate_rtt(2, 0, 1.0), 80.0);
  EXPECT_EQ(est.estimate_rtt(3, 1, 1.0), 90.0);
  EXPECT_EQ(est.stats().entries, 2u);
}

TEST(IDMSEstimator, RejectsBadConfig) {
  EXPECT_THROW(IDMSEstimator({.max_age_s = 0.0}, 4, 0, 4), CheckError);
  EXPECT_THROW(IDMSEstimator({.max_age_s = 1.0, .alpha = 0.0}, 4, 0, 4),
               CheckError);
  EXPECT_THROW(IDMSEstimator({.max_age_s = 1.0, .alpha = 1.5}, 4, 0, 4),
               CheckError);
  EXPECT_THROW(IDMSEstimator({}, 4, 2, 3), CheckError);  // slice past the end
}

// The matrix is always sparse: at a deployment size whose dense matrix
// would hold n^2 cells (~40 GB here), memory grows with the pairs actually
// measured, and queries for never-measured pairs — a miss storm across
// every row — do not materialize cells.
TEST(IDMSEstimator, MemoryFollowsObservedPairsAndQueriesDoNotGrowIt) {
  const int n = 50000;
  IDMSEstimator est({}, n, 0, n);
  const std::uint64_t empty = est.stats().memory_bytes;

  const auto observe_pairs = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      const auto src = static_cast<NodeId>((i * 7919) % n);
      const auto dst = static_cast<NodeId>((i * 104729 + 1) % n);
      est.on_observation(obs(src, dst, static_cast<double>(i), 20.0 + i % 50));
    }
  };
  observe_pairs(0, 100);
  ASSERT_EQ(est.stats().entries, 100u);
  const std::uint64_t hundred = est.stats().memory_bytes - empty;
  observe_pairs(100, 1000);
  ASSERT_EQ(est.stats().entries, 1000u);
  const std::uint64_t thousand = est.stats().memory_bytes - empty;

  // Proportional to observed pairs: a bounded per-pair cost (cell + index
  // entry, with growth slack), and 10x the pairs cost more than the first
  // hundred but nowhere near the n^2 matrix.
  EXPECT_GT(thousand, hundred);
  EXPECT_LE(thousand, 1000u * 256u);
  EXPECT_LT(est.stats().memory_bytes, std::uint64_t{16} << 20);

  // Re-observing measured pairs refreshes cells in place.
  const std::uint64_t before = est.stats().memory_bytes;
  observe_pairs(0, 1000);
  EXPECT_EQ(est.stats().memory_bytes, before);

  for (NodeId a = 0; a < n; ++a)
    (void)est.estimate_rtt(a, (a + 1) % n, 1000.0);
  EXPECT_EQ(est.stats().memory_bytes, before);
  EXPECT_EQ(est.stats().entries, 1000u);
}

// Ownership migration carries a node's row dst-ascending and leaves the
// source row empty; the receiving instance answers exactly as before.
TEST(IDMSEstimator, MigratedRowAnswersIdentically) {
  IDMSEstimator from({}, 64, 0, 64);
  IDMSEstimator to({}, 64, 0, 64);
  for (NodeId dst : {40, 3, 17, 9}) from.on_observation(obs(5, dst, 1.0, 10.0 + dst));
  from.on_observation(obs(6, 3, 1.0, 99.0));

  const EstimatorNodeState state = from.extract_node_state(5);
  ASSERT_EQ(state.cells.size(), 4u);
  for (std::size_t i = 1; i < state.cells.size(); ++i)
    EXPECT_LT(state.cells[i - 1].dst, state.cells[i].dst);
  EXPECT_EQ(from.stats().entries, 1u);  // node 6's cell stays

  to.install_node_state(5, state);
  EXPECT_EQ(to.stats().entries, 4u);
  for (NodeId dst : {40, 3, 17, 9})
    EXPECT_EQ(to.estimate_rtt(5, dst, 2.0), 10.0 + dst);
}

}  // namespace
}  // namespace nc::est
