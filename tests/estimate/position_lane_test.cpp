// PositionLane (estimate/snapshot.hpp): the packed position index every
// snapshot carries. A published base builds it from its records; a delta
// reader patches it per entry. Either way it must equal a lane built from
// the same records, and a snapshot mixing coordinate models must fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/vec.hpp"
#include "estimate/snapshot.hpp"

namespace nc::est {
namespace {

PositionLane rebuilt(const std::vector<SnapshotNode>& nodes) {
  PositionLane lane;
  lane.build(nodes);
  return lane;
}

SnapshotNode placed_at(Rng& rng, int dim, bool height) {
  Vec v(dim);
  for (int c = 0; c < dim; ++c) v[c] = rng.uniform(-100.0, 100.0);
  SnapshotNode node;
  node.app = height ? Coordinate(v, rng.uniform(0.0, 10.0)) : Coordinate(v);
  node.error = rng.uniform();
  node.confidence = 1.0 - node.error;
  node.up = rng.bernoulli(0.8) ? 1 : 0;
  return node;
}

TEST(PositionLane, BuildPacksRowsAndStates) {
  std::vector<SnapshotNode> nodes(4);
  nodes[0].app = Coordinate(Vec({1.0, 2.0}), 0.5);
  nodes[1].app = Coordinate(Vec({-3.0, 4.0}), 1.5);
  nodes[1].up = 0;
  // nodes[2] stays unplaced.
  nodes[3].app = Coordinate(Vec({6.0, -8.0}), 0.25);
  const PositionLane lane = rebuilt(nodes);

  ASSERT_EQ(lane.size(), 4u);
  EXPECT_EQ(lane.dim(), 2);
  EXPECT_TRUE(lane.has_height());
  ASSERT_EQ(lane.stride(), 3u);  // x, y, height
  EXPECT_EQ(lane.row(1)[0], -3.0);
  EXPECT_EQ(lane.row(3)[1], -8.0);
  EXPECT_EQ(lane.row(0)[2], 0.5);
  EXPECT_EQ(lane.row(2)[0], 0.0);  // unplaced slots hold zeros
  EXPECT_EQ(lane.row(2)[2], 0.0);
  EXPECT_EQ(lane.states()[0], PositionLane::kUp);
  EXPECT_EQ(lane.states()[1], PositionLane::kDown);
  EXPECT_EQ(lane.states()[2], PositionLane::kUnplaced);
  EXPECT_FALSE(lane.placed(2));
  for (std::size_t a : {0u, 1u, 3u})
    for (std::size_t b : {0u, 1u, 3u})
      EXPECT_EQ(lane.distance(a, b), nodes[a].app.distance_to(nodes[b].app));
  EXPECT_GT(lane.memory_bytes(), 0u);
}

TEST(PositionLane, PublishedBaseCarriesItsLane) {
  Rng rng(5);
  SnapshotPublisher pub;
  std::vector<SnapshotNode> nodes(32);
  for (auto& node : nodes)
    if (rng.bernoulli(0.7)) node = placed_at(rng, 3, false);
  pub.staging(32).nodes = nodes;
  pub.publish(1.0);
  const auto snap = pub.latest();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->lane == rebuilt(nodes));
  EXPECT_GE(snap->memory_bytes(), sizeof(EpochSnapshot) +
                                      32 * sizeof(SnapshotNode) +
                                      snap->lane.memory_bytes());
}

// Random delta-mode sequences: nodes get placed, move, toggle up and (to
// exercise every patch path) occasionally drop back to unplaced. A reader
// refreshing every publish catches up incrementally; a lagging reader
// skips runs of publishes, often more than a base, and rebuilds. After
// every refresh the view's lane must equal a lane built from its records.
TEST(PositionLane, DeltaViewLaneEqualsRebuild) {
  Rng rng(20261019);
  std::uint64_t lagging_rebuilds = 0;
  std::uint64_t lagging_deltas = 0;
  const int sequences = 24;
  for (int seq = 0; seq < sequences; ++seq) {
    const int n = 1 + static_cast<int>(rng.uniform_int(20));
    const int dim = 1 + static_cast<int>(rng.uniform_int(kMaxDim));
    const bool height = rng.bernoulli(0.5);
    const int base_interval = 1 + static_cast<int>(rng.uniform_int(5));
    const int lanes = 1 + static_cast<int>(rng.uniform_int(3));
    SCOPED_TRACE(::testing::Message() << "sequence " << seq << " n " << n
                                      << " dim " << dim << " height " << height
                                      << " base_interval " << base_interval);
    SnapshotPublisher pub;
    pub.enable_deltas(base_interval, lanes);
    std::vector<SnapshotNode> state(static_cast<std::size_t>(n));
    std::vector<SnapshotNode> mirror(state.size());
    SnapshotView every(&pub);
    SnapshotView lagging(&pub);
    int lag = 0;

    const auto check = [&](SnapshotView& view) {
      const EpochSnapshot* snap = view.refresh();
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->version, pub.published());
      ASSERT_EQ(snap->nodes.size(), state.size());
      for (std::size_t i = 0; i < state.size(); ++i)
        ASSERT_TRUE(snap->nodes[i] == state[i]) << "slot " << i;
      EXPECT_TRUE(snap->lane == rebuilt(snap->nodes));
    };

    for (int step = 0; step < 60; ++step) {
      for (std::size_t i = 0; i < state.size(); ++i) {
        const double u = rng.uniform();
        if (!state[i].placed()) {
          if (u < 0.3) state[i] = placed_at(rng, dim, height);
        } else if (u < 0.15) {
          state[i].up = state[i].up != 0 ? 0 : 1;
        } else if (u < 0.3) {
          const std::uint8_t up = state[i].up;
          state[i] = placed_at(rng, dim, height);
          state[i].up = up;
        } else if (u < 0.33) {
          state[i] = SnapshotNode{};
        }
        if (!(mirror[i] == state[i])) {
          pub.lane(static_cast<int>(i) % lanes)
              .push_back({static_cast<std::uint32_t>(i), state[i]});
          mirror[i] = state[i];
        }
      }
      if (pub.next_is_base()) pub.staging(n).nodes = state;
      pub.publish(static_cast<double>(step));
      check(every);
      if (lag == 0) {
        check(lagging);
        lag = static_cast<int>(rng.uniform_int(3 * base_interval + 2));
      } else {
        --lag;
      }
    }
    EXPECT_EQ(every.full_rebuilds(), 1u);
    lagging_rebuilds += lagging.full_rebuilds();
    lagging_deltas += lagging.delta_refreshes();
  }
  // Both catch-up paths ran: some lags crossed more than one base.
  EXPECT_GT(lagging_rebuilds, static_cast<std::uint64_t>(sequences));
  EXPECT_GT(lagging_deltas, 0u);
}

TEST(PositionLane, MixedDimensionSnapshotFailsCheck) {
  SnapshotPublisher pub;
  EpochSnapshot& snap = pub.staging(3);
  snap.nodes[0].app = Coordinate(Vec({1.0, 2.0}));
  snap.nodes[2].app = Coordinate(Vec({1.0, 2.0, 3.0}));
  EXPECT_THROW(pub.publish(1.0), CheckError);

  std::vector<SnapshotNode> heights(2);
  heights[0].app = Coordinate(Vec({1.0, 2.0}));
  heights[1].app = Coordinate(Vec({1.0, 2.0}), 1.0);
  PositionLane lane;
  EXPECT_THROW(lane.build(heights), CheckError);
}

TEST(PositionLane, MixedDimensionDeltaFailsCheck) {
  SnapshotPublisher pub;
  pub.enable_deltas(/*base_interval=*/4, /*num_lanes=*/1);
  std::vector<SnapshotNode> nodes(2);
  nodes[0].app = Coordinate(Vec({1.0, 2.0}));
  nodes[1].app = Coordinate(Vec({3.0, 4.0}));
  pub.staging(2).nodes = nodes;
  pub.publish(1.0);
  SnapshotView view(&pub);
  ASSERT_NE(view.refresh(), nullptr);

  SnapshotNode odd;
  odd.app = Coordinate(Vec({1.0, 2.0, 3.0}));
  pub.lane(0).push_back({1, odd});
  pub.publish(2.0);
  EXPECT_THROW((void)view.refresh(), CheckError);
}

}  // namespace
}  // namespace nc::est
