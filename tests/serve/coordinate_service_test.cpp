// CoordinateService (serve/coordinate_service.hpp) over a hand-fed
// publisher: nearest-k against brute force, distance through the estimator
// seam, centroid, the down-node filter, and version tracking — plus a
// randomised identity check of all three query kinds against a reference
// that reads the SnapshotNode records directly.
#include "serve/coordinate_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/vec.hpp"
#include "estimate/snapshot.hpp"

namespace nc::serve {
namespace {

Coordinate at(double x, double y) { return Coordinate(Vec({x, y})); }

// Ten nodes on a line at x = 0, 10, 20, ...; node 7 down, node 9 unplaced.
void publish_line(est::SnapshotPublisher& pub, double t) {
  est::EpochSnapshot& snap = pub.staging(10);
  for (int i = 0; i < 10; ++i) {
    snap.nodes[static_cast<std::size_t>(i)] = {at(10.0 * i, 0.0), 0.1, 0.9, 1};
  }
  snap.nodes[7].up = 0;
  snap.nodes[9] = est::SnapshotNode{};
  pub.publish(t);
}

TEST(CoordinateService, EmptyBeforeFirstPublish) {
  est::SnapshotPublisher pub;
  CoordinateService service(&pub, 10);
  std::vector<CoordinateService::Neighbor> out;

  EXPECT_FALSE(service.distance_ms(0, 1).has_value());
  service.nearest_k(0, 3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(service.centroid({0, 1, 2}).has_value());
  EXPECT_EQ(service.snapshot_version(), 0u);
  EXPECT_EQ(service.stats().queries, 3u);
  EXPECT_EQ(service.stats().empty_answers, 3u);
}

TEST(CoordinateService, DistanceMatchesCoordinateGeometry) {
  est::SnapshotPublisher pub;
  publish_line(pub, 1.0);
  CoordinateService service(&pub, 10);
  const std::optional<double> d = service.distance_ms(2, 6);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 40.0);
  // Unplaced endpoint: no snapshot answer and no fallback feed -> empty.
  EXPECT_FALSE(service.distance_ms(0, 9).has_value());
  EXPECT_EQ(service.stats().distance_queries, 2u);
  EXPECT_EQ(service.stats().empty_answers, 1u);
  EXPECT_EQ(service.snapshot_version(), 1u);
}

TEST(CoordinateService, NearestKMatchesBruteForce) {
  est::SnapshotPublisher pub;
  publish_line(pub, 1.0);
  CoordinateService service(&pub, 10);
  std::vector<CoordinateService::Neighbor> out;

  service.nearest_k(3, 4, out);
  ASSERT_EQ(out.size(), 4u);
  // Brute force on the line from x=30: 2 and 4 at 10, 1 and 5 at 20 —
  // node 7 (down) and node 9 (unplaced) never appear; ties break by id.
  EXPECT_EQ(out[0].id, 2);
  EXPECT_EQ(out[1].id, 4);
  EXPECT_EQ(out[2].id, 1);
  EXPECT_EQ(out[3].id, 5);
  EXPECT_DOUBLE_EQ(out[0].rtt_ms, 10.0);
  EXPECT_DOUBLE_EQ(out[3].rtt_ms, 20.0);
  for (const auto& nb : out) EXPECT_NE(nb.id, 3);

  // include_down admits node 7 (distance 40 from node 3).
  service.nearest_k(3, 8, out, /*include_down=*/true);
  EXPECT_TRUE(std::any_of(out.begin(), out.end(),
                          [](const auto& nb) { return nb.id == 7; }));

  // k larger than the candidate set returns everyone placed (and up).
  service.nearest_k(0, 100, out);
  EXPECT_EQ(out.size(), 7u);  // 10 minus origin, node 7 (down), node 9

  // Unplaced origin answers empty.
  service.nearest_k(9, 3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(service.stats().empty_answers, 0u);
}

TEST(CoordinateService, CentroidAveragesPlacedMembers) {
  est::SnapshotPublisher pub;
  publish_line(pub, 1.0);
  CoordinateService service(&pub, 10);

  const std::optional<Coordinate> c = service.centroid({0, 2, 4});
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->position()[0], 20.0);
  EXPECT_DOUBLE_EQ(c->position()[1], 0.0);

  // Unplaced members are skipped, not averaged as zeros.
  const std::optional<Coordinate> skip = service.centroid({0, 2, 9});
  ASSERT_TRUE(skip.has_value());
  EXPECT_DOUBLE_EQ(skip->position()[0], 10.0);

  // A group with no placed member has no centroid.
  EXPECT_FALSE(service.centroid({9}).has_value());
  EXPECT_FALSE(service.centroid({}).has_value());
}

TEST(CoordinateService, TracksNewVersionsAcrossQueries) {
  est::SnapshotPublisher pub;
  publish_line(pub, 1.0);
  CoordinateService service(&pub, 10);
  ASSERT_TRUE(service.distance_ms(0, 1).has_value());
  EXPECT_EQ(service.snapshot_version(), 1u);

  publish_line(pub, 2.0);
  publish_line(pub, 3.0);
  ASSERT_TRUE(service.distance_ms(0, 1).has_value());
  EXPECT_EQ(service.snapshot_version(), 3u);
}

// --- randomised identity against a record-reading reference ---

/// Nearest-k the straightforward way: Coordinate::distance_to on every
/// eligible record, then partial_sort by (rtt, id).
std::vector<CoordinateService::Neighbor> reference_nearest(
    const std::vector<est::SnapshotNode>& nodes, NodeId origin, int k,
    bool include_down) {
  std::vector<CoordinateService::Neighbor> all;
  const auto o = static_cast<std::size_t>(origin);
  if (!nodes[o].placed() || k == 0) return all;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (id == o || !nodes[id].placed()) continue;
    if (!include_down && nodes[id].up == 0) continue;
    all.push_back({static_cast<NodeId>(id),
                   nodes[o].app.distance_to(nodes[id].app)});
  }
  const std::size_t take = std::min(all.size(), static_cast<std::size_t>(k));
  const auto closer = [](const auto& x, const auto& y) {
    return x.rtt_ms != y.rtt_ms ? x.rtt_ms < y.rtt_ms : x.id < y.id;
  };
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(take), all.end(),
                    closer);
  all.resize(take);
  return all;
}

/// Centroid the straightforward way: as_vec() sums divided by the count.
/// Eight dimensions plus a height do not fit as_vec's embedding; there the
/// same sums are taken per component.
std::optional<Coordinate> reference_centroid(
    const std::vector<est::SnapshotNode>& nodes,
    const std::vector<NodeId>& ids) {
  std::vector<const Coordinate*> members;
  for (const NodeId id : ids)
    if (nodes[static_cast<std::size_t>(id)].placed())
      members.push_back(&nodes[static_cast<std::size_t>(id)].app);
  if (members.empty()) return std::nullopt;
  const bool height = members.front()->has_height();
  const double count = static_cast<double>(members.size());
  if (members.front()->dim() + (height ? 1 : 0) <= kMaxDim) {
    Vec sum = members.front()->as_vec();
    for (std::size_t m = 1; m < members.size(); ++m)
      sum += members[m]->as_vec();
    return Coordinate::from_vec(sum / count, height);
  }
  Vec pos = members.front()->position();
  double h = members.front()->height();
  for (std::size_t m = 1; m < members.size(); ++m) {
    pos += members[m]->position();
    h += members[m]->height();
  }
  return Coordinate(pos / count, std::max(0.0, h * (1.0 / count)));
}

/// A random snapshot: about a tenth of the slots unplaced and a fifth down.
/// `grid` draws small integer coordinates and heights, so many distances
/// tie exactly.
std::vector<est::SnapshotNode> random_nodes(Rng& rng, int n, int dim,
                                            bool height, bool grid) {
  std::vector<est::SnapshotNode> nodes(static_cast<std::size_t>(n));
  const auto draw = [&](double lo, double hi) {
    return grid ? static_cast<double>(rng.uniform_int(4))
                : rng.uniform(lo, hi);
  };
  for (auto& node : nodes) {
    if (rng.bernoulli(0.1)) continue;  // unplaced
    Vec v(dim);
    for (int c = 0; c < dim; ++c) v[c] = draw(-150.0, 150.0);
    node.app = height ? Coordinate(v, draw(0.0, 20.0)) : Coordinate(v);
    node.error = rng.uniform();
    node.confidence = 1.0 - node.error;
    node.up = rng.bernoulli(0.2) ? 0 : 1;
  }
  return nodes;
}

NodeId pick(Rng& rng, int n) {
  return static_cast<NodeId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
}

TEST(CoordinateService, RandomisedAnswersMatchRecordReference) {
  Rng rng(20260419);
  std::vector<CoordinateService::Neighbor> out;
  for (int dim = 1; dim <= kMaxDim; ++dim) {
    for (const bool height : {false, true}) {
      for (int trial = 0; trial < 4; ++trial) {
        const bool grid = trial % 2 == 1;
        const int n = trial < 2 ? 3 + pick(rng, 10) : 150 + pick(rng, 100);
        const std::vector<est::SnapshotNode> nodes =
            random_nodes(rng, n, dim, height, grid);
        est::SnapshotPublisher pub;
        pub.staging(n).nodes = nodes;
        pub.publish(1.0);
        CoordinateService service(&pub, n);
        SCOPED_TRACE(::testing::Message() << "dim " << dim << " height "
                                          << height << " trial " << trial);

        for (int q = 0; q < 40; ++q) {
          const NodeId a = pick(rng, n);
          const bool include_down = rng.bernoulli(0.5);
          for (const int k : {0, 5, n + 3, 1 + pick(rng, n)}) {
            service.nearest_k(a, k, out, include_down);
            const auto want = reference_nearest(nodes, a, k, include_down);
            ASSERT_EQ(out.size(), want.size()) << "origin " << a << " k " << k;
            for (std::size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(out[i].id, want[i].id) << "rank " << i;
              EXPECT_EQ(out[i].rtt_ms, want[i].rtt_ms) << "rank " << i;
            }
          }

          const NodeId b = pick(rng, n);
          const std::optional<double> d = service.distance_ms(a, b);
          const est::SnapshotNode& na = nodes[static_cast<std::size_t>(a)];
          const est::SnapshotNode& nb = nodes[static_cast<std::size_t>(b)];
          if (na.placed() && nb.placed()) {
            ASSERT_TRUE(d.has_value());
            EXPECT_EQ(*d, na.app.distance_to(nb.app));
          } else {
            EXPECT_FALSE(d.has_value());
          }

          std::vector<NodeId> group(rng.uniform_int(8));
          for (NodeId& id : group) id = pick(rng, n);
          const std::optional<Coordinate> c = service.centroid(group);
          const auto want = reference_centroid(nodes, group);
          ASSERT_EQ(c.has_value(), want.has_value());
          if (c.has_value()) {
            EXPECT_TRUE(*c == *want) << *c << " vs " << *want;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nc::serve
