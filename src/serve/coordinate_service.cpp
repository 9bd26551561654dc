#include "serve/coordinate_service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace nc::serve {

CoordinateService::CoordinateService(const est::SnapshotPublisher* source,
                                     int num_nodes)
    : num_nodes_(num_nodes),
      estimator_(est::SnapshotEstimatorConfig{}, source, num_nodes) {
  NC_CHECK_MSG(source != nullptr, "CoordinateService needs a snapshot source");
  NC_CHECK_MSG(num_nodes >= 1, "need at least one node");
}

const est::EpochSnapshot* CoordinateService::view() {
  const est::EpochSnapshot* snap = estimator_.view().refresh();
  if (snap) last_version_ = snap->version;
  return snap;
}

std::optional<double> CoordinateService::distance_ms(NodeId a, NodeId b) {
  NC_CHECK_MSG(a >= 0 && a < num_nodes_ && b >= 0 && b < num_nodes_,
               "distance query endpoint out of range");
  ++stats_.queries;
  ++stats_.distance_queries;
  (void)view();  // refresh last_version_
  // The estimator's `now` only drives fallback-staleness introspection; the
  // service feeds no observations, so any value works — use 0.
  const std::optional<double> d = estimator_.estimate_rtt(a, b, 0.0);
  if (!d.has_value()) ++stats_.empty_answers;
  return d;
}

namespace {

/// Squared distances from slot `o` to every slot of `lane` (rows of D
/// position components and a height). Per slot this is Vec::distance_to's
/// order: s = 0, then s += d * d per dimension — the first term is
/// assigned, since 0 + d * d is exactly d * d. D is a constant, so the
/// walk over each row unrolls.
template <int D>
void squared_distances(const est::PositionLane& lane, std::size_t o,
                       double* acc) {
  std::array<double, D> x;
  std::copy_n(lane.row(o), D, x.begin());
  const double* rows = lane.rows();
  for (std::size_t j = 0; j < lane.size(); ++j) {
    const double* p = rows + j * (D + 1);
    const double d0 = x[0] - p[0];
    double s = d0 * d0;
    for (int c = 1; c < D; ++c) {
      const double d = x[c] - p[c];
      s += d * d;
    }
    acc[j] = s;
  }
}

using SquaredDistances = void (*)(const est::PositionLane&, std::size_t,
                                  double*);
static_assert(kMaxDim == 8, "one squared_distances instance per dimension");
constexpr std::array<SquaredDistances, kMaxDim + 1> kSquaredDistances = {
    nullptr,
    &squared_distances<1>, &squared_distances<2>, &squared_distances<3>,
    &squared_distances<4>, &squared_distances<5>, &squared_distances<6>,
    &squared_distances<7>, &squared_distances<8>};

/// A bound B on squared distances such that acc >= B implies
/// sqrt(acc) >= rtt: sqrt is correctly rounded, hence monotone, so
/// sqrt(B) >= rtt suffices. rtt * rtt is at most an ulp or two short of it.
double squared_bound(double rtt) {
  double b = rtt * rtt;
  while (std::sqrt(b) < rtt)
    b = std::nextafter(b, std::numeric_limits<double>::infinity());
  return b;
}

}  // namespace

void CoordinateService::nearest_k(NodeId origin, int k,
                                  std::vector<Neighbor>& out,
                                  bool include_down) {
  NC_CHECK_MSG(origin >= 0 && origin < num_nodes_,
               "nearest-k origin out of range");
  NC_CHECK_MSG(k >= 0, "negative k");
  ++stats_.queries;
  ++stats_.nearest_queries;
  out.clear();
  const est::EpochSnapshot* snap = view();
  if (!snap || k == 0) {
    if (!snap) ++stats_.empty_answers;
    return;
  }
  const est::PositionLane& lane = snap->lane;
  const std::size_t n = lane.size();
  const auto o = static_cast<std::size_t>(origin);
  if (o >= n || !lane.placed(o)) {
    ++stats_.empty_answers;
    return;
  }

  // Pass 1: squared distances to every slot.
  dist2_.resize(n);
  const double* acc = dist2_.data();
  kSquaredDistances[static_cast<std::size_t>(lane.dim())](lane, o,
                                                          dist2_.data());

  // Pass 2: exact bounded top-k by (rtt, id) in a max-heap whose top is
  // the k-th best. Slots arrive in ascending id, so a candidate that only
  // ties the k-th best loses; a candidate is skipped without its sqrt when
  // its squared distance or its height sum alone already reach the k-th
  // best RTT (rtt = sqrt(acc) + (h_from + h_j) is at least either).
  const int dim = lane.dim();
  const auto height = [&](std::size_t i) { return lane.row(i)[dim]; };
  const double h_from = height(o);
  const std::uint8_t* state = lane.states();
  const std::uint8_t min_state =
      include_down ? est::PositionLane::kDown : est::PositionLane::kUp;
  const auto closer = [](const Neighbor& x, const Neighbor& y) {
    return x.rtt_ms != y.rtt_ms ? x.rtt_ms < y.rtt_ms : x.id < y.id;
  };
  const auto kk = static_cast<std::size_t>(k);
  best_.clear();
  std::size_t j = 0;
  for (; j < n && best_.size() < kk; ++j) {
    if (state[j] < min_state || j == o) continue;
    best_.push_back(
        {static_cast<NodeId>(j), std::sqrt(acc[j]) + (h_from + height(j))});
  }
  std::make_heap(best_.begin(), best_.end(), closer);
  if (best_.size() == kk && j < n) {
    double worst = best_.front().rtt_ms;
    double bound = squared_bound(worst);
    const auto offer = [&](std::size_t i) {
      if (acc[i] >= bound || state[i] < min_state || i == o) return;
      const double hsum = h_from + height(i);
      if (hsum >= worst) return;
      const Neighbor cand{static_cast<NodeId>(i), std::sqrt(acc[i]) + hsum};
      if (!closer(cand, best_.front())) return;
      std::pop_heap(best_.begin(), best_.end(), closer);
      best_.back() = cand;
      std::push_heap(best_.begin(), best_.end(), closer);
      worst = best_.front().rtt_ms;
      bound = squared_bound(worst);
    };
    // Once the heap has settled, most slots are already out by their
    // squared distance: test a block of them at once and offer only the
    // ones under the bound (the bound only falls, so none is missed).
    constexpr std::size_t kBlock = 8;
    for (; j < n && j % kBlock != 0; ++j) offer(j);
    for (; j + kBlock <= n; j += kBlock) {
      unsigned below = 0;
      for (std::size_t i = 0; i < kBlock; ++i)
        below |= static_cast<unsigned>(acc[j + i] < bound) << i;
      for (; below != 0; below &= below - 1)
        offer(j + static_cast<std::size_t>(std::countr_zero(below)));
    }
    for (; j < n; ++j) offer(j);
  }
  std::sort_heap(best_.begin(), best_.end(), closer);
  out.assign(best_.begin(), best_.end());
  if (out.empty()) ++stats_.empty_answers;
}

std::optional<Coordinate> CoordinateService::centroid(
    const std::vector<NodeId>& ids) {
  ++stats_.queries;
  ++stats_.centroid_queries;
  const est::EpochSnapshot* snap = view();
  if (!snap) {
    ++stats_.empty_answers;
    return std::nullopt;
  }
  // Summed from the lane in the order Coordinate::as_vec embeds a node
  // (position, then height): the first member is copied, the rest added.
  const est::PositionLane& lane = snap->lane;
  const int dim = lane.dim();
  std::array<double, kMaxDim + 1> sum{};
  int placed = 0;
  for (const NodeId id : ids) {
    NC_CHECK_MSG(id >= 0 && id < num_nodes_, "centroid id out of range");
    const auto i = static_cast<std::size_t>(id);
    if (i >= lane.size() || !lane.placed(i)) continue;
    const double* row = lane.row(i);
    for (int c = 0; c <= dim; ++c) {
      auto& s = sum[static_cast<std::size_t>(c)];
      s = placed == 0 ? row[c] : s + row[c];
    }
    ++placed;
  }
  if (placed == 0) {
    ++stats_.empty_answers;
    return std::nullopt;
  }
  // Vec's division: a multiply by the reciprocal.
  const double r = 1.0 / static_cast<double>(placed);
  Vec pos(dim);
  for (int c = 0; c < dim; ++c) pos[c] = sum[static_cast<std::size_t>(c)] * r;
  if (!lane.has_height()) return Coordinate(pos);
  return Coordinate(pos, std::max(0.0, sum[static_cast<std::size_t>(dim)] * r));
}

}  // namespace nc::serve
