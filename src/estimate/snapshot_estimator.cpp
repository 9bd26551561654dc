#include "estimate/snapshot_estimator.hpp"

namespace nc::est {

SnapshotEstimator::SnapshotEstimator(const SnapshotEstimatorConfig& config,
                                     const SnapshotPublisher* source,
                                     int num_nodes)
    : view_(source),
      fallback_(CoordinateEstimatorConfig{config.max_age_s}, num_nodes) {}

void SnapshotEstimator::on_observation(const LatencyObservation& obs) {
  // The feed keeps the fallback cache primed (and accounts the piggybacked
  // coordinate traffic); the primary state refreshes itself — the engine
  // publishes a new snapshot every epoch.
  fallback_.on_observation(obs);
}

std::optional<double> SnapshotEstimator::estimate_rtt(NodeId a, NodeId b,
                                                      double now_s) {
  ++queries_;
  if (a >= 0 && b >= 0) {
    if (const EpochSnapshot* snap = view_.refresh()) {
      // Read from the packed lane, not the records: the nearest-k scans
      // keep the lane cache-warm, and this lookup then stays warm with it.
      const PositionLane& lane = snap->lane;
      const auto ia = static_cast<std::size_t>(a);
      const auto ib = static_cast<std::size_t>(b);
      if (ia < lane.size() && ib < lane.size() && lane.placed(ia) &&
          lane.placed(ib)) {
        ++direct_hits_;
        return lane.distance(ia, ib);
      }
    }
  }
  const std::optional<double> fb = fallback_.estimate_rtt(a, b, now_s);
  if (fb.has_value())
    ++fallback_hits_;
  else
    ++misses_;
  return fb;
}

EstimatorStats SnapshotEstimator::stats() const {
  EstimatorStats s = fallback_.stats();
  // The fallback's query-side counters reflect only delegated queries;
  // replace them with this backend's own coverage view.
  s.queries = queries_;
  s.direct_hits = direct_hits_;
  s.fallback_hits = fallback_hits_;
  s.misses = misses_;
  return s;
}

}  // namespace nc::est
