// SnapshotEstimator: answer latency queries from published epoch snapshots.
//
// The backend the serving layer runs on. Instead of tracking coordinates
// off the observation stream itself, it holds a SnapshotView onto a
// SnapshotPublisher — refreshed once per query, which is a cached-version
// no-op between publishes, a pointer copy in full mode, and an O(changed
// slots) delta apply in delta mode — and answers estimate_rtt(a, b) with
// the coordinate distance between the two published entries, read from the
// snapshot's packed PositionLane (bit-identical to distance_to on the
// records). That decouples readers from engine internals completely: each
// estimator instance queries from its own thread at any time, and what it
// sees is a consistent epoch-boundary view (a's and b's coordinates from
// the SAME epoch, never a torn mix). Like the view it wraps, an estimator instance is NOT
// internally synchronized — one instance per reader thread (exactly how the
// engine's per-shard and the service's per-thread instances are deployed).
//
// Fallback: before the first publish — and for nodes not yet placed in the
// snapshot — the backend falls back to a CoordinateEstimator cache fed from
// its own observation stream, exactly like IDMS falls back to coordinates.
// Inside the engine this guarantees the invariant on_delivered_pong relies
// on: right after on_observation(src, dst, ...) the pair always has an
// estimate (the fallback just cached both endpoints).
//
// Determinism: used as the engine's scoring backend (--backend=snapshot),
// results stay bit-identical at any shard count. Snapshots are published
// at epoch boundaries from barrier-ordered state, so every shard's
// processing phase of epoch k sees the same snapshot (the boundary-k view)
// regardless of W, and the fallback cache is fed in the shard's canonical
// observation order like any other backend.
#pragma once

#include "estimate/coordinate_estimator.hpp"
#include "estimate/latency_estimator.hpp"
#include "estimate/snapshot.hpp"

namespace nc::est {

struct SnapshotEstimatorConfig {
  /// Staleness horizon applied to the fallback cache (the snapshot itself
  /// is always current — the engine republishes every epoch).
  double max_age_s = 600.0;
};

class SnapshotEstimator final : public LatencyEstimator {
 public:
  /// `source` must outlive the estimator and may be shared with any number
  /// of concurrent readers; nullptr is allowed (everything falls back).
  SnapshotEstimator(const SnapshotEstimatorConfig& config,
                    const SnapshotPublisher* source, int num_nodes);

  void on_observation(const LatencyObservation& obs) override;
  [[nodiscard]] std::optional<double> estimate_rtt(NodeId a, NodeId b,
                                                   double now_s) override;
  [[nodiscard]] const char* name() const noexcept override {
    return "snapshot";
  }
  /// Coverage counters are this backend's own (direct = answered from the
  /// snapshot); state/traffic accounting is the fallback cache's — the
  /// shared snapshot's bytes belong to its publisher (the engine budgets
  /// them as snapshot_bytes), and counting it per shard instance would make
  /// the summed stats depend on the shard count.
  [[nodiscard]] EstimatorStats stats() const override;

  /// The materialized view queries are answered from — shared with callers
  /// (CoordinateService's scans) so estimator and scan always agree on the
  /// epoch. Same thread contract as the estimator itself.
  [[nodiscard]] SnapshotView& view() noexcept { return view_; }

 private:
  SnapshotView view_;
  CoordinateEstimator fallback_;

  std::uint64_t queries_ = 0;
  std::uint64_t direct_hits_ = 0;
  std::uint64_t fallback_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nc::est
