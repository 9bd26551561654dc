// NCClient: the complete per-node coordinate subsystem as a black box
// (paper Sec. V intro): raw RTT samples go in; a stable application
// coordinate plus a continuously-evolving system coordinate come out.
//
// Pipeline per observation of remote node j:
//   raw rtt --(per-link LatencyFilter)--> filtered rtt
//           --(Vivaldi update)----------> system coordinate c_s
//           --(UpdateHeuristic)---------> application coordinate c_a
//
// The client also tracks the approximate nearest neighbor (lowest filtered
// RTT seen so far), which the RELATIVE heuristic uses as its local scale,
// and caps per-link filter state with clock-hand (second-chance) eviction
// so that gossip-discovered neighbor churn cannot grow memory without
// bound: each observation sets the link's reference bit, and when the slab
// is full a circular hand sweeps slots, clearing set bits and evicting the
// first unreferenced link it finds — O(1) amortized instead of the
// O(max_tracked_links) oldest-timestamp scan it replaces.
//
// Per-link state is SLAB-allocated (PR 5): a remote-id -> slot index
// replaces the per-observation hash lookup that topped the profile
// (~16% of an online run, find + first-contact filter allocation in
// link_for), and evicted slots return their filter instance to a per-client
// pool (reset, not destroyed), so steady-state neighbor churn allocates
// nothing.
//
// The index itself is COMPACT (PR 7): a CompactSlotIndex bounded by the
// live link count instead of the dense array that grew to the largest
// remote id seen. The dense form made aggregate index memory O(n^2) across
// n clients — the last O(n) per-client state standing between the engine
// and 100k+-node runs — where the compact table is O(max_tracked_links)
// because eviction unhooks its entry, so the table can never outgrow the
// slab it points into.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/compact_index.hpp"
#include "core/coordinate.hpp"
#include "core/filters/filter_config.hpp"
#include "core/heuristics/heuristic_config.hpp"
#include "core/node_id.hpp"
#include "core/vivaldi.hpp"

namespace nc {

struct NCClientConfig {
  VivaldiConfig vivaldi;
  FilterConfig filter;          // default: MP(4, 25)
  HeuristicConfig heuristic;    // default: ENERGY(tau=8, k=32)
  /// Maximum remote nodes with live filter state; 0 = unbounded.
  std::size_t max_tracked_links = 8192;
};

/// What one call to observe() did.
struct ObservationOutcome {
  /// Filter output fed to Vivaldi; nullopt if the sample was absorbed
  /// (filter not yet primed, or rejected by a threshold filter).
  std::optional<double> filtered_rtt_ms;
  /// True when Vivaldi ran (filtered_rtt_ms engaged).
  bool vivaldi_updated = false;
  /// Relative error of the Vivaldi sample (against the filtered rtt).
  double sample_relative_error = 0.0;
  /// How far the system coordinate moved (ms), for stability accounting.
  double system_displacement_ms = 0.0;
  /// True when the application coordinate changed this observation.
  bool app_updated = false;
  /// How far the application coordinate moved (0 unless app_updated).
  double app_displacement_ms = 0.0;
};

class NCClient {
 public:
  NCClient(NodeId id, const NCClientConfig& config);

  /// Feeds one latency observation of `remote` (its advertised coordinate
  /// and error estimate plus a raw RTT sample), advancing all three stages.
  ObservationOutcome observe(NodeId remote, const Coordinate& remote_coord,
                             double remote_error, double raw_rtt_ms, double now_s);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const Coordinate& system_coordinate() const noexcept {
    return vivaldi_.coordinate();
  }
  /// The stable coordinate applications should use. Equals the system
  /// coordinate until the first Vivaldi update, then evolves per heuristic.
  [[nodiscard]] const Coordinate& application_coordinate() const noexcept {
    return app_initialized_ ? app_coord_ : vivaldi_.coordinate();
  }
  [[nodiscard]] double error_estimate() const noexcept { return vivaldi_.error_estimate(); }
  [[nodiscard]] double confidence() const noexcept { return vivaldi_.confidence(); }
  /// Error estimate AS OF the last application-coordinate update — the
  /// value that describes application_coordinate(), where error_estimate()
  /// describes the continuously-moving system coordinate. Equals the live
  /// estimate until the first update (same fallback as
  /// application_coordinate()). Published snapshots carry this pair, so a
  /// node's published state only changes when its application state does.
  [[nodiscard]] double app_error() const noexcept {
    return app_initialized_ ? app_error_ : vivaldi_.error_estimate();
  }
  [[nodiscard]] double app_confidence() const noexcept { return 1.0 - app_error(); }

  /// Approximate nearest neighbor by filtered RTT, if any sample passed the
  /// filter yet.
  [[nodiscard]] std::optional<NodeId> nearest_neighbor() const noexcept {
    if (nearest_id_ == kInvalidNode) return std::nullopt;
    return nearest_id_;
  }
  [[nodiscard]] double nearest_rtt_ms() const noexcept { return nearest_rtt_ms_; }

  [[nodiscard]] std::uint64_t observation_count() const noexcept { return observations_; }
  [[nodiscard]] std::uint64_t app_update_count() const noexcept { return app_updates_; }
  [[nodiscard]] std::uint64_t absorbed_sample_count() const noexcept { return absorbed_; }
  [[nodiscard]] std::size_t tracked_link_count() const noexcept { return active_links_; }
  [[nodiscard]] std::uint64_t evicted_link_count() const noexcept { return evictions_; }
  /// Filter instances parked in the reuse pool (free slab slots).
  [[nodiscard]] std::size_t pooled_filter_count() const noexcept {
    return free_slots_.size();
  }

  [[nodiscard]] const NCClientConfig& config() const noexcept { return config_; }

  /// Bytes of per-client state (slab + filters + id maps), for the per-run
  /// memory budget report.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// 16 bytes per link: only what observe() and eviction read. (The
  /// remote's coordinate travels with each observation; it is not kept.)
  struct LinkState {
    std::unique_ptr<LatencyFilter> filter;
    /// Which remote occupies this slab slot; kInvalidNode = free (filter
    /// parked for reuse).
    NodeId remote = kInvalidNode;
    /// Second-chance reference bit: set on every observation of the link,
    /// cleared as the eviction hand sweeps past.
    std::uint8_t ref = 0;
  };

  LinkState& link_for(NodeId remote);
  void evict_one_link();

  NodeId id_;
  NCClientConfig config_;
  Vivaldi vivaldi_;
  std::unique_ptr<UpdateHeuristic> heuristic_;
  Coordinate app_coord_;
  double app_error_ = 1.0;  // error_estimate() at the last app update
  bool app_initialized_ = false;

  /// Slab of link states; active count bounded by max_tracked_links.
  std::vector<LinkState> slab_;
  /// remote id -> slab slot, bounded by the live link count (eviction
  /// erases its entry) — O(max_tracked_links) bytes regardless of how many
  /// distinct remotes the client ever hears about.
  CompactSlotIndex slot_of_;
  /// Recycled slab slots, filters parked inside (reset on reuse).
  std::vector<std::uint32_t> free_slots_;
  /// Clock-hand position of the second-chance eviction sweep.
  std::size_t clock_hand_ = 0;
  std::size_t active_links_ = 0;
  NodeId nearest_id_ = kInvalidNode;
  double nearest_rtt_ms_ = 0.0;
  Coordinate nearest_coord_;

  std::uint64_t observations_ = 0;
  std::uint64_t app_updates_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nc
