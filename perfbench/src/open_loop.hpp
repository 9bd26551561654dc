// The benchmark's open-loop query client for serve::CoordinateService.
//
// One thread, one service instance. Arrivals follow a Poisson schedule at
// the offered rate, independent of when earlier queries finish; the client
// SPINS to each due time rather than sleeping (a sleep_until wake-up is
// tens of microseconds late, which would swamp a 0.2 us distance query),
// and every latency is measured from the due time, so waiting behind an
// earlier query is charged to every query it delays. Time the host took the
// vCPU away during the spin (StallLog in stats.hpp) is not charged: it is
// the host's, not the program's. How late the client itself issued is
// recorded too, stalls included.
//
// Operands are drawn only from nodes that the client's own SnapshotView
// shows as placed, so every query has an answer; an empty answer is a
// failure. The view is refreshed whenever the publisher's version moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "estimate/snapshot.hpp"
#include "serve/coordinate_service.hpp"
#include "serve/load_generator.hpp"
#include "stats.hpp"

namespace pb {

enum QueryKind : int { kDistance = 0, kNearest = 1, kCentroid = 2, kKinds = 3 };

/// Percentiles of one probe. Latencies run from the due time to the answer,
/// less the host stalls seen while waiting; service times from the actual
/// issue to the answer. A kind without samples reports NaN.
struct ProbeSummary {
  double rate_qps = 0.0;
  double wall_s = 0.0;
  bool aborted = false;   // stopped early (engine round ended)
  bool overflow = false;  // more arrivals than the sample buffers hold
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t empty = 0;
  std::uint64_t count[kKinds] = {0, 0, 0};
  double latency_p50_us[kKinds] = {0, 0, 0};
  double latency_p99_us = 0.0;  // all kinds together
  double service_p50_us[kKinds] = {0, 0, 0};
  double service_p99_us[kKinds] = {0, 0, 0};
  double late_p99_us = 0.0;        // issue - due
  double late_tail_p50_us = 0.0;   // issue - due, median of the last tenth
  double service_busy_s = 0.0;     // sum of service times
  std::uint64_t stalls = 0;        // host stalls seen in the spin-wait
  double stalled_s = 0.0;          // their total length
};

class OpenLoopClient {
 public:
  /// `max_samples` bounds one probe's query count; the sample buffers are
  /// allocated and touched here, so a run's peak memory does not depend on
  /// which rates its search happened to probe.
  OpenLoopClient(std::uint64_t seed, int num_nodes, std::size_t max_samples);

  /// Points the client at a publisher (a fresh engine round): a new service
  /// instance and a new view.
  void attach(const nc::est::SnapshotPublisher* publisher);

  /// Waits until the view shows at least half the nodes placed, or `abort`
  /// is raised. Returns false on abort.
  bool wait_ready(const std::atomic<bool>* abort);

  /// Offers `rate_qps` for `seconds`. `detail` adds per-kind service-time
  /// and lateness percentiles (search probes only need the p99 and the
  /// backlog). Stops early, marked aborted, when `abort` is raised.
  ProbeSummary probe(double rate_qps, double seconds, bool detail,
                     const std::atomic<bool>* abort);

  /// The client's own SnapshotView refreshes: count, total seconds inside
  /// refresh(), and the view's full-rebuild / delta counters summed over
  /// attached publishers.
  [[nodiscard]] std::uint64_t refreshes() const noexcept { return refreshes_; }
  [[nodiscard]] double refresh_s() const noexcept { return refresh_s_; }
  [[nodiscard]] std::uint64_t full_rebuilds() const noexcept;
  [[nodiscard]] std::uint64_t delta_refreshes() const noexcept;

 private:
  struct Query {
    QueryKind kind = kDistance;
    nc::NodeId a = 0;
    nc::NodeId b = 0;
    std::vector<nc::NodeId> group;
  };

  void refresh_view();
  [[nodiscard]] nc::NodeId pick() noexcept;
  void draw(Query& q) noexcept;
  bool execute(const Query& q);

  int num_nodes_;
  nc::serve::LoadConfig mix_;  // the library's default query mix
  nc::Rng rng_;
  const nc::est::SnapshotPublisher* publisher_ = nullptr;
  std::unique_ptr<nc::serve::CoordinateService> service_;
  std::unique_ptr<nc::est::SnapshotView> view_;
  std::uint64_t seen_version_ = 0;
  std::vector<nc::NodeId> placed_;
  std::vector<nc::serve::CoordinateService::Neighbor> neighbors_;
  StallLog stalls_;

  std::uint64_t refreshes_ = 0;
  double refresh_s_ = 0.0;
  std::uint64_t retired_full_rebuilds_ = 0;
  std::uint64_t retired_delta_refreshes_ = 0;

  // Per-query samples of the current probe, preallocated.
  std::vector<double> latency_us_;
  std::vector<double> service_us_;
  std::vector<double> late_us_;
  std::vector<std::uint8_t> kind_;
  std::vector<double> scratch_;
};

}  // namespace pb
