#include "open_loop.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

/// Stream tag for the client's draws ("pbcl").
constexpr std::uint64_t kClientStream = 0x7062636cULL;

/// A gap this long between two clock reads of the spin-wait is a host
/// stall: one pass of the loop takes a few tens of nanoseconds.
constexpr std::int64_t kStallNs = 1000;

std::int64_t ns_since(Clock::time_point t0) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Percentile of the samples at `idx` positions of `src` whose kind
/// matches (`kind` < 0: every sample), via the reusable scratch buffer.
double select_percentile(const std::vector<double>& src,
                         const std::vector<std::uint8_t>& kinds,
                         std::size_t begin, std::size_t end, int kind, double p,
                         std::vector<double>& scratch) {
  scratch.clear();
  for (std::size_t i = begin; i < end; ++i)
    if (kind < 0 || kinds[i] == kind) scratch.push_back(src[i]);
  if (scratch.empty()) return std::numeric_limits<double>::quiet_NaN();
  return percentile(scratch, p);
}

}  // namespace

OpenLoopClient::OpenLoopClient(std::uint64_t seed, int num_nodes,
                               std::size_t max_samples)
    : num_nodes_(num_nodes),
      rng_(nc::Rng::derived(seed, kClientStream)),
      latency_us_(max_samples, 0.0),
      service_us_(max_samples, 0.0),
      late_us_(max_samples, 0.0),
      kind_(max_samples, 0),
      scratch_(max_samples, 0.0) {
  placed_.reserve(static_cast<std::size_t>(num_nodes));
}

void OpenLoopClient::attach(const nc::est::SnapshotPublisher* publisher) {
  if (view_) {
    retired_full_rebuilds_ += view_->full_rebuilds();
    retired_delta_refreshes_ += view_->delta_refreshes();
  }
  publisher_ = publisher;
  service_ = std::make_unique<nc::serve::CoordinateService>(publisher, num_nodes_);
  view_ = std::make_unique<nc::est::SnapshotView>(publisher);
  seen_version_ = 0;
  placed_.clear();
}

std::uint64_t OpenLoopClient::full_rebuilds() const noexcept {
  return retired_full_rebuilds_ + (view_ ? view_->full_rebuilds() : 0);
}
std::uint64_t OpenLoopClient::delta_refreshes() const noexcept {
  return retired_delta_refreshes_ + (view_ ? view_->delta_refreshes() : 0);
}

void OpenLoopClient::refresh_view() {
  const auto t0 = Clock::now();
  const nc::est::EpochSnapshot* snap = view_->refresh();
  refresh_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
  ++refreshes_;
  if (snap == nullptr) return;
  seen_version_ = snap->version;
  // Placement never reverts, so once every node is placed the list is final.
  if (placed_.size() == snap->nodes.size()) return;
  placed_.clear();
  for (std::size_t i = 0; i < snap->nodes.size(); ++i)
    if (snap->nodes[i].placed()) placed_.push_back(static_cast<nc::NodeId>(i));
}

bool OpenLoopClient::wait_ready(const std::atomic<bool>* abort) {
  for (;;) {
    if (publisher_->published() != seen_version_) refresh_view();
    if (2 * placed_.size() >= static_cast<std::size_t>(num_nodes_)) return true;
    if (abort != nullptr && abort->load(std::memory_order_acquire)) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

nc::NodeId OpenLoopClient::pick() noexcept {
  return placed_[static_cast<std::size_t>(rng_.uniform_int(placed_.size()))];
}

void OpenLoopClient::draw(Query& q) noexcept {
  const double u = rng_.uniform();
  if (u < mix_.mix.nearest_k) {
    q.kind = kNearest;
    q.a = pick();
  } else if (u < mix_.mix.nearest_k + mix_.mix.centroid) {
    q.kind = kCentroid;
    q.group.resize(static_cast<std::size_t>(mix_.centroid_size));
    for (nc::NodeId& id : q.group) id = pick();
  } else {
    q.kind = kDistance;
    q.a = pick();
    do q.b = pick(); while (q.b == q.a);
  }
}

bool OpenLoopClient::execute(const Query& q) {
  switch (q.kind) {
    case kNearest:
      service_->nearest_k(q.a, mix_.k, neighbors_);
      return !neighbors_.empty();
    case kCentroid:
      return service_->centroid(q.group).has_value();
    default:
      return service_->distance_ms(q.a, q.b).has_value();
  }
}

ProbeSummary OpenLoopClient::probe(double rate_qps, double seconds,
                                   bool detail,
                                   const std::atomic<bool>* abort) {
  if (placed_.size() < 2) throw std::logic_error("probe before wait_ready");
  ProbeSummary s;
  s.rate_qps = rate_qps;
  const double mean_gap_ns = 1e9 / rate_qps;
  const double end_ns = seconds * 1e9;
  const std::size_t cap = latency_us_.size();
  Query q;
  draw(q);
  std::size_t n = 0;
  stalls_.reset();
  const auto t0 = Clock::now();
  double due_ns = rng_.exponential(1.0) * mean_gap_ns;
  while (due_ns < end_ns) {
    if (n == cap) {
      s.overflow = true;  // a rate beyond any this benchmark searches
      break;
    }
    std::int64_t issue_ns = ns_since(t0);
    for (std::int64_t prev = issue_ns; static_cast<double>(issue_ns) < due_ns;
         prev = issue_ns) {
      issue_ns = ns_since(t0);
      if (issue_ns - prev > kStallNs)
        stalls_.record(static_cast<double>(prev), static_cast<double>(issue_ns));
    }
    // A client that fell behind stops at the window's end instead of
    // draining the arrivals it owes; its lateness already shows the backlog.
    if (static_cast<double>(issue_ns) >= end_ns) break;
    const bool answered = execute(q);
    const std::int64_t done_ns = ns_since(t0);

    const double stalled_ns = stalls_.overlap(due_ns, static_cast<double>(issue_ns));
    latency_us_[n] = (static_cast<double>(done_ns) - due_ns - stalled_ns) / 1e3;
    late_us_[n] = (static_cast<double>(issue_ns) - due_ns) / 1e3;
    service_us_[n] = static_cast<double>(done_ns - issue_ns) / 1e3;
    kind_[n] = static_cast<std::uint8_t>(q.kind);
    ++s.count[q.kind];
    ++n;
    if (!answered) ++s.empty;

    if (publisher_->published() != seen_version_) refresh_view();
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      s.aborted = true;
      break;
    }
    draw(q);
    due_ns += rng_.exponential(1.0) * mean_gap_ns;
  }
  s.wall_s = static_cast<double>(ns_since(t0)) / 1e9;
  s.issued = n;
  s.answered = n - s.empty;
  s.stalls = stalls_.count();
  s.stalled_s = stalls_.total() / 1e9;
  if (n == 0) {
    s.aborted = true;
    return s;
  }

  for (std::size_t i = 0; i < n; ++i) s.service_busy_s += service_us_[i];
  s.service_busy_s /= 1e6;
  s.latency_p99_us = select_percentile(latency_us_, kind_, 0, n, -1, 99.0, scratch_);
  s.late_tail_p50_us =
      select_percentile(late_us_, kind_, n - n / 10 - 1, n, -1, 50.0, scratch_);
  if (detail) {
    for (int k = 0; k < kKinds; ++k) {
      s.latency_p50_us[k] =
          select_percentile(latency_us_, kind_, 0, n, k, 50.0, scratch_);
      s.service_p50_us[k] =
          select_percentile(service_us_, kind_, 0, n, k, 50.0, scratch_);
      s.service_p99_us[k] =
          select_percentile(service_us_, kind_, 0, n, k, 99.0, scratch_);
    }
    s.late_p99_us = select_percentile(late_us_, kind_, 0, n, -1, 99.0, scratch_);
  }
  return s;
}

}  // namespace pb
