#include "core/nc_client.hpp"

#include "common/check.hpp"

namespace nc {

NCClient::NCClient(NodeId id, const NCClientConfig& config)
    : id_(id),
      config_(config),
      vivaldi_(config.vivaldi, static_cast<std::uint64_t>(id)),
      heuristic_(config.heuristic.make()) {}

NCClient::LinkState& NCClient::link_for(NodeId remote) {
  const auto rid = static_cast<std::uint32_t>(remote);
  if (const auto slot = slot_of_.find(rid); slot.has_value())
    return slab_[*slot];

  // First contact (or re-contact after eviction): claim a slab slot.
  if (config_.max_tracked_links > 0 &&
      active_links_ >= config_.max_tracked_links) {
    evict_one_link();
  }
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    // Reuse the parked slot: reset its filter instead of allocating a fresh
    // one — a reset filter is behaviorally identical to a clone()d one
    // (pinned by NCClient.SlabLinkStateMatchesMapReference).
    idx = free_slots_.back();
    free_slots_.pop_back();
    LinkState& s = slab_[idx];
    s.filter->reset();
  } else {
    slab_.push_back(LinkState{config_.filter.make(), kInvalidNode, 0});
    idx = static_cast<std::uint32_t>(slab_.size() - 1);
  }
  LinkState& s = slab_[idx];
  s.remote = remote;
  s.ref = 1;
  slot_of_.insert(rid, idx);
  ++active_links_;
  return s;
}

void NCClient::evict_one_link() {
  // Clock-hand (second-chance) sweep: links observed since the hand last
  // passed get their reference bit cleared and survive; the first slot found
  // unreferenced is evicted. Amortized O(1) per eviction — the old oldest-
  // timestamp scan paid O(max_tracked_links) every time. Two full passes
  // bound the loop: after one pass every ref bit is clear, so the second
  // pass must evict (the slab holds at least one active slot here).
  if (active_links_ == 0) return;
  for (std::size_t step = 0; step < 2 * slab_.size(); ++step) {
    if (clock_hand_ >= slab_.size()) clock_hand_ = 0;
    LinkState& s = slab_[clock_hand_++];
    if (s.remote == kInvalidNode) continue;  // parked slot
    if (s.ref != 0) {
      s.ref = 0;  // second chance
      continue;
    }
    if (s.remote == nearest_id_) nearest_id_ = kInvalidNode;
    // Unhook the index entry: this is what keeps the compact table bounded
    // by the slab instead of by the distinct-remote count.
    slot_of_.erase(static_cast<std::uint32_t>(s.remote));
    s.remote = kInvalidNode;
    free_slots_.push_back(static_cast<std::uint32_t>(clock_hand_ - 1));
    --active_links_;
    ++evictions_;
    return;
  }
  NC_CHECK_MSG(false, "clock-hand sweep found no victim in two passes");
}

ObservationOutcome NCClient::observe(NodeId remote, const Coordinate& remote_coord,
                                     double remote_error, double raw_rtt_ms,
                                     double now_s) {
  NC_CHECK_MSG(remote != id_, "node observed itself");
  NC_CHECK_MSG(raw_rtt_ms > 0.0, "rtt must be positive");
  ++observations_;

  ObservationOutcome out;
  LinkState& link = link_for(remote);
  link.ref = 1;

  out.filtered_rtt_ms = link.filter->update(raw_rtt_ms);
  if (!out.filtered_rtt_ms.has_value()) {
    ++absorbed_;
    return out;
  }
  const double filtered = *out.filtered_rtt_ms;

  // Approximate nearest neighbor by filtered RTT. Re-observing the current
  // nearest refreshes its value and coordinate even if the link got slower;
  // this keeps the scale honest without scanning all links.
  if (nearest_id_ == kInvalidNode || filtered <= nearest_rtt_ms_ ||
      remote == nearest_id_) {
    nearest_id_ = remote;
    nearest_rtt_ms_ = filtered;
    nearest_coord_ = remote_coord;
  }

  const VivaldiSample sample = vivaldi_.observe(remote_coord, remote_error, filtered);
  out.vivaldi_updated = true;
  out.sample_relative_error = sample.relative_error;
  out.system_displacement_ms = sample.displacement_ms;

  if (!app_initialized_) {
    // First usable sample: seed the application coordinate so callers always
    // have something consistent, then let the heuristic take over.
    app_coord_ = vivaldi_.coordinate();
    app_error_ = vivaldi_.error_estimate();
    app_initialized_ = true;
    out.app_updated = true;
    out.app_displacement_ms = 0.0;  // seeded from origin-adjacent state
    ++app_updates_;
    return out;
  }

  const UpdateContext ctx{
      .system = vivaldi_.coordinate(),
      .nearest = nearest_coord_.initialized() ? &nearest_coord_ : nullptr,
      .now_s = now_s,
  };
  const Coordinate app_before = app_coord_;
  out.app_updated = heuristic_->on_system_update(ctx, app_coord_);
  if (out.app_updated) {
    out.app_displacement_ms = app_coord_.displacement_from(app_before);
    app_error_ = vivaldi_.error_estimate();
    ++app_updates_;
  }
  return out;
}

std::size_t NCClient::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this) + slab_.capacity() * sizeof(LinkState) +
                      slot_of_.memory_bytes() +
                      free_slots_.capacity() * sizeof(std::uint32_t);
  // Parked filters stay allocated (that is the point of the pool), so every
  // slab slot's filter counts whether or not a remote occupies it.
  for (const LinkState& s : slab_)
    if (s.filter) bytes += s.filter->memory_bytes();
  return bytes;
}

}  // namespace nc
