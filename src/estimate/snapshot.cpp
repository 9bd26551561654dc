#include "estimate/snapshot.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.hpp"

namespace nc::est {

namespace {

/// Retired FULL buffers kept warm per publisher. More than (readers +
/// writer) buffers can only pile up transiently; beyond this the pool frees
/// them.
constexpr std::size_t kMaxPooledBuffers = 8;

/// Wire-format header for the publish-byte accounting: a base ships
/// {version, t_s, count} + packed nodes (a delta additionally carries its
/// base_version — SnapshotDelta::wire_bytes matches).
constexpr std::uint64_t kBaseHeaderBytes = 24;

std::uint64_t base_wire_bytes(std::size_t num_nodes) noexcept {
  return kBaseHeaderBytes + num_nodes * sizeof(SnapshotNode);
}

}  // namespace

void PositionLane::reshape(int dim, bool has_height) {
  dim_ = dim;
  has_height_ = has_height;
  placed_ = 0;
  rows_.assign(size() * stride(), 0.0);
  std::fill(state_.begin(), state_.end(), std::uint8_t{kUnplaced});
}

void PositionLane::write(std::size_t slot, const SnapshotNode& node) {
  double* row = rows_.data() + slot * stride();
  if (!node.placed()) {
    std::fill(row, row + stride(), 0.0);
    state_[slot] = kUnplaced;
    return;
  }
  const Coordinate& app = node.app;
  NC_CHECK_MSG(app.dim() == dim_ && app.has_height() == has_height_,
               "snapshot mixes coordinate dimensions or height models");
  // Nearest-k's pruning relies on rtt >= sqrt(acc), i.e. on h >= 0.
  NC_CHECK_MSG(app.height() >= 0.0, "negative height in a snapshot");
  for (int c = 0; c < dim_; ++c) row[c] = app.position()[c];
  row[dim_] = app.height();
  state_[slot] = node.up != 0 ? kUp : kDown;
  ++placed_;
}

void PositionLane::build(const std::vector<SnapshotNode>& nodes) {
  const auto first =
      std::find_if(nodes.begin(), nodes.end(),
                   [](const SnapshotNode& x) { return x.placed(); });
  dim_ = first == nodes.end() ? 0 : first->app.dim();
  has_height_ = first != nodes.end() && first->app.has_height();
  placed_ = 0;
  state_.resize(nodes.size());
  rows_.resize(nodes.size() * stride());
  for (std::size_t i = 0; i < nodes.size(); ++i) write(i, nodes[i]);
}

void PositionLane::set(std::size_t slot, const SnapshotNode& node) {
  NC_CHECK_MSG(slot < size(), "lane slot out of range");
  if (placed(slot)) {
    write(slot, SnapshotNode{});  // zero the old value
    --placed_;
  }
  if (placed_ == 0) {
    // With no other slot placed the lane takes this node's model (none when
    // it is unplaced), so a patched lane equals one built from its nodes.
    const int dim = node.placed() ? node.app.dim() : 0;
    const bool height = node.placed() && node.app.has_height();
    if (dim != dim_ || height != has_height_) reshape(dim, height);
  }
  if (node.placed()) write(slot, node);
}

SnapshotPublisher::SnapshotPublisher()
    : pool_(std::make_shared<BufferPool>()),
      delta_pool_(std::make_shared<DeltaPool>()) {}

void SnapshotPublisher::enable_deltas(int base_interval, int num_lanes) {
  NC_CHECK_MSG(base_interval >= 1, "base_interval must be >= 1");
  NC_CHECK_MSG(num_lanes >= 1, "num_lanes must be >= 1");
  NC_CHECK_MSG(versions_.load(std::memory_order_relaxed) == 0,
               "enable_deltas() must precede the first publish");
  base_interval_ = base_interval;
  lanes_.resize(static_cast<std::size_t>(num_lanes));
  // A base publish prunes up to base_interval chain entries in one burst;
  // size the pool to absorb it so steady-state publishing never allocates
  // after the first base cycle.
  delta_pool_->max_pooled = static_cast<std::size_t>(base_interval) + 4;
}

EpochSnapshot& SnapshotPublisher::staging(int num_nodes) {
  NC_CHECK_MSG(num_nodes >= 0, "negative snapshot size");
  if (!staging_) {
    std::lock_guard<std::mutex> lock(pool_->mu);
    if (!pool_->free.empty()) {
      staging_ = std::move(pool_->free.back());
      pool_->free.pop_back();
    }
  }
  if (!staging_) {
    staging_ = std::make_unique<EpochSnapshot>();
    ++base_allocs_;
  }
  staging_->nodes.resize(static_cast<std::size_t>(num_nodes));
  return *staging_;
}

std::shared_ptr<const SnapshotDelta> SnapshotPublisher::build_delta(
    std::uint64_t version, double t_s) {
  std::unique_ptr<SnapshotDelta> d;
  {
    std::lock_guard<std::mutex> lock(delta_pool_->mu);
    if (!delta_pool_->free.empty()) {
      d = std::move(delta_pool_->free.back());
      delta_pool_->free.pop_back();
    }
  }
  if (!d) {
    d = std::make_unique<SnapshotDelta>();
    ++delta_allocs_;
  }
  d->version = version;
  d->base_version = last_base_version_;  // newest base BEFORE this publish
  d->t_s = t_s;
  d->entries.clear();
  for (const auto& lane : lanes_)
    d->entries.insert(d->entries.end(), lane.begin(), lane.end());
  // Lanes hold disjoint owned slots, but ownership (and hence lane order)
  // is arbitrary under rebalancing — sort once here so readers apply, and
  // the bit-identity tests compare, a canonical slot-ascending record.
  std::sort(d->entries.begin(), d->entries.end(),
            [](const SnapshotDeltaEntry& a, const SnapshotDeltaEntry& b) {
              return a.slot < b.slot;
            });
  // Same deleter shape as the full buffers: the POOL is captured, so the
  // last holder — possibly a reader after publisher teardown — recycles the
  // delta under the pool mutex instead of freeing it.
  std::shared_ptr<DeltaPool> pool = delta_pool_;
  return std::shared_ptr<const SnapshotDelta>(
      d.release(), [pool](const SnapshotDelta* p) {
        std::unique_ptr<SnapshotDelta> owned(const_cast<SnapshotDelta*>(p));
        std::lock_guard<std::mutex> lock(pool->mu);
        if (pool->free.size() < pool->max_pooled)
          pool->free.push_back(std::move(owned));
      });
}

void SnapshotPublisher::publish(double t_s) {
  const std::uint64_t version = versions_.load(std::memory_order_relaxed) + 1;
  const bool ship_base = next_is_base();
  std::shared_ptr<const EpochSnapshot> snap;
  if (ship_base) {
    NC_CHECK_MSG(staging_ != nullptr, "publish() without staging()");
    staging_->version = version;
    staging_->t_s = t_s;
    staging_->lane.build(staging_->nodes);
    published_base_bytes_ += base_wire_bytes(staging_->nodes.size());
    ++base_publishes_;
    // The deleter captures the POOL, not the publisher: the last holder of a
    // snapshot — a reader thread, possibly after the publisher is destroyed —
    // recycles the buffer under the pool mutex instead of freeing it.
    std::shared_ptr<BufferPool> pool = pool_;
    snap = std::shared_ptr<const EpochSnapshot>(
        staging_.release(), [pool](const EpochSnapshot* s) {
          std::unique_ptr<EpochSnapshot> buf(const_cast<EpochSnapshot*>(s));
          std::lock_guard<std::mutex> lock(pool->mu);
          if (pool->free.size() < kMaxPooledBuffers)
            pool->free.push_back(std::move(buf));
        });
  }

  if (delta_mode()) {
    std::shared_ptr<const SnapshotDelta> delta = build_delta(version, t_s);
    published_delta_bytes_ += delta->wire_bytes();
    for (auto& lane : lanes_) lane.clear();
    // Chain entries pruned at a base are collected into `retired` and
    // released OUTSIDE the lock: their deleter takes the delta-pool mutex,
    // which must never nest inside latest_mu_'s pointer-sized section.
    std::vector<std::shared_ptr<const SnapshotDelta>> retired;
    {
      std::lock_guard<std::mutex> lock(latest_mu_);
      chain_.push_back(std::move(delta));
      if (ship_base) {
        latest_ = std::move(snap);
        // The chain keeps reaching back to the PREVIOUS base: a reader who
        // last refreshed anywhere in the last base cycle still catches up
        // incrementally across this boundary.
        const std::uint64_t prune_floor = last_base_version_;
        prev_base_version_ = last_base_version_;
        last_base_version_ = version;
        auto keep = chain_.begin();
        while (keep != chain_.end() && (*keep)->version <= prune_floor) ++keep;
        retired.assign(std::make_move_iterator(chain_.begin()),
                       std::make_move_iterator(keep));
        chain_.erase(chain_.begin(), keep);
      }
    }
    retired.clear();
    ++publish_seq_;
    if (ship_base) force_base_ = false;
  } else {
    // The mutex hand-off orders every slot the writer (and, in the engine,
    // the barrier-ordered shard slices) filled before any reader's copy; the
    // critical section is one pointer move.
    std::lock_guard<std::mutex> lock(latest_mu_);
    latest_ = std::move(snap);
  }
  // Bumped AFTER the slot swap: published() >= v guarantees latest() (and
  // catch_up()) already serve version >= v (the monotonicity tests poll
  // exactly this way).
  versions_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const EpochSnapshot> SnapshotPublisher::latest() const {
  std::lock_guard<std::mutex> lock(latest_mu_);
  return latest_;
}

bool SnapshotPublisher::catch_up(
    std::uint64_t have_version, bool materialized,
    std::shared_ptr<const EpochSnapshot>& base,
    std::vector<std::shared_ptr<const SnapshotDelta>>& deltas) const {
  base.reset();
  deltas.clear();
  std::lock_guard<std::mutex> lock(latest_mu_);
  if (chain_.empty()) {
    base = latest_;  // nothing published yet, or full mode
    return false;
  }
  // The chain covers (prev_base_version_, latest]; a materialized reader
  // inside that window tops up with exactly the deltas it is missing.
  if (materialized && have_version >= prev_base_version_) {
    for (const auto& d : chain_)
      if (d->version > have_version) deltas.push_back(d);
    return true;
  }
  base = latest_;
  if (base)
    for (const auto& d : chain_)
      if (d->version > base->version) deltas.push_back(d);
  return false;
}

std::uint64_t SnapshotPublisher::base_memory_bytes() const {
  std::uint64_t total = 0;
  if (staging_) total += staging_->memory_bytes();
  {
    std::lock_guard<std::mutex> lock(latest_mu_);
    if (latest_) total += latest_->memory_bytes();
  }
  std::lock_guard<std::mutex> lock(pool_->mu);
  for (const auto& buf : pool_->free) total += buf->memory_bytes();
  return total;
}

std::uint64_t SnapshotPublisher::delta_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_)
    total += lane.capacity() * sizeof(SnapshotDeltaEntry);
  {
    std::lock_guard<std::mutex> lock(latest_mu_);
    for (const auto& d : chain_) total += d->memory_bytes();
  }
  std::lock_guard<std::mutex> lock(delta_pool_->mu);
  for (const auto& d : delta_pool_->free) total += d->memory_bytes();
  return total;
}

const EpochSnapshot* SnapshotView::refresh() {
  if (!source_) return nullptr;
  const std::uint64_t pub = source_->published();
  if (pub == 0) return nullptr;
  if (!source_->delta_mode()) {
    if (!full_ || full_->version != pub) full_ = source_->latest();
    return full_.get();
  }
  if (materialized_ && local_.version >= pub) return &local_;
  std::shared_ptr<const EpochSnapshot> base;
  scratch_.clear();
  const bool incremental =
      source_->catch_up(local_.version, materialized_, base, scratch_);
  if (incremental) {
    ++delta_refreshes_;
  } else {
    if (!base) return materialized_ ? &local_ : nullptr;
    local_.version = base->version;
    local_.t_s = base->t_s;
    local_.nodes = base->nodes;  // O(n), reuses the local buffer's capacity
    local_.lane = base->lane;
    materialized_ = true;
    ++full_rebuilds_;
  }
  for (const auto& d : scratch_) {
    for (const auto& e : d->entries) {
      local_.nodes[e.slot] = e.node;
      local_.lane.set(e.slot, e.node);
    }
    local_.version = d->version;
    local_.t_s = d->t_s;
  }
  scratch_.clear();  // drop delta refs promptly so they recycle to the pool
  return &local_;
}

}  // namespace nc::est
