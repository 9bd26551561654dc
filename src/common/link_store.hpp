// ShardLinkStore: per-link state over a rows x cols index space, flat or
// sparse by size.
//
// Link state is indexed by (row, col): a shard's directed links by
// (src - first_owned, dst), the IDMS delay matrix by (observer, target).
// The logical matrix is O(rows * cols) — O(n^2/W) per shard — but a run
// only ever touches a node's contacts, bounded by its NeighborSet capacity
// (default 512) or by the pairs it actually measured. The store keeps two
// layouts behind one index API:
//
//  * flat   — one value-initialized vector, a single index on the hot path.
//    Used at or below `sparse_slot_limit` logical slots (default 32M: the
//    1k and 4k bench tiers at any shard count).
//  * sparse — a per-row CompactSlotIndex (col -> slab slot) over one shared
//    slab, so memory is O(links actually touched) with a two-cache-probe
//    lookup. Used above the limit, and wherever a caller passes 0: the
//    IDMS matrix always, and the full-height (rows == n) stores the engine
//    builds under dynamic ownership.
//
// Lazily paging the flat array would not bound memory: contacts scatter
// uniformly over a row, and a row shorter than a page touches every page.
//
// Both layouts hand out value-initialized state on first touch, so they are
// observationally identical — tests/common/link_store_test.cpp pins the
// slot-level contract and the engine bit-identity suites run full-height
// sparse stores against flat ones.
//
// Not thread-safe; every store is owned by exactly one shard. References
// returned by at() in sparse mode are invalidated by the next first-touch
// insertion (the slab is a vector) — use within one event, like any
// container reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/compact_index.hpp"

namespace nc {

/// Flat up to 32M logical slots: the 4k-node bench tier (16.8M directed
/// slots at W=1) keeps its flat array; anything larger goes sparse.
inline constexpr std::size_t kShardLinkDefaultSparseSlotLimit =
    std::size_t{32} << 20;

template <typename T>
class ShardLinkStore {
 public:
  ShardLinkStore() = default;

  /// `sparse_slot_limit = 0` forces the sparse layout at any size.
  ShardLinkStore(std::size_t rows, std::size_t cols,
                 std::size_t sparse_slot_limit = kShardLinkDefaultSparseSlotLimit)
      : rows_(rows),
        cols_(cols),
        sparse_(rows * cols > sparse_slot_limit) {
    NC_CHECK_MSG(cols_ <= std::numeric_limits<std::uint32_t>::max(),
                 "column space exceeds the compact-index key width");
    if (sparse_) {
      row_index_.resize(rows_);
    } else {
      flat_.resize(rows_ * cols_);
    }
  }

  /// The state at (row, col), created value-initialized on first touch.
  [[nodiscard]] T& at(std::size_t row, std::size_t col) {
    NC_ASSERT(row < rows_ && col < cols_);
    if (!sparse_) return flat_[row * cols_ + col];
    CompactSlotIndex& index = row_index_[row];
    if (const auto slot = index.find(static_cast<std::uint32_t>(col));
        slot.has_value())
      return slab_[*slot];
    if (!free_slots_.empty()) {
      // Reuse a slot released by extract_row — migration churn must not
      // leak slab capacity.
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      index.insert(static_cast<std::uint32_t>(col), slot);
      slab_[slot] = T();
      return slab_[slot];
    }
    NC_CHECK_MSG(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "shard link slab exceeds the compact-index value width");
    index.insert(static_cast<std::uint32_t>(col),
                 static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
    return slab_.back();
  }

  /// Moves every live slot of `row` out (appended to `out` as (col, state),
  /// sorted by col — the canonical order; physical slab/hash layout never
  /// leaks) and resets the row to untouched. `live(state)` filters which
  /// slots are worth carrying (e.g. initialized links); dead slots are
  /// released either way. Used by ownership migration to pack a node's
  /// outgoing-link state.
  template <typename Live>
  void extract_row(std::size_t row, std::vector<std::pair<std::uint32_t, T>>& out,
                   Live&& live) {
    NC_ASSERT(row < rows_);
    const std::size_t start = out.size();
    if (!sparse_) {
      T* cells = flat_.data() + row * cols_;
      for (std::size_t col = 0; col < cols_; ++col) {
        if (live(cells[col]))
          out.emplace_back(static_cast<std::uint32_t>(col), std::move(cells[col]));
        cells[col] = T();
      }
    } else {
      CompactSlotIndex& index = row_index_[row];
      index.for_each([&](std::uint32_t col, std::uint32_t slot) {
        if (live(slab_[slot]))
          out.emplace_back(col, std::move(slab_[slot]));
        slab_[slot] = T();
        free_slots_.push_back(slot);
      });
      index.clear();
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// Installs a packed row from extract_row into (an untouched) `row`.
  void install_row(std::size_t row,
                   const std::vector<std::pair<std::uint32_t, T>>& cells) {
    for (const auto& [col, state] : cells) at(row, col) = state;
  }

  /// Read-only probe: the slot's address, or nullptr when never touched in
  /// sparse mode (every flat slot exists).
  [[nodiscard]] const T* try_at(std::size_t row, std::size_t col) const noexcept {
    NC_ASSERT(row < rows_ && col < cols_);
    if (!sparse_) return &flat_[row * cols_ + col];
    const auto slot = row_index_[row].find(static_cast<std::uint32_t>(col));
    return slot.has_value() ? &slab_[*slot] : nullptr;
  }

  /// Visits every slot try_at would return, as fn(state), in no particular
  /// order: each touched slot in sparse mode, every slot in flat mode.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!sparse_) {
      for (const T& state : flat_) fn(state);
      return;
    }
    for (const CompactSlotIndex& index : row_index_)
      index.for_each([&](std::uint32_t, std::uint32_t slot) { fn(slab_[slot]); });
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool sparse() const noexcept { return sparse_; }
  /// Links materialized so far (sparse mode; flat mode has no per-slot
  /// touch record, so this reports 0 there).
  [[nodiscard]] std::size_t touched() const noexcept { return slab_.size(); }

  /// Heap bytes held right now: the flat array in flat mode; slab + all
  /// per-row index tables in sparse mode.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    if (!sparse_) return flat_.capacity() * sizeof(T);
    std::size_t bytes = slab_.capacity() * sizeof(T) +
                        free_slots_.capacity() * sizeof(std::uint32_t) +
                        row_index_.capacity() * sizeof(CompactSlotIndex);
    for (const CompactSlotIndex& index : row_index_) bytes += index.memory_bytes();
    return bytes;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool sparse_ = false;
  std::vector<T> flat_;
  std::vector<CompactSlotIndex> row_index_;
  std::vector<T> slab_;
  /// Slab slots released by extract_row, reused before the slab grows.
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace nc
