// Lazily-paged dense storage for O(n^2) link-state arrays.
//
// LatencyNetwork indexes its undirected per-link stochastic state by a
// triangular index (a shard's directed links and the IDMS matrix use
// common/link_store.hpp instead). Dense arrays killed the hash maps on the
// per-event hot path, but they are eager O(n^2) allocations: ~1 GB at
// n = 4k and ~6 GB at 10k. Large deployments touch only a sparse subset of
// that index space — a node's NeighborSet caps its contact
// set at `neighbor_capacity` (default 512), and a bounded-duration replay
// reaches at most duration/interval round-robin partners per node — so most
// slots are never written.
//
// PagedStore keeps the exact index API (`at(i)` returns the same logical
// slot in either mode) and picks a layout by size:
//
//  * eager  — one flat vector, zero indirection: slot counts at or below
//    `eager_slot_limit` (the bench tier; the hot path is a single index);
//  * paged  — fixed-size blocks of kPageSlots slots allocated on first
//    touch, so a 10k-node run costs memory proportional to the links it
//    actually samples, not to n^2.
//
// Slots are value-initialized in both modes (a fresh page reads exactly like
// a fresh vector element), so the two modes are observationally identical —
// tests/common/paged_store_test.cpp pins the equivalence, and
// link_model_test runs LatencyNetwork in both modes against each other.
//
// Not thread-safe; every store is owned by exactly one network, matching the
// engines' owner-only-writes discipline.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace nc {

/// Eager up to 32M slots: the 4k-node bench tier (8.4M undirected links,
/// 16.8M directed slots per shard at W=1) keeps its flat arrays.
inline constexpr std::size_t kPagedStoreDefaultEagerSlotLimit =
    std::size_t{32} << 20;

template <typename T>
class PagedStore {
 public:
  /// 8192 slots per page: ~0.8 MB of LinkState per page — small enough that
  /// sparse touch patterns stay sparse, large enough that the page table is
  /// tiny (a 10k-node shard array needs ~12k page pointers).
  static constexpr std::size_t kPageSlots = std::size_t{1} << 13;
  static constexpr std::size_t kDefaultEagerSlotLimit =
      kPagedStoreDefaultEagerSlotLimit;

  explicit PagedStore(std::size_t slots = 0,
                      std::size_t eager_slot_limit = kDefaultEagerSlotLimit)
      : slots_(slots), paged_(slots > eager_slot_limit) {
    if (paged_) {
      pages_.resize((slots + kPageSlots - 1) / kPageSlots);
    } else {
      eager_.resize(slots);
    }
  }

  /// The logical slot `i`; allocates its page on first touch in paged mode.
  [[nodiscard]] T& at(std::size_t i) {
    NC_ASSERT(i < slots_);
    if (!paged_) return eager_[i];
    auto& page = pages_[i / kPageSlots];
    if (!page) page = std::make_unique<T[]>(kPageSlots);  // value-initialized
    return page[i % kPageSlots];
  }

  /// Read-only probe: the slot's address, or nullptr when its page was never
  /// touched. Lets query paths observe "value-initialized" without forcing
  /// page allocation for slots that were never written.
  [[nodiscard]] const T* try_at(std::size_t i) const noexcept {
    NC_ASSERT(i < slots_);
    if (!paged_) return &eager_[i];
    const auto& page = pages_[i / kPageSlots];
    if (!page) return nullptr;
    return &page[i % kPageSlots];
  }

  /// Mutable probe with the same never-allocates contract: lets bulk editors
  /// (e.g. migration packing resetting a row) touch only slots whose pages
  /// already exist.
  [[nodiscard]] T* try_at(std::size_t i) noexcept {
    return const_cast<T*>(static_cast<const PagedStore*>(this)->try_at(i));
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_; }
  [[nodiscard]] bool paged() const noexcept { return paged_; }

  /// Heap bytes held right now: the flat vector in eager mode, the page
  /// table plus materialized pages in paged mode.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = eager_.capacity() * sizeof(T) +
                        pages_.capacity() * sizeof(std::unique_ptr<T[]>);
    if (paged_) bytes += allocated_pages() * kPageSlots * sizeof(T);
    return bytes;
  }

  /// Pages actually materialized (paged mode; eager mode reports 0 or 1
  /// whole-range "page" for introspection symmetry).
  [[nodiscard]] std::size_t allocated_pages() const noexcept {
    if (!paged_) return eager_.empty() ? 0 : 1;
    std::size_t n = 0;
    for (const auto& p : pages_)
      if (p) ++n;
    return n;
  }

  /// Total pages the index space spans (paged mode).
  [[nodiscard]] std::size_t page_count() const noexcept {
    return paged_ ? pages_.size() : allocated_pages();
  }

 private:
  std::size_t slots_;
  bool paged_;
  std::vector<T> eager_;
  std::vector<std::unique_ptr<T[]>> pages_;
};

}  // namespace nc
