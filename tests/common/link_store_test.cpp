// ShardLinkStore: the two link layouts (flat, sparse) must be
// observationally identical — same value at every (row, col), same
// first-touch semantics — differing only in bytes held. The engine-level
// bit-identity runs live in sharded_sim_test (SparseLinkStateBitIdentical-
// ToDense) and rebalance_test; this file pins the slot-level contract.
#include "common/link_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc {
namespace {

struct Slot {
  std::uint64_t value = 0;
  bool touched = false;
};

TEST(ShardLinkStore, ModeSelectionFollowsTheSparseLimit) {
  ShardLinkStore<Slot> flat(10, 10, /*sparse_slot_limit=*/100);
  EXPECT_FALSE(flat.sparse());
  ShardLinkStore<Slot> sparse(10, 10, /*sparse_slot_limit=*/99);
  EXPECT_TRUE(sparse.sparse());
  EXPECT_EQ(sparse.rows(), 10u);
  EXPECT_EQ(sparse.cols(), 10u);
}

// The one size rule at its default: exactly 32M logical slots stays one flat
// array, one slot more goes sparse. A 1-byte slot keeps the flat side at
// 32 MiB.
TEST(ShardLinkStore, FlatUpToThirtyTwoMillionSlotsSparseBeyond) {
  ASSERT_EQ(kShardLinkDefaultSparseSlotLimit, std::size_t{32} << 20);
  ShardLinkStore<std::uint8_t> flat(4096, 8192);  // 4096 * 8192 = 32M
  EXPECT_FALSE(flat.sparse());
  EXPECT_EQ(flat.memory_bytes(), kShardLinkDefaultSparseSlotLimit);
  EXPECT_NE(flat.try_at(4095, 8191), nullptr);

  ShardLinkStore<std::uint8_t> sparse(1, kShardLinkDefaultSparseSlotLimit + 1);
  EXPECT_TRUE(sparse.sparse());
  EXPECT_EQ(sparse.try_at(0, kShardLinkDefaultSparseSlotLimit), nullptr);
  sparse.at(0, kShardLinkDefaultSparseSlotLimit) = 7;
  EXPECT_EQ(*sparse.try_at(0, kShardLinkDefaultSparseSlotLimit), 7);
  EXPECT_EQ(sparse.touched(), 1u);
  EXPECT_LT(sparse.memory_bytes(), std::size_t{1} << 20);
}

TEST(ShardLinkStore, SlotEquivalenceAcrossBothLayouts) {
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kCols = 64;
  ShardLinkStore<Slot> flat(kRows, kCols, kRows * kCols);
  ShardLinkStore<Slot> sparse(kRows, kCols, /*sparse_slot_limit=*/0);
  EXPECT_FALSE(flat.sparse());
  EXPECT_TRUE(sparse.sparse());

  // A scattered touch pattern with revisits: first touch must read
  // value-initialized everywhere, revisits must read back the write.
  Rng rng(42);
  for (int step = 0; step < 2000; ++step) {
    const auto row = static_cast<std::size_t>(rng.next_u64() % kRows);
    const auto col = static_cast<std::size_t>(rng.next_u64() % kCols);
    for (ShardLinkStore<Slot>* store : {&flat, &sparse}) {
      Slot& s = store->at(row, col);
      if (!s.touched) {
        EXPECT_EQ(s.value, 0u) << "fresh slot not value-initialized";
        s.touched = true;
      }
      s.value = static_cast<std::uint64_t>(step);
    }
  }
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c) {
      const Slot* a = flat.try_at(r, c);
      const Slot* d = sparse.try_at(r, c);
      ASSERT_NE(a, nullptr);  // flat mode materializes everything
      if (d == nullptr) {
        EXPECT_FALSE(a->touched);  // never touched: flat reads it fresh
      } else {
        EXPECT_EQ(a->value, d->value);
      }
    }
}

// Migration packs a row out of one store and installs it into another; the
// two stores need not share a layout (a full-height sparse store hands rows
// to and from flat ones only through this pair of calls).
TEST(ShardLinkStore, RowsRoundTripBetweenLayouts) {
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kCols = 100;
  const auto live = [](const Slot& s) { return s.touched; };
  const auto fill = [](ShardLinkStore<Slot>& store, std::size_t row) {
    for (std::size_t c = 3; c < kCols; c += 7) store.at(row, c) = {c * 10, true};
    (void)store.at(row, 1);  // touched but never written: not live
  };
  using Row = std::vector<std::pair<std::uint32_t, Slot>>;
  const auto same = [](const Row& a, const Row& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].first != b[i].first || a[i].second.value != b[i].second.value)
        return false;
    return true;
  };

  ShardLinkStore<Slot> flat(kRows, kCols, kRows * kCols);
  ShardLinkStore<Slot> sparse(kRows, kCols, /*sparse_slot_limit=*/0);
  ASSERT_FALSE(flat.sparse());
  ASSERT_TRUE(sparse.sparse());

  // Flat -> sparse: the packed row is col-ascending and carries only live
  // slots; the source row reads untouched afterwards.
  fill(flat, 2);
  Row packed;
  flat.extract_row(2, packed, live);
  ASSERT_EQ(packed.size(), 14u);
  for (std::size_t i = 1; i < packed.size(); ++i)
    EXPECT_LT(packed[i - 1].first, packed[i].first);
  for (std::size_t c = 0; c < kCols; ++c) EXPECT_FALSE(flat.try_at(2, c)->touched);
  sparse.install_row(5, packed);
  for (const auto& [col, slot] : packed)
    EXPECT_EQ(sparse.try_at(5, col)->value, slot.value);
  EXPECT_EQ(sparse.try_at(5, 1), nullptr);

  // Sparse -> flat: the same cells come back out, and the sparse row is
  // released (its slab slots are reused, not leaked).
  Row back;
  sparse.extract_row(5, back, live);
  EXPECT_TRUE(same(packed, back));
  for (std::size_t c = 0; c < kCols; ++c) EXPECT_EQ(sparse.try_at(5, c), nullptr);
  flat.install_row(6, back);
  Row again;
  flat.extract_row(6, again, live);
  EXPECT_TRUE(same(packed, again));

  const std::size_t touched = sparse.touched();
  sparse.install_row(0, packed);
  EXPECT_EQ(sparse.touched(), touched);
}

TEST(ShardLinkStore, SparseMemoryTracksTouchedLinksNotLogicalSpace) {
  // A 1000 x 100000 logical space (1e8 slots) where only 64 links per row
  // are ever touched: memory must scale with 64k touched slots, not 1e8.
  ShardLinkStore<Slot> store(1000, 100000, /*sparse_slot_limit=*/0);
  ASSERT_TRUE(store.sparse());
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::size_t k = 0; k < 64; ++k)
      store.at(r, (k * 1543) % 100000).value = r;
  EXPECT_EQ(store.touched(), 64u * 1000u);
  // Slab + per-row tables; far under the ~1.6 GB a dense array would hold.
  EXPECT_LT(store.memory_bytes(), std::size_t{64} << 20);
}

TEST(ShardLinkStore, SparseReferencesStableWithinOneTouch) {
  ShardLinkStore<Slot> store(4, 1000, /*sparse_slot_limit=*/0);
  for (std::size_t c = 0; c < 1000; ++c) {
    Slot& s = store.at(2, c);
    s.value = c;  // written through the just-returned reference
  }
  for (std::size_t c = 0; c < 1000; ++c)
    EXPECT_EQ(store.at(2, c).value, c);
}

}  // namespace
}  // namespace nc
