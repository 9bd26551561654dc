// Ordering contract of the kernel's calendar queue (calendar_queue.hpp):
// pops follow the caller's total order exactly, across bucket wrap-arounds,
// far-future residue buckets, bulk same-time bursts and resizes. The
// generic cases run on a test-local (t, seq) order; the ShardEventQueue
// cases pin the engine's canonical (t, kind, a, b, seq) order.
#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "sim/shard_mailbox.hpp"

namespace nc::sim {
namespace {

struct Ev {
  double t;
  std::uint64_t seq;
  int id;
};

struct TimeSeqOps {
  [[nodiscard]] static double time(const Ev& e) noexcept { return e.t; }
  [[nodiscard]] static bool less(const Ev& a, const Ev& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
};

/// A calendar over (t, seq) that stamps each push with its insertion
/// sequence number, so equal times pop in insertion order.
struct SeqQueue {
  CalendarQueue<Ev, TimeSeqOps> calendar;
  std::uint64_t next_seq = 0;

  void push(double t, int id) { calendar.push(Ev{t, next_seq++, id}); }
  [[nodiscard]] Ev pop() { return calendar.pop(); }
  [[nodiscard]] bool empty() const noexcept { return calendar.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return calendar.size(); }
};

TEST(CalendarQueue, EmptyPopsNothing) {
  SeqQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.calendar.peek(), nullptr);
  EXPECT_THROW((void)q.pop(), CheckError);
}

TEST(CalendarQueue, PopsInTimeOrder) {
  SeqQueue q;
  q.push(3.0, 3);
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().id, 1);
  EXPECT_EQ(q.pop().id, 2);
  EXPECT_EQ(q.pop().id, 3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, TiesBreakInInsertionOrder) {
  SeqQueue q;
  for (int i = 0; i < 10; ++i) q.push(5.0, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().id, i);
}

TEST(CalendarQueue, InterleavedScheduleAndPop) {
  SeqQueue q;
  q.push(1.0, 1);
  const Ev e1 = q.pop();
  q.push(e1.t + 1.0, 2);
  q.push(e1.t + 0.5, 3);
  EXPECT_EQ(q.pop().id, 3);
  EXPECT_EQ(q.pop().id, 2);
}

TEST(CalendarQueue, ManyEventsStressOrdering) {
  SeqQueue q;
  // Deterministic pseudo-random times.
  std::uint64_t x = 12345;
  for (int i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.push(static_cast<double>(x % 100000) / 10.0, i);
  }
  double last = -1.0;
  while (!q.empty()) {
    const Ev e = q.pop();
    ASSERT_GE(e.t, last);
    last = e.t;
  }
}

// Same-timestamp events land in one calendar bucket; they must still pop in
// insertion (sequence) order even when interleaved with earlier/later times
// and when the burst is large enough to trigger bucket-count rebuilds.
TEST(CalendarQueue, LargeSameTimeBurstPopsInInsertionOrder) {
  SeqQueue q;
  q.push(4.0, -1);
  for (int i = 0; i < 2000; ++i) q.push(5.0, i);
  q.push(4.5, -2);
  EXPECT_EQ(q.pop().id, -1);
  EXPECT_EQ(q.pop().id, -2);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(q.pop().id, i);
  EXPECT_TRUE(q.empty());
}

// A steady hold pattern cycles the calendar through many "years" (bucket
// wrap-arounds): order must hold across every wrap.
TEST(CalendarQueue, HoldPatternSurvivesBucketWrapAround) {
  SeqQueue q;
  std::uint64_t x = 99;
  for (int i = 0; i < 64; ++i) q.push(static_cast<double>(i) / 8.0, i);
  double last = 0.0;
  for (int i = 0; i < 50000; ++i) {
    ASSERT_FALSE(q.empty());
    const Ev e = q.pop();
    ASSERT_GE(e.t, last);
    last = e.t;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mean increment ~8 time units over 64 held events: the active window
    // keeps sliding far past any fixed bucket year.
    q.push(e.t + static_cast<double>(x % 1000) / 64.0, i);
  }
  EXPECT_EQ(q.size(), 64u);
}

// Events scheduled far beyond the calendar's covered year wait in their
// residue bucket (the overflow case) and must surface exactly in order once
// the near-term traffic drains.
TEST(CalendarQueue, FarFutureEventsPopAfterNearOnes) {
  SeqQueue q;
  q.push(1e6, 100);  // years ahead of everything else
  q.push(2e6, 200);
  for (int i = 0; i < 100; ++i) q.push(static_cast<double>(i), i);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(q.pop().id, i);
  EXPECT_EQ(q.pop().id, 100);  // cursor jumps a year gap
  EXPECT_EQ(q.pop().id, 200);
  EXPECT_TRUE(q.empty());
  // The queue stays usable after draining through the far-future jump.
  q.push(3e6, 300);
  EXPECT_EQ(q.pop().id, 300);
}

// Grow-then-shrink: a large population resizes the calendar up; draining it
// must shrink back without losing or reordering the survivors.
TEST(CalendarQueue, ShrinkAfterDrainKeepsRemainingOrder) {
  SeqQueue q;
  for (int i = 0; i < 5000; ++i) q.push(static_cast<double>(i) * 0.01, i);
  for (int i = 0; i < 4990; ++i) ASSERT_EQ(q.pop().id, i);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(q.pop().id, 4990 + i);
  EXPECT_TRUE(q.empty());
}

// ---- ShardEventQueue: canonical (t, kind, a, b, seq) order ----

ShardEvent shard_event(double t, ShardEventKind kind, NodeId a, NodeId b,
                       std::uint64_t seq) {
  ShardEvent ev;
  ev.t = t;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ev.seq = seq;
  return ev;
}

TEST(ShardEventQueue, SameTimeTiesBreakByKindOwnerSenderSeq) {
  ShardEventQueue q;
  // Insert in scrambled order; all at one timestamp.
  q.push(shard_event(7.0, ShardEventKind::kPong, 1, 0, 3));
  q.push(shard_event(7.0, ShardEventKind::kPing, 2, 1, 0));
  q.push(shard_event(7.0, ShardEventKind::kPingTimer, 0, -1, 0));
  q.push(shard_event(7.0, ShardEventKind::kTrack, -1, -1, 0));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 1, 5));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 1, 2));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 0, 9));

  EXPECT_EQ(q.pop().kind, ShardEventKind::kTrack);
  EXPECT_EQ(q.pop().kind, ShardEventKind::kPingTimer);
  ShardEvent e = q.pop();  // kPing ordered by (a, b, seq)
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.b, 0);
  EXPECT_EQ(e.seq, 9u);
  e = q.pop();
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.seq, 2u);
  e = q.pop();
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.seq, 5u);
  e = q.pop();
  EXPECT_EQ(e.a, 2);
  EXPECT_EQ(q.pop().kind, ShardEventKind::kPong);
  EXPECT_TRUE(q.empty());
}

TEST(ShardEventQueue, HasEventBeforeIsAnExclusiveBound) {
  ShardEventQueue q;
  q.push(shard_event(5.0, ShardEventKind::kPingTimer, 0, -1, 0));
  EXPECT_FALSE(q.has_event_before(5.0));
  EXPECT_TRUE(q.has_event_before(5.0001));
  (void)q.pop();
  EXPECT_FALSE(q.has_event_before(1e18));
}

// push_batch is the epoch-delivery path: an arbitrary-order batch (clamped
// deliveries shuffle the canonical order when translated to processing
// keys) must interleave with resident timer events exactly as the
// one-at-a-time path would.
TEST(ShardEventQueue, PushBatchMatchesIndividualPushes) {
  const auto make_events = [] {
    std::vector<ShardEvent> evs;
    std::uint64_t x = 7;
    for (int i = 0; i < 500; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const double t = 10.0 + static_cast<double>(x % 64) / 4.0;  // many ties
      const auto kind = (x >> 8) % 2 == 0 ? ShardEventKind::kPing
                                          : ShardEventKind::kPong;
      evs.push_back(shard_event(t, kind, static_cast<NodeId>((x >> 16) % 16),
                                static_cast<NodeId>((x >> 24) % 16), i));
    }
    return evs;
  };
  const auto timers = [] {
    std::vector<ShardEvent> evs;
    for (int i = 0; i < 32; ++i)
      evs.push_back(shard_event(10.0 + static_cast<double>(i),
                                ShardEventKind::kPingTimer, i, -1, 0));
    return evs;
  };

  ShardEventQueue individual;
  for (const ShardEvent& ev : timers()) individual.push(ev);
  for (const ShardEvent& ev : make_events()) individual.push(ev);

  ShardEventQueue batched;
  for (const ShardEvent& ev : timers()) batched.push(ev);
  std::vector<ShardEvent> batch = make_events();
  batched.push_batch(batch);
  EXPECT_TRUE(batch.empty());  // contents consumed

  while (!individual.empty()) {
    ASSERT_FALSE(batched.empty());
    const ShardEvent a = individual.pop();
    const ShardEvent b = batched.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.a, b.a);
    ASSERT_EQ(a.b, b.b);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(batched.empty());
}

// Far-future track ticks coexist with near-term timer traffic across many
// bucket wrap-arounds — the sharded constructor's exact layout.
TEST(ShardEventQueue, TrackTicksSurviveAmongDenseTimers) {
  ShardEventQueue q;
  for (int k = 1; k <= 5; ++k)
    q.push(shard_event(600.0 * k, ShardEventKind::kTrack, -1, -1, 0));
  for (int i = 0; i < 200; ++i)
    q.push(shard_event(static_cast<double>(i) * 0.025,
                       ShardEventKind::kPingTimer, i, -1, 0));
  double last = 0.0;
  int ticks = 0, timers = 0;
  // Hold pattern: every popped timer re-arms 5s ahead until past the ticks.
  while (!q.empty()) {
    const ShardEvent ev = q.pop();
    ASSERT_GE(ev.t, last);
    last = ev.t;
    if (ev.kind == ShardEventKind::kTrack) {
      ++ticks;
    } else {
      ++timers;
      if (ev.t < 3300.0)
        q.push(shard_event(ev.t + 5.0, ShardEventKind::kPingTimer, ev.a, -1,
                           ev.seq + 1));
    }
  }
  EXPECT_EQ(ticks, 5);
  EXPECT_GT(timers, 200 * 600);  // ~660 re-arms per timer chain
}

}  // namespace
}  // namespace nc::sim
