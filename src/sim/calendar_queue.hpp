// Bucketed calendar queue: the allocation-free priority queue of the
// simulation kernel (R. Brown, CACM 1988).
//
// Every engine shard pops events in nondecreasing time with an explicit
// total-order tie-break, and nearly all of its traffic is periodic (one
// ping timer per node per interval, deliveries clamped to epoch starts).
// That access pattern is the textbook case where a calendar beats a binary
// heap: an insert lands in the one bucket covering its "day" (a width_-sized
// slice of simulated time) and a pop reads the current day's bucket head —
// O(1) amortized each, with no O(log n) sift moving 100+-byte events around.
//
// Layout and invariants:
//  * nbuckets_ is a power of two; an event at time t belongs to day
//    floor(t / width_) and lives in bucket (day & mask_), whatever its year —
//    far-future events simply wait in their residue bucket (the "overflow"
//    events of the classic design) and are skipped by the day check until
//    the cursor reaches their day.
//  * Every bucket is kept sorted by Ops::less, a TOTAL order that extends
//    time order (Ops::less(a, b) implies time(a) <= time(b)); consumed
//    events are a prefix [0, head) compacted lazily. Pop order is therefore
//    exactly the global Ops::less order — bit-identical to what a binary
//    heap over the same comparator produces, which is the contract the
//    engines' determinism tests pin.
//  * cur_day_ is a lower bound on the earliest unconsumed day. Pops advance
//    it; an insert below it (legal: epoch-clamped deliveries restart the
//    cursor at an epoch boundary) lowers it. Callers must never insert an
//    event that sorts before one already popped (the engine schedules only
//    at or after the current event time, which guarantees it).
//  * Steady state allocates nothing: buckets and the resize scratch keep
//    their capacity across years, and the bucket count rescales (with a
//    width retune from observed inter-event gaps) only when the population
//    doubles or collapses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.hpp"

namespace nc::sim {

/// Ops contract:
///   static double time(const Event&)            — event timestamp;
///   static bool less(const Event&, const Event&) — strict TOTAL order that
///     refines time order (equal times broken by caller-defined fields).
template <typename Event, typename Ops>
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  void push(Event ev) {
    const double t = Ops::time(ev);
    NC_ASSERT(std::isfinite(t));
    if (size_ + 1 > (nbuckets() << 1)) rebuild(size_ + 1);
    const std::int64_t day = day_of(t);
    if (size_ == 0 || day < cur_day_) cur_day_ = day;
    insert_sorted(buckets_[bucket_of(day)], std::move(ev));
    ++size_;
  }

  /// Bulk insert of a run already sorted by Ops::less (the epoch-sharded
  /// engine's delivery batches). Each maximal same-day segment is merged
  /// into its bucket in one linear pass — crucial for epoch-clamped
  /// batches, where thousands of equal-time events target a single bucket
  /// and per-event sorted insertion would memmove the bucket tail once per
  /// event instead of once per epoch.
  template <typename It>
  void push_sorted_run(It first, It last) {
    if (first == last) return;
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    if (size_ + count > (nbuckets() << 1)) rebuild(size_ + count);
    if (size_ == 0 || day_of(Ops::time(*first)) < cur_day_)
      cur_day_ = day_of(Ops::time(*first));
    while (first != last) {
      NC_ASSERT(std::isfinite(Ops::time(*first)));
      const std::int64_t day = day_of(Ops::time(*first));
      It seg_end = first + 1;
      while (seg_end != last && day_of(Ops::time(*seg_end)) == day) {
        NC_ASSERT(!Ops::less(*seg_end, *(seg_end - 1)));
        ++seg_end;
      }
      merge_segment(buckets_[bucket_of(day)], first, seg_end);
      first = seg_end;
    }
    size_ += count;
  }

  /// Earliest event by Ops::less, or nullptr when empty. Advances the day
  /// cursor past verified-empty days (pure acceleration state; a later
  /// lower push rewinds it).
  [[nodiscard]] const Event* peek() {
    if (size_ == 0) return nullptr;
    for (std::size_t probes = 0; probes < nbuckets(); ++probes) {
      const Bucket& b = buckets_[bucket_of(cur_day_)];
      if (b.head < b.items.size() &&
          day_of(Ops::time(b.items[b.head])) == cur_day_)
        return &b.items[b.head];
      ++cur_day_;
    }
    // A whole year of empty days: jump straight to the earliest populated
    // day (rare — only when the next event is further than a year ahead).
    std::int64_t min_day = 0;
    bool found = false;
    for (const Bucket& b : buckets_) {
      if (b.head >= b.items.size()) continue;
      const std::int64_t day = day_of(Ops::time(b.items[b.head]));
      if (!found || day < min_day) min_day = day, found = true;
    }
    NC_ASSERT(found);
    cur_day_ = min_day;
    const Bucket& b = buckets_[bucket_of(cur_day_)];
    return &b.items[b.head];
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    const Event* head = peek();
    NC_CHECK_MSG(head != nullptr, "pop from empty calendar queue");
    Bucket& b = buckets_[bucket_of(cur_day_)];
    Event ev = std::move(b.items[b.head]);
    ++b.head;
    --size_;
    if (b.head == b.items.size()) {
      b.items.clear();  // capacity retained: steady state reallocates nothing
      b.head = 0;
    } else if (b.head > 64 && b.head * 2 > b.items.size()) {
      // Lazy compaction: a bucket pinned by a far-future event must not
      // accumulate its consumed prefix forever.
      b.items.erase(b.items.begin(),
                    b.items.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
    }
    if (size_ < nbuckets() / 8 && nbuckets() > kMinBuckets) rebuild(size_);
    return ev;
  }

  /// Removes every event matching `pred` and appends them to `out` (bucket
  /// order, NOT globally sorted — callers needing a canonical order sort the
  /// result by Ops::less). Used by ownership migration to pull a node's
  /// pending events out of its old shard's queue; each bucket is compacted
  /// with one stable two-pointer pass, so the sorted-bucket invariant and
  /// the consumed-prefix head are preserved.
  template <typename Pred>
  void extract_if(Pred&& pred, std::vector<Event>& out) {
    for (Bucket& b : buckets_) {
      std::size_t write = b.head;
      for (std::size_t read = b.head; read < b.items.size(); ++read) {
        if (pred(b.items[read])) {
          out.push_back(std::move(b.items[read]));
          --size_;
        } else {
          if (write != read) b.items[write] = std::move(b.items[read]);
          ++write;
        }
      }
      b.items.resize(write);
      if (b.head == b.items.size()) {
        b.items.clear();
        b.head = 0;
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return nbuckets(); }

 private:
  struct Bucket {
    std::vector<Event> items;  // sorted by Ops::less; [0, head) consumed
    std::size_t head = 0;
  };

  static constexpr std::size_t kMinBuckets = 16;

  [[nodiscard]] std::size_t nbuckets() const noexcept { return buckets_.size(); }
  [[nodiscard]] std::size_t bucket_of(std::int64_t day) const noexcept {
    return static_cast<std::size_t>(day) & (nbuckets() - 1);
  }
  [[nodiscard]] std::int64_t day_of(double t) const noexcept {
    return static_cast<std::int64_t>(std::floor(t / width_));
  }

  /// Merges a sorted same-day segment into a bucket: append when it sorts
  /// entirely after the existing items (the common case — an empty bucket
  /// or a batch landing past the resident timers), otherwise one linear
  /// merge through the reused scratch buffer.
  template <typename It>
  void merge_segment(Bucket& b, It first, It last) {
    if (b.items.empty() || !Ops::less(*first, b.items.back())) {
      b.items.insert(b.items.end(), std::make_move_iterator(first),
                     std::make_move_iterator(last));
      return;
    }
    merge_scratch_.clear();
    merge_scratch_.reserve(b.items.size() - b.head +
                           static_cast<std::size_t>(std::distance(first, last)));
    std::merge(
        std::make_move_iterator(b.items.begin() +
                                static_cast<std::ptrdiff_t>(b.head)),
        std::make_move_iterator(b.items.end()), std::make_move_iterator(first),
        std::make_move_iterator(last), std::back_inserter(merge_scratch_),
        &Ops::less);
    b.items.clear();
    b.head = 0;
    b.items.insert(b.items.end(),
                   std::make_move_iterator(merge_scratch_.begin()),
                   std::make_move_iterator(merge_scratch_.end()));
  }

  static void insert_sorted(Bucket& b, Event ev) {
    // Periodic traffic appends: timers re-arm one interval ahead and
    // epoch-clamped deliveries arrive presorted, so the common case is a
    // single comparison against the bucket's back.
    if (b.items.empty() || !Ops::less(ev, b.items.back())) {
      b.items.push_back(std::move(ev));
      return;
    }
    const auto pos =
        std::upper_bound(b.items.begin() + static_cast<std::ptrdiff_t>(b.head),
                         b.items.end(), ev, &Ops::less);
    b.items.insert(pos, std::move(ev));
  }

  /// Rescales to ~target events per two buckets and retunes the bucket
  /// width to 3x the mean inter-event gap near the head of the queue (the
  /// classic Brown rule: clusters get spread over several buckets while a
  /// day still covers more than one event). Deterministic — depends only on
  /// the queued events, never on wall clock or randomness.
  void rebuild(std::size_t target) {
    scratch_.clear();
    for (Bucket& b : buckets_) {
      for (std::size_t i = b.head; i < b.items.size(); ++i)
        scratch_.push_back(std::move(b.items[i]));
      b.items.clear();
      b.head = 0;
    }
    std::sort(scratch_.begin(), scratch_.end(), &Ops::less);

    std::size_t n = kMinBuckets;
    while (n < target) n <<= 1;
    buckets_.resize(n);

    const std::size_t sample =
        std::min<std::size_t>(scratch_.size(), kMinBuckets * 4);
    if (sample >= 2) {
      const double span = Ops::time(scratch_[sample - 1]) - Ops::time(scratch_[0]);
      const double gap = span / static_cast<double>(sample - 1);
      if (gap > 0.0) width_ = 3.0 * gap;
    }

    cur_day_ = scratch_.empty() ? 0 : day_of(Ops::time(scratch_.front()));
    for (Event& ev : scratch_)
      buckets_[bucket_of(day_of(Ops::time(ev)))].items.push_back(std::move(ev));
    scratch_.clear();
  }

  std::vector<Bucket> buckets_;
  std::vector<Event> scratch_;        // rebuild staging, capacity reused
  std::vector<Event> merge_scratch_;  // segment-merge staging, capacity reused
  double width_ = 1.0;
  std::int64_t cur_day_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nc::sim
