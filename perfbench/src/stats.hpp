// The benchmark's own arithmetic: percentiles, the max-rate search, host
// stall accounting and the self time of traced spans. Kept free of the library so the self-test
// (tests/arith_test.cpp) checks exactly what the harness reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Percentile `p` in [0, 100] of `v` by linear interpolation between closest
/// ranks (position p/100 * (n-1) in the sorted sample; numpy's default).
/// Reorders `v`. Throws on an empty sample: a percentile of nothing is a
/// harness bug, never a number to report.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside [0, 100]");
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  const double frac = pos - static_cast<double>(lo);
  if (hi == lo || frac == 0.0) return a;
  // The next order statistic is the minimum of the part above lo.
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return b == a ? a : a + frac * (b - a);  // b == a also covers +inf
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// Highest offered rate that passes a probe, by geometric bisection between
/// a rate known to pass and one known to fail. Each step halves the log
/// distance, so the answer lands within `resolution` (a ratio, e.g. 0.01
/// for 1%) of the true threshold — finer than any bound the benchmark sets.
/// A rate fails only after `tries` failed probes in a row, so a host stall
/// during one probe cannot halve the answer; a pass needs no confirmation.
class RateSearch {
 public:
  RateSearch(double pass_qps, double fail_qps, double resolution, int tries)
      : lo_(pass_qps), hi_(fail_qps), resolution_(resolution), tries_(tries) {
    if (!(pass_qps > 0.0 && fail_qps > pass_qps && resolution > 0.0 && tries >= 1))
      throw std::invalid_argument("rate search needs 0 < pass < fail, tries >= 1");
  }

  [[nodiscard]] bool done() const noexcept {
    return hi_ / lo_ <= 1.0 + resolution_;
  }
  /// The rate the next probe should offer.
  [[nodiscard]] double next_rate() const noexcept { return std::sqrt(lo_ * hi_); }
  /// Reports the outcome of a probe at next_rate().
  void report(bool pass) noexcept {
    ++probes_;
    const double r = next_rate();
    if (pass) {
      lo_ = r;
      failures_ = 0;
    } else if (++failures_ == tries_) {
      hi_ = r;
      failures_ = 0;
    }  // else: the same rate again
  }
  /// The highest rate seen to pass.
  [[nodiscard]] double result() const noexcept { return lo_; }
  [[nodiscard]] int probes() const noexcept { return probes_; }

 private:
  double lo_;
  double hi_;
  double resolution_;
  int tries_;
  int failures_ = 0;  // failed probes in a row at next_rate()
  int probes_ = 0;
};

/// Where a p99-versus-rate curve crosses `limit`: `rates` ascending, `p99s`
/// the p99 measured at each (+infinity where none was). Walks up
/// from the lowest rate while the p99 stays within the limit, then
/// interpolates the crossing between the last passing rate and the first
/// failing one, linearly in log(rate) and log(p99) (near saturation the
/// p99 grows by orders of magnitude per step); a failing rate without a
/// finite p99 ends the walk at the last passing rate. Returns the lowest
/// rate when it already fails and the highest when none fails.
inline double crossing_rate(const std::vector<double>& rates,
                            const std::vector<double>& p99s, double limit) {
  if (rates.empty() || rates.size() != p99s.size())
    throw std::invalid_argument("crossing_rate needs one p99 per rate");
  if (!(p99s[0] <= limit)) return rates[0];
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (p99s[i] <= limit) continue;
    if (!std::isfinite(p99s[i]) || !(p99s[i - 1] > 0.0)) return rates[i - 1];
    const double f = std::log(limit / p99s[i - 1]) / std::log(p99s[i] / p99s[i - 1]);
    return rates[i - 1] * std::pow(rates[i] / rates[i - 1], f);
  }
  return rates.back();
}

/// Host stalls seen by the open-loop client: gaps between two consecutive
/// clock reads of its spin-wait to a due time. That loop runs nothing but
/// the clock, so such a gap is time the host took the vCPU away (a shared
/// VM loses it a few hundred times a second, for 10-50 us each, and how
/// long varies with the neighbours' load). A stall delays every query due
/// during it, not only the one being waited for, so each query is charged
/// its latency minus the stalled part of [due, issue). What remains is
/// service time and waiting behind earlier queries: the program's part.
/// Stalls that hit while a query executes are not seen and stay charged.
class StallLog {
 public:
  /// A gap from `start` to `end` (same clock as the due times).
  void record(double start, double end) {
    if (!(end > start)) throw std::invalid_argument("stall must end after it starts");
    if (!gaps_.empty() && start < gaps_.back().second)
      throw std::invalid_argument("stalls must be recorded in time order");
    gaps_.emplace_back(start, end);
    total_ += end - start;
    ++count_;
  }

  /// Stalled time inside [due, issue). Due times never decrease, so stalls
  /// that end by `due` are forgotten.
  double overlap(double due, double issue) {
    std::size_t drop = 0;
    while (drop < gaps_.size() && gaps_[drop].second <= due) ++drop;
    gaps_.erase(gaps_.begin(), gaps_.begin() + static_cast<std::ptrdiff_t>(drop));
    double sum = 0.0;
    for (const auto& [s, e] : gaps_) {
      if (s >= issue) break;
      sum += std::min(e, issue) - std::max(s, due);
    }
    return sum;
  }

  /// Forgets everything (a new probe, a new clock origin).
  void reset() noexcept {
    gaps_.clear();
    total_ = 0.0;
    count_ = 0;
  }
  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::vector<std::pair<double, double>> gaps_;  // not yet forgotten
  double total_ = 0.0;
  std::uint64_t count_ = 0;
};

/// One traced interval. A span with calls > 1 aggregates many short calls
/// of one kind under one parent (a per-call span for every trace record
/// would cost more than the call); busy_s is then their summed duration.
struct Span {
  std::string name;  // "<layer>.<call>"
  int parent = -1;   // index into the span list, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t calls = 1;
  double busy_s = 0.0;  // time inside the span (end - start for one call)
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time of every span: its busy time minus the busy time of its direct
/// children. Children run inside their parent and never overlap each other
/// (the harness traces one thread, or adds another thread's span only after
/// joining it), so their busy times add.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].busy_s;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size())
      throw std::invalid_argument("span parent out of range");
    self[static_cast<std::size_t>(s.parent)] -= s.busy_s;
  }
  return self;
}

/// Self time summed per layer.
inline std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[layer_of(spans[i].name)] += self[i];
  return out;
}

}  // namespace pb
