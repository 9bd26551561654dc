// Self-test of the benchmark's own arithmetic: percentiles, the max-rate
// search, host stall accounting and span self time. perfbench/run.py runs it
// after every build and refuses to measure if it fails. Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

void test_percentile() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  check(near(pb::percentile(v, 50), 3.0), "median of 1..5 is 3");
  check(near(pb::percentile(v, 0), 1.0), "p0 is the minimum");
  check(near(pb::percentile(v, 100), 5.0), "p100 is the maximum");
  // Position 0.25 * 4 = 1 exactly: the second order statistic.
  check(near(pb::percentile(v, 25), 2.0), "p25 of 1..5 is 2");
  // Interpolation: even count, median between the two middle values.
  std::vector<double> e = {10, 40, 20, 30};
  check(near(pb::median(e), 25.0), "median of 10,20,30,40 is 25");
  // p99 of 1..101: position 99 -> the value 100.
  std::vector<double> h;
  for (int i = 101; i >= 1; --i) h.push_back(i);
  check(near(pb::percentile(h, 99), 100.0), "p99 of 1..101 is 100");
  // Interpolated tail: p90 of 0..9 at position 8.1 -> 8.1.
  std::vector<double> t = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  check(near(pb::percentile(t, 90), 8.1), "p90 of 0..9 is 8.1");
  // +infinity (a probe whose backlog grew) stays +infinity, never NaN.
  const double inf = std::numeric_limits<double>::infinity();
  check(pb::median({inf, inf, inf}) == inf, "median of +inf values is +inf");
  check(pb::median({1.0, inf, inf, inf}) == inf, "interpolating to +inf");
  std::vector<double> one = {7.5};
  check(near(pb::percentile(one, 99), 7.5), "any percentile of one value");
  // Same quartiles as Python's statistics.quantiles(method='inclusive').
  std::vector<double> q = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  check(near(pb::percentile(q, 25), 3.25), "p25 of 1..10 is 3.25");
  check(near(pb::percentile(q, 75), 7.75), "p75 of 1..10 is 7.75");
  bool threw = false;
  try {
    std::vector<double> empty;
    (void)pb::percentile(empty, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of an empty sample throws");
}

/// Runs a search against a sharp threshold; the first `stalled_probes`
/// probes fail regardless (host stalls).
double search(double threshold, double lo, double hi, double resolution,
              int* probes, int stalled_probes) {
  pb::RateSearch s(lo, hi, resolution, 3);
  int stalls = 0;
  while (!s.done()) {
    const double r = s.next_rate();
    bool pass = r <= threshold;
    if (stalls < stalled_probes) {
      pass = false;
      ++stalls;
    }
    s.report(pass);
  }
  *probes = s.probes();
  return s.result();
}

void test_rate_search() {
  int probes = 0;
  const double found = search(480000.0, 50000.0, 2.0e6, 0.02, &probes, 0);
  check(found <= 480000.0, "search result passes the threshold");
  check(found >= 480000.0 / 1.02, "search result within 2% of the threshold");
  // Each pass halves the log distance, each fail costs three probes:
  // log2(ln(40)/ln(1.02)) ~ 7.5 decisions.
  check(probes <= 3 * 8, "search needs at most 24 probes");
  // Two stalled probes in a row do not move the answer; three do.
  const double stalled = search(480000.0, 50000.0, 2.0e6, 0.02, &probes, 2);
  check(near(stalled, found), "failed probes are retried");
  const double moved = search(480000.0, 50000.0, 2.0e6, 0.02, &probes, 3);
  check(moved < 480000.0 / 1.02, "three failed probes in a row count");
  // A threshold above the bracket converges on the top.
  const double top = search(5.0e6, 50000.0, 2.0e6, 0.02, &probes, 0);
  check(top >= 2.0e6 / 1.02 && top < 2.0e6, "threshold above the bracket");
  // Below the bracket: nothing but the known-passing rate.
  const double bottom = search(1000.0, 50000.0, 2.0e6, 0.02, &probes, 0);
  check(near(bottom, 50000.0), "threshold below the bracket");
  bool threw = false;
  try {
    pb::RateSearch bad(2.0, 1.0, 0.02, 3);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "search needs pass < fail");
}

void test_crossing_rate() {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> rates = {100, 200, 400, 800};
  // Crossing between 200 (p99 25) and 400 (p99 100) at limit 50: halfway in
  // log(p99), so halfway in log(rate): sqrt(200 * 400).
  check(near(pb::crossing_rate(rates, {10, 25, 100, 900}, 50), std::sqrt(200.0 * 400.0)),
        "crossing interpolates in log(rate) and log(p99)");
  check(near(pb::crossing_rate(rates, {10, 40, 50, 90}, 50), 400.0),
        "a p99 equal to the limit passes");
  check(near(pb::crossing_rate(rates, {10, 40, inf, inf}, 50), 200.0),
        "a growing backlog ends the walk at the last passing rate");
  check(near(pb::crossing_rate(rates, {60, 40, 30, 20}, 50), 100.0),
        "the lowest rate already fails");
  check(near(pb::crossing_rate(rates, {10, 20, 30, 40}, 50), 800.0),
        "no rate fails");
  // Non-monotone noise: the first failure ends the walk.
  check(near(pb::crossing_rate(rates, {10, 250, 30, 90}, 50),
             100.0 * std::pow(2.0, std::log(5.0) / std::log(25.0))),
        "the first failing rate ends the walk");
}

void test_stall_log() {
  pb::StallLog log;
  check(log.overlap(0.0, 5.0) == 0.0, "no stalls, nothing to charge");
  // The client spins to a due time of 10 and loses the vCPU over [8, 40].
  log.record(8.0, 40.0);
  // The query it waited for: only the part after its due time counts.
  check(near(log.overlap(10.0, 40.0), 30.0), "stall straddling the due time");
  // A query due inside the stall, issued at 45 behind the first one.
  check(near(log.overlap(25.0, 45.0), 15.0), "query due during the stall");
  // Due after the stall ended: nothing, and the stall is forgotten.
  check(log.overlap(41.0, 50.0) == 0.0, "query due after the stall");
  // Two stalls inside one query's wait both count.
  log.record(60.0, 62.0);
  log.record(70.0, 75.0);
  check(near(log.overlap(55.0, 80.0), 7.0), "two stalls in one wait");
  // A stall after the issue is not charged to the query.
  log.record(90.0, 95.0);
  check(near(log.overlap(71.0, 85.0), 4.0), "stalls after the issue are not charged");
  check(near(log.total(), 32.0 + 2.0 + 5.0 + 5.0), "total stalled time");
  check(log.count() == 4, "stall count");
  bool threw = false;
  try {
    log.record(93.0, 99.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "stalls out of order throw");
  log.reset();
  check(log.count() == 0 && log.total() == 0.0, "reset forgets the stalls");
  check(log.overlap(0.0, 100.0) == 0.0, "reset forgets the gaps");
}

void test_self_time() {
  // root [0, 10] > a [1, 4] > a1 [2, 3]; root > b: 1000 calls, 2.5 s busy.
  std::vector<pb::Span> spans = {
      {"harness.round", -1, 0.0, 10.0, 1, 10.0},
      {"sim.run", 0, 1.0, 4.0, 1, 3.0},
      {"latency.trace_next", 1, 2.0, 3.0, 1, 1.0},
      {"serve.query", 0, 4.0, 9.0, 1000, 2.5},
  };
  const std::vector<double> self = pb::self_times(spans);
  check(near(self[0], 10.0 - 3.0 - 2.5), "root self time excludes children");
  check(near(self[1], 2.0), "nested self time excludes grandchildren once");
  check(near(self[2], 1.0), "leaf self time is its busy time");
  check(near(self[3], 2.5), "aggregate span self time is its busy time");
  const auto by_layer = pb::self_time_by_layer(spans);
  check(near(by_layer.at("harness"), 4.5), "harness layer self time");
  check(near(by_layer.at("sim"), 2.0), "sim layer self time");
  check(near(by_layer.at("latency"), 1.0), "latency layer self time");
  double total = 0.0;
  for (const auto& [layer, s] : by_layer) total += s;
  check(near(total, 10.0), "layer self times add up to the root span");
  check(pb::layer_of("core.observe") == "core", "layer of a span name");
}

}  // namespace

int main() {
  test_percentile();
  test_rate_search();
  test_crossing_rate();
  test_stall_log();
  test_self_time();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
