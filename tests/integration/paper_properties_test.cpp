// End-to-end assertions of the paper's qualitative claims, at miniature
// scale so the whole suite stays fast. The bench binaries reproduce the
// full-scale figures; these tests pin the *shape* of every headline result
// so regressions are caught by ctest.
#include <gtest/gtest.h>

#include "eval/scenario.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::eval {
namespace {

ScenarioSpec base_spec(std::uint64_t seed = 201) {
  ScenarioSpec s;
  s.workload.num_nodes = 48;
  s.workload.duration_s = 1800.0;
  s.workload.seed = seed;
  s.client.heuristic = HeuristicConfig::always();
  return s;
}

double median_err(const ScenarioSpec& s) {
  return run_scenario(s).metrics.median_relative_error();
}

// --- Sec. IV / Fig. 5: the MP filter improves accuracy AND stability. -----

TEST(PaperProperties, MpFilterBeatsRawOnBothMetrics) {
  ScenarioSpec mp = base_spec();
  mp.client.filter = FilterConfig::moving_percentile(4, 25);
  ScenarioSpec raw = base_spec();
  raw.client.filter = FilterConfig::none();

  const auto mp_out = run_scenario(mp);
  const auto raw_out = run_scenario(raw);

  EXPECT_LT(mp_out.metrics.median_relative_error(),
            raw_out.metrics.median_relative_error() * 0.75);
  EXPECT_LT(mp_out.metrics.median_instability_ms_per_s(),
            raw_out.metrics.median_instability_ms_per_s() * 0.6);
  // Fig. 5 bottom: the filter removes the catastrophic instability tail.
  EXPECT_LT(mp_out.metrics.instability().quantile(0.99),
            raw_out.metrics.instability().quantile(0.99) * 0.5);
}

// --- Sec. IV-B / Table I: EWMA smoothing is WORSE than no filter. ---------

TEST(PaperProperties, EwmaWorseThanNoFilterOnAccuracy) {
  ScenarioSpec raw = base_spec();
  raw.client.filter = FilterConfig::none();
  ScenarioSpec ewma = base_spec();
  ewma.client.filter = FilterConfig::ewma(0.20);

  // Outliers are impulses to discard, not trends to track: the EWMA smears
  // them across subsequent samples and loses even to the raw stream (the
  // paper's Table I shows the same ordering, with larger margins on their
  // uncapped PlanetLab extremes).
  EXPECT_GT(median_err(ewma), median_err(raw));
}

TEST(PaperProperties, LowAlphaEwmaStillLosesToMp) {
  ScenarioSpec mp = base_spec();
  ScenarioSpec ewma = base_spec();
  ewma.client.filter = FilterConfig::ewma(0.02);
  EXPECT_GT(median_err(ewma), median_err(mp) * 1.3);
}

// --- Sec. V / Figs. 8-11: windowed heuristics keep accuracy, add stability.

TEST(PaperProperties, EnergyKeepsAccuracyAndCutsInstability) {
  ScenarioSpec raw_mp = base_spec();
  ScenarioSpec energy = base_spec();
  energy.client.heuristic = HeuristicConfig::energy(8.0, 32);

  const auto a = run_scenario(raw_mp);
  const auto b = run_scenario(energy);

  EXPECT_LT(b.metrics.median_instability_ms_per_s(),
            a.metrics.median_instability_ms_per_s() / 5.0);
  EXPECT_LT(b.metrics.median_relative_error(),
            a.metrics.median_relative_error() * 1.5 + 0.03);
  EXPECT_LT(b.metrics.total_app_updates(), a.metrics.total_app_updates() / 10);
}

TEST(PaperProperties, RelativeKeepsAccuracyAndCutsInstability) {
  ScenarioSpec raw_mp = base_spec();
  ScenarioSpec rel = base_spec();
  rel.client.heuristic = HeuristicConfig::relative(0.3, 32);

  const auto a = run_scenario(raw_mp);
  const auto b = run_scenario(rel);

  EXPECT_LT(b.metrics.median_instability_ms_per_s(),
            a.metrics.median_instability_ms_per_s() / 3.0);
  EXPECT_LT(b.metrics.median_relative_error(),
            a.metrics.median_relative_error() * 1.5 + 0.03);
}

// --- Fig. 8: raising the update threshold monotonically adds stability. ---

TEST(PaperProperties, HigherEnergyThresholdMoreStable) {
  ScenarioSpec lo = base_spec();
  lo.client.heuristic = HeuristicConfig::energy(1.0, 32);
  ScenarioSpec hi = base_spec();
  hi.client.heuristic = HeuristicConfig::energy(64.0, 32);
  const auto out_lo = run_scenario(lo);
  const auto out_hi = run_scenario(hi);
  EXPECT_LE(out_hi.metrics.total_app_updates(), out_lo.metrics.total_app_updates());
  EXPECT_LE(out_hi.metrics.median_instability_ms_per_s(),
            out_lo.metrics.median_instability_ms_per_s() + 1e-9);
}

// --- Fig. 10: windowless heuristics trade accuracy for stability. ---------

TEST(PaperProperties, WindowlessLargeTauLosesAccuracy) {
  ScenarioSpec small_tau = base_spec();
  small_tau.client.heuristic = HeuristicConfig::application(2.0);
  ScenarioSpec large_tau = base_spec();
  large_tau.client.heuristic = HeuristicConfig::application(256.0);

  const auto a = run_scenario(small_tau);
  const auto b = run_scenario(large_tau);
  // A huge tau rarely updates: stable but inaccurate.
  EXPECT_LT(b.metrics.median_instability_ms_per_s(),
            a.metrics.median_instability_ms_per_s());
  EXPECT_GT(b.metrics.median_relative_error(),
            a.metrics.median_relative_error() * 1.5);
}

// --- Sec. VI: warm-up delay absorbs first-sample outliers. -----------------

TEST(PaperProperties, MinSamplesReducesEarlyInstability) {
  // Early in a run, links whose FIRST observation is an extreme outlier
  // distort the space (Sec. VI). Waiting for the second sample removes the
  // worst of it. Measure instability over the whole run including start-up.
  ScenarioSpec eager = base_spec(207);
  eager.measurement.measure_start_s = 0.0;
  eager.client.filter = FilterConfig::moving_percentile(4, 25, 1);
  ScenarioSpec delayed = base_spec(207);
  delayed.measurement.measure_start_s = 0.0;
  delayed.client.filter = FilterConfig::moving_percentile(4, 25, 2);

  const auto a = run_scenario(eager);
  const auto b = run_scenario(delayed);
  EXPECT_LT(b.metrics.instability().quantile(0.99),
            a.metrics.instability().quantile(0.99));
}

// --- Sec. VII-B: de Launois damping cannot adapt to route changes. --------

TEST(PaperProperties, DampingFailsToAdaptAfterRouteChange) {
  // Shift every link of node 0 by 3x halfway through; measure only after.
  const auto with_damping = [](double damping) {
    ScenarioSpec s = base_spec(209);
    s.workload.duration_s = 2400.0;
    s.measurement.measure_start_s = 2000.0;
    s.client.vivaldi.delaunois_damping = damping;
    s.measurement.collect_oracle = true;
    for (NodeId j = 1; j < s.workload.num_nodes; ++j)
      s.workload.route_changes.push_back({0, j, 3.0, 1200.0});
    return run_scenario(s);
  };
  const auto adaptive = with_damping(0.0);
  const auto damped = with_damping(10.0);
  // Ground-truth error of the shifted node: the adaptive system re-embeds
  // node 0; the damped one is frozen near node 0's stale position, so the
  // worst-node oracle error stays high.
  const auto adaptive_cdf = adaptive.metrics.oracle_per_node_median_error();
  const auto damped_cdf = damped.metrics.oracle_per_node_median_error();
  EXPECT_LT(adaptive_cdf.max(), damped_cdf.max());
}

// --- Fig. 6: confidence building on a low-latency cluster. ----------------

TEST(PaperProperties, ConfidenceBuildingHelpsOnCluster) {
  const auto cluster_confidence = [](double margin) {
    ScenarioSpec s;
    s.workload.num_nodes = 3;
    s.workload.duration_s = 600.0;
    s.workload.seed = 211;
    lat::TopologyConfig topo;
    topo.num_nodes = 3;
    topo.regions = {{"cluster", Vec{0.0, 0.0, 0.0}, 0.15, 1.0}};
    topo.height_log_mu = -1.5;  // tiny access heights
    topo.height_log_sigma = 0.2;
    topo.height_min_ms = 0.1;
    topo.height_max_ms = 0.3;
    s.workload.topology = topo;
    lat::LinkModelConfig lm;
    lm.body_sigma = 0.35;          // jitter comparable to the latency itself
    lm.base_spike_prob = 0.05;     // 5% of observations above 1.2 ms
    lm.spike_xm_min_ms = 0.5;
    lm.spike_xm_max_ms = 1.5;
    lm.spike_alpha = 1.5;
    lm.loss_prob = 0.0;
    s.workload.link_model = lm;
    s.workload.availability = lat::AvailabilityConfig{.enabled = false};
    s.client.filter = FilterConfig::none();
    s.client.heuristic = HeuristicConfig::always();
    s.client.vivaldi.confidence_margin_ms = margin;

    // Run manually to read final confidences.
    lat::TraceGenerator gen(resolve_trace_config(s.workload));
    sim::ReplayConfig rc;
    rc.client = s.client;
    rc.duration_s = s.workload.duration_s;
    rc.measure_start_s = 300.0;
    sim::ShardedEngine engine(rc, gen.num_nodes());
    engine.run(gen);
    double sum = 0.0;
    for (NodeId id = 0; id < 3; ++id) sum += engine.client(id).confidence();
    return sum / 3.0;
  };
  const double without = cluster_confidence(0.0);
  const double with_margin = cluster_confidence(3.0);
  EXPECT_GT(with_margin, 0.95);
  EXPECT_LT(without, 0.90);
  EXPECT_GT(with_margin, without + 0.05);
}

// --- Determinism: a full experiment is a pure function of its spec. -------

TEST(PaperProperties, ExperimentsAreDeterministic) {
  ScenarioSpec s = base_spec(213);
  s.workload.num_nodes = 24;
  s.workload.duration_s = 600.0;
  s.client.heuristic = HeuristicConfig::energy(8.0, 32);
  const auto a = run_scenario(s);
  const auto b = run_scenario(s);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.metrics.median_relative_error(), b.metrics.median_relative_error());
  EXPECT_EQ(a.metrics.total_app_updates(), b.metrics.total_app_updates());
}

}  // namespace
}  // namespace nc::eval
