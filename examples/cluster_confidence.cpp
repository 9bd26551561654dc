// Confidence building on a low-latency cluster (paper Sec. IV-B, Fig. 6).
//
// On links whose true latency sits below the measurement precision (~1 ms on
// a 2005 cluster), scheduling jitter keeps Vivaldi's relative error — and
// thus its confidence — pinned down. Allowing a small margin of error
// (treating |predicted - measured| <= 3 ms as exact) lets cluster nodes
// reach full confidence. This example uses the Vivaldi class directly: the
// lowest-level public API.
//
//   build/examples/cluster_confidence [--margin=3]
#include <cstdio>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/vivaldi.hpp"

using namespace nc;

namespace {

double steady_state_confidence(double margin_ms, std::uint64_t seed) {
  VivaldiConfig cfg;
  cfg.dim = 3;
  cfg.confidence_margin_ms = margin_ms;

  Vivaldi a(cfg, 1), b(cfg, 2), c(cfg, 3);
  Rng rng(seed);

  // Cluster RTTs: ~0.4-1.2 ms of scheduler noise around a 0.7 ms latency,
  // with a 5% tail above 1.2 ms (context switches) — Fig. 6's setup.
  const auto sample = [&rng]() {
    double rtt = rng.uniform(0.4, 1.2);
    if (rng.bernoulli(0.05)) rtt += rng.uniform(0.5, 2.0);
    return rtt;
  };

  double confidence_sum = 0.0;
  int samples = 0;
  for (int second = 0; second < 600; ++second) {
    // Round-robin: each node measures one peer per second.
    a.observe(second % 2 == 0 ? b.coordinate() : c.coordinate(),
              second % 2 == 0 ? b.error_estimate() : c.error_estimate(), sample());
    b.observe(second % 2 == 0 ? c.coordinate() : a.coordinate(),
              second % 2 == 0 ? c.error_estimate() : a.error_estimate(), sample());
    c.observe(second % 2 == 0 ? a.coordinate() : b.coordinate(),
              second % 2 == 0 ? a.error_estimate() : b.error_estimate(), sample());
    if (second >= 300) {  // steady state only
      confidence_sum += a.confidence();
      ++samples;
    }
  }
  return confidence_sum / samples;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse_or_exit(argc, argv, {"margin"});
  const double margin = flags.get_double("margin", 3.0);

  std::printf("three-node cluster, 10 minutes of 1 Hz sampling:\n");
  std::printf("  steady-state confidence without margin: %.3f (paper: ~0.75)\n",
              steady_state_confidence(0.0, 5));
  std::printf("  steady-state confidence with %.0f ms margin: %.3f (paper: ~1.0)\n",
              margin, steady_state_confidence(margin, 5));
  std::printf("\nthe margin absorbs timing jitter that would otherwise read as\n"
              "persistent prediction error on sub-millisecond links.\n");
  return 0;
}
