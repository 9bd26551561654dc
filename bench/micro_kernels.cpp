// Kernel microbenchmarks (google-benchmark): per-observation costs of the
// coordinate pipeline and the supporting data structures. The headline is
// the ENERGY heuristic's incremental energy distance: O(k) per observation
// against the naive O(k^2) recomputation (DESIGN.md ablation).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/filters/mp_filter.hpp"
#include "core/nc_client.hpp"
#include "core/vivaldi.hpp"
#include "latency/trace_generator.hpp"
#include "sim/shard_mailbox.hpp"
#include "stats/energy.hpp"
#include "stats/p2_quantile.hpp"

namespace {

using namespace nc;

void BM_VecDistance(benchmark::State& state) {
  Rng rng(1);
  const Vec a = rng.unit_vector(3) * 50.0;
  const Vec b = rng.unit_vector(3) * 80.0;
  for (auto _ : state) benchmark::DoNotOptimize(a.distance_to(b));
}
BENCHMARK(BM_VecDistance);

void BM_VivaldiObserve(benchmark::State& state) {
  VivaldiConfig cfg;
  Vivaldi v(cfg, 1);
  Rng rng(2);
  const Coordinate remote{Vec{50.0, 20.0, -10.0}};
  double rtt = 60.0;
  for (auto _ : state) {
    rtt = 40.0 + rng.uniform(0.0, 40.0);
    benchmark::DoNotOptimize(v.observe(remote, 0.3, rtt));
  }
}
BENCHMARK(BM_VivaldiObserve);

void BM_MpFilterUpdate(benchmark::State& state) {
  MovingPercentileFilter f(static_cast<int>(state.range(0)), 25.0);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(f.update(rng.lognormal(4.0, 0.8)));
}
BENCHMARK(BM_MpFilterUpdate)->Arg(4)->Arg(32)->Arg(128);

void BM_P2QuantileAdd(benchmark::State& state) {
  stats::P2Quantile q(0.95);
  Rng rng(4);
  for (auto _ : state) {
    q.add(rng.lognormal(4.0, 0.8));
    benchmark::DoNotOptimize(q.value());
  }
}
BENCHMARK(BM_P2QuantileAdd);

std::vector<Vec> window_of(int k, Rng& rng, double center) {
  std::vector<Vec> w;
  w.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    w.push_back(rng.unit_vector(3) * rng.uniform(0.0, 10.0) +
                Vec{center, 0.0, 0.0});
  return w;
}

// Naive: recompute e(Ws, Wc) from scratch on every slide — O(k^2).
void BM_EnergySlideNaive(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  const auto base = window_of(k, rng, 0.0);
  std::vector<Vec> current = window_of(k, rng, 5.0);
  for (auto _ : state) {
    current.erase(current.begin());
    current.push_back(rng.unit_vector(3) * rng.uniform(0.0, 10.0));
    benchmark::DoNotOptimize(stats::energy_distance(base, current));
  }
}
BENCHMARK(BM_EnergySlideNaive)->Arg(16)->Arg(32)->Arg(64);

// Incremental: maintain the pair sums under push/pop — O(k).
void BM_EnergySlideIncremental(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  const auto base = window_of(k, rng, 0.0);
  stats::IncrementalEnergy inc;
  for (const Vec& v : window_of(k, rng, 5.0)) inc.push_current(v);
  inc.set_base(base);
  for (auto _ : state) {
    inc.push_current(rng.unit_vector(3) * rng.uniform(0.0, 10.0));
    inc.pop_current();
    benchmark::DoNotOptimize(inc.value());
  }
}
BENCHMARK(BM_EnergySlideIncremental)->Arg(16)->Arg(32)->Arg(64)->Arg(256);

// Full per-observation pipeline: filter + Vivaldi + ENERGY heuristic.
void BM_NCClientObserve(benchmark::State& state) {
  NCClientConfig cfg;
  cfg.heuristic = HeuristicConfig::energy(8.0, 32);
  NCClient client(0, cfg);
  Rng rng(6);
  const Coordinate remote{Vec{50.0, 20.0, -10.0}};
  NodeId peer = 1;
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    peer = 1 + (peer + 1) % 64;  // cycle a working set of links
    benchmark::DoNotOptimize(
        client.observe(peer, remote, 0.3, 40.0 + rng.uniform(0.0, 40.0), t));
  }
}
BENCHMARK(BM_NCClientObserve);

void BM_TraceGeneration(benchmark::State& state) {
  lat::TraceGenConfig cfg;
  cfg.topology.num_nodes = 128;
  cfg.duration_s = 1e9;  // effectively unbounded for the benchmark
  cfg.seed = 7;
  lat::TraceGenerator gen(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

// The sharded engine's epoch rhythm on its calendar queue: one bulk batch
// of epoch-clamped deliveries, then drain the epoch while re-arming one
// timer per pop. Reported per processed event.
void BM_ShardEventQueueEpochBatch(benchmark::State& state) {
  const int kTimers = 256;
  const int kBatch = 512;
  sim::ShardEventQueue q;
  Rng rng(9);
  double epoch = 0.0;
  const double interval = 5.0;
  for (int i = 0; i < kTimers; ++i) {
    sim::ShardEvent ev;
    ev.t = rng.uniform(0.0, interval);
    ev.kind = sim::ShardEventKind::kPingTimer;
    ev.a = i;
    q.push(ev);
  }
  std::vector<sim::ShardEvent> batch;
  std::uint64_t processed = 0;
  while (state.KeepRunningBatch(kTimers + kBatch)) {
    batch.clear();
    for (int i = 0; i < kBatch; ++i) {
      sim::ShardEvent ev;
      ev.t = epoch;  // clamped delivery: all at the epoch start
      ev.kind = (i & 1) != 0 ? sim::ShardEventKind::kPong
                             : sim::ShardEventKind::kPing;
      ev.a = static_cast<NodeId>(rng.uniform_int(kTimers));
      ev.b = static_cast<NodeId>(rng.uniform_int(kTimers));
      ev.seq = processed + static_cast<std::uint64_t>(i);
      batch.push_back(ev);
    }
    q.push_batch(batch);
    epoch += interval;
    while (q.has_event_before(epoch)) {
      sim::ShardEvent ev = q.pop();
      ++processed;
      if (ev.kind == sim::ShardEventKind::kPingTimer) {
        ev.t += interval;
        q.push(ev);
      }
      benchmark::DoNotOptimize(ev);
    }
  }
}
BENCHMARK(BM_ShardEventQueueEpochBatch);

}  // namespace

BENCHMARK_MAIN();
