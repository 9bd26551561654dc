// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

enum class Publish { kNone, kFull, kDelta };

/// One workload: a registry preset driven at a fixed size through the
/// library's public API. The comment on each entry in workloads.cpp says
/// why it is in the benchmark.
struct WorkloadDef {
  const char* name;
  const char* preset;       // eval registry preset
  bool replay;              // replay mode fed by the trace generator
  int nodes;
  int shards;               // engine worker shards (busy threads)
  double sim_seconds;       // simulated length of one engine round
  Publish publish;
  bool concurrent_serve;    // queries run while the engine runs
  bool verify_one_shard;    // gate: a one-shard round must match
  // Serving probes (concurrent on serve-1k, on the final embedding elsewhere).
  // The rate the fixed windows (the p50s and query_p99_us) are taken at:
  // a few percent of capacity, mostly idle, so the p99 lands inside the
  // nearest-k scans' service times (8% of the mix) and the host stalls
  // the client cannot see (those during a query) stay far below 1%.
  double fixed_rate_qps;
  double p99_limit_us;      // the limit max_qps_p99 is searched against
  double search_hi_qps;     // a rate that always fails the limit
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   // human-readable, printed before the result
  std::vector<std::string> errors;  // failed correctness checks
};

/// Runs `w` for about `seconds` of wall time with inputs made from `seed`.
/// trace=false measures the end-to-end metrics; trace=true measures the
/// per-layer metrics and writes the spans to `span_path`.
[[nodiscard]] RunResult run_workload(const WorkloadDef& w, std::uint64_t seed,
                                     double seconds, bool trace,
                                     const std::string& span_path,
                                     const std::string& host_context);

}  // namespace pb
