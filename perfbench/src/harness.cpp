// perfbench_harness: runs one workload of the repository benchmark in this
// process and prints its metrics. perfbench/run.py builds this binary and
// starts one fresh process per run, so peak memory belongs to one workload.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; lines before it (prefixed '#')
// give the host context, sample counts and any failed check. Exit code 0
// only when every correctness check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::string names;
  for (const std::string& n : pb::workload_names())
    names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<%s> --seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why, names.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-')
    usage((std::string("bad value for ") + flag + ": '" + v + "'").c_str());
  return x;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  std::string spans;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_uint("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_uint("--seconds", value);
    } else if (flag == "--trace") {
      trace = parse_uint("--trace", value);
    } else if (flag == "--spans") {
      spans = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const pb::WorkloadDef* w = pb::find_workload(workload);
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) usage("--seed is required");
  if (seconds < 1 || seconds > 120) usage("--seconds must be in [1, 120]");
  if (trace > 1) usage("--trace must be 0 or 1");

  char host[256];
  std::snprintf(host, sizeof host,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
                "\"trace\": %llu, \"nproc\": %ld, \"hardware_threads\": %u, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
                w->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds),
                static_cast<unsigned long long>(trace),
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
  std::printf("# host: %s\n", host);

  pb::RunResult r;
  try {
    r = pb::run_workload(*w, seed, static_cast<double>(seconds), trace == 1,
                         spans, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& e : r.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  for (const pb::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# CHECK FAILED: metric %s is not a finite number\n",
                  m.name.c_str());
      r.correct = false;
      ++r.failed;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", json_escape(m.name).c_str(),
                  m.value, json_escape(m.unit).c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
