#!/usr/bin/env python3
"""The repository benchmark: builds the library and the harness from source,
then runs one workload in a fresh process and prints its metrics.

    python3 perfbench/run.py --workload online-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20      # every workload, a table

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build (both relative to the current directory). With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it measures the per-layer metrics and writes its spans to
<build dir>/spans/<workload>-seed<N>.json. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when the build, the harness self-test and every
correctness check of the run passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    return proc.returncode == 0


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary paths."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {REPO / 'src'}; run from a full checkout")
        return None
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            log("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", str(build_dir), "-j", jobs],
                     timeout=840):
        log("build failed")
        return None
    harness = build_dir / "perfbench_harness"
    selftest = build_dir / "perfbench_selftest"
    if not (harness.is_file() and selftest.is_file()):
        log("build produced no harness")
        return None
    return harness, selftest


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(harness, workload, seed, seconds, trace, build_dir):
    """One fresh harness process. Returns (exit code, stdout lines)."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.splitlines()


def check_result(line, trace):
    """Parses the harness's result line and checks it against the contract;
    returns (result, problems)."""
    try:
        result = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        return None, ["the harness printed no result line"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected result keys {sorted(result)}")
        return result, problems
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing},"
                        f" unexpected {extra}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload NAME or --all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    t0 = time.monotonic()
    built = build(build_dir.resolve())
    if built is None:
        return 1
    harness, selftest = built
    if not run_quiet([str(selftest)], timeout=60):
        log("harness self-test failed; refusing to measure")
        return 1
    log(f"build and self-test took {time.monotonic() - t0:.1f} s")

    if args.all:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        ok = True
        for w in spec["workloads"]:
            code, lines = run_harness(harness, w["name"], args.seed,
                                      args.seconds, args.trace, build_dir)
            result, problems = check_result(lines[-1] if lines else "", args.trace)
            ok = ok and code == 0 and not problems and result["correct"]
            print(f"== {w['name']}: {w['why']}")
            for line in lines[:-1]:
                print(line)
            for p in problems:
                print(f"# CHECK FAILED: {p}")
            if result and "metrics" in result:
                print(f"   correct={result['correct']} attempted="
                      f"{result['attempted']} failed={result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
        return 0 if ok else 1

    code, lines = run_harness(harness, args.workload, args.seed, args.seconds,
                              args.trace, build_dir)
    result, problems = check_result(lines[-1] if lines else "", args.trace)
    for line in lines[:-1]:
        print(line)
    if result is None:
        log("; ".join(problems))
        return 1
    if problems:
        for p in problems:
            print(f"# CHECK FAILED: {p}")
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + 1
        code = code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
