#!/usr/bin/env python3
"""Builds swallow_bench from source and runs the benchmark workloads.

    python3 benchmark/run.py                      # every workload, untraced
    python3 benchmark/run.py --workload replay-fvdf --seed 3 --trace 1
    python3 benchmark/run.py --results out/       # also keep result files

Each workload runs in its own process, so peak_rss_mb is per workload.
Every metric is printed as `workload metric value unit`. With one
--workload, the last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones, prints the layer
budget on stderr and writes the spans to .bench_build/spans/.

The build lives in .bench_build/ at the root of the checkout; build output
goes to stderr. Exits nonzero, without a result line, when the build fails
and nonzero when a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "swallow_bench"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and rebuilds incrementally. False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "swallow_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, commit):
    """Runs one workload in its own process; returns its result object."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--tmp-dir={tmp}", f"--commit={commit}"]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--traced", f"--trace-out={spans / (workload + '.jsonl')}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: {workload} exited {proc.returncode} with no result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def complete_metrics(result, expected, fill_zero):
    """Puts the metrics in BENCHMARK.json's order; returns the errors.

    A per-layer metric of a layer the workload does not exercise reads 0
    (fill_zero); an end-to-end metric must always be reported.
    """
    got = result["metrics"]
    errors = [f"unlisted metric {name}" for name in got
              if name not in {m["name"] for m in expected}]
    metrics = {}
    for m in expected:
        value = got.get(m["name"])
        if value is None and fill_zero:
            value = {"value": 0, "unit": m["unit"]}
        if value is None:
            errors.append(f"missing metric {m['name']}")
        elif value["unit"] != m["unit"]:
            errors.append(f"{m['name']} in {value['unit']}, not {m['unit']}")
        else:
            metrics[m["name"]] = value
    result["metrics"] = metrics
    return errors


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="directory to keep each run's full result file")
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    commit = git_commit()
    all_ok = True
    for workload in [args.workload] if args.workload else names:
        result = run_workload(workload, args.seed, args.seconds, args.trace,
                              commit)
        if result is None:
            return 1
        if result["correct"]:
            errors = complete_metrics(result, expected, fill_zero=args.trace)
            for e in errors:
                print(f"run.py: {workload}: {e}", file=sys.stderr)
            result["correct"] = not errors
        all_ok &= result["correct"]
        if args.results:
            args.results.mkdir(parents=True, exist_ok=True)
            kind = "traced" if args.trace else "e2e"
            path = args.results / f"{workload}-{kind}-seed{args.seed}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
        for name, m in result["metrics"].items():
            print(f"{workload} {name} {m['value']!r} {m['unit']}")
        if args.workload:
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
