#!/usr/bin/env python3
"""Gate wall-clock perf against a checked-in baseline.

Both inputs are SWALLOW_BENCH_JSON files: one JSON object per line,
{"bench": <name>, "metrics": {"gauges": {<metric>: <value>, ...}},
 "host": {"nproc": <cores>, "build_type": <type>, "compiler": <id>}}.

Only timing metrics are gated, with direction taken from the name:

  *_ms            lower is better  -> fail if current > baseline * (1 + tol)
  *_mbps,
  *.speedup,
  *.scaling,
  *.met_fraction  higher is better -> fail if current < baseline / (1 + tol)

(met_fraction is an SLO-quality gauge, not wall-clock, but it gates the same
way: the deadline bench is deterministic, so any drop is a behavior change.)

Everything else (JCT/CCT gauges, counters) is correctness data owned by the
benches and tests, not a perf gate. The check is one-sided on purpose:
wall-clock baselines are machine-dependent, so getting faster never fails,
and the tolerance absorbs runner jitter.

Usage:
  tools/check_bench_regression.py --baseline BENCH_engine.json \
      [--baseline BENCH_scale.json ...] --current bench_out.json \
      [--tolerance 0.25] [--metric-tolerance 'bench_engine_scale/*=0.6' ...]

--baseline is repeatable: the files merge in order, later files winning on
conflicting (bench, metric) keys. --metric-tolerance overrides the global
tolerance for matching metrics; PATTERN is an fnmatch glob tried against
"<bench>/<metric>" and then against the bare metric name, first matching
override (in argument order) wins. Wall-clock-dominated benches get looser
gates that way without loosening the cheap, stable microbenches.

The host facts of the baseline and of the candidate are printed, with a
warning when they differ or a baseline line has none (files written before
the benches stamped them); the gate's verdict does not depend on them.

Exits 0 when every gated metric is within tolerance (or has no baseline),
1 on any regression, 2 on malformed input (an unreadable file, a line that
is not a JSON object, a bench that is not a string, a host, metrics or
metrics.gauges that is not an object, a bad --metric-tolerance, or a
candidate without gauges), which is reported on stderr.
"""

import argparse
import fnmatch
import json
import sys


def malformed(message):
    """Reports malformed input on stderr and exits 2."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def expect(value, kind, where, complaint):
    """`value` if it is a `kind`; otherwise reports `complaint` at `where`."""
    if not isinstance(value, kind):
        malformed(f"{where}: {complaint}")
    return value


def load_metrics(path):
    """Returns ({(bench, metric): value}, hosts) for the file.

    A bench appearing multiple times keeps its last line (a re-run appends).
    `hosts` lists each distinct host object once, in file order, as a
    sorted tuple of items; None stands for lines without one.
    """
    out = {}
    hosts = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(enumerate(fh, 1))
    except (OSError, UnicodeDecodeError) as e:
        malformed(f"{path}: cannot read: {e}")
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            malformed(f"{where}: bad JSON line: {e}")
        expect(row, dict, where, "the line is not an object")
        bench = expect(row.get("bench", "bench"), str, where,
                       "bench is not a string")
        host = row.get("host")
        if host is not None:
            expect(host, dict, where, "host is not an object")
        host = tuple(sorted(host.items())) if host else None
        if host not in hosts:
            hosts.append(host)
        metrics = expect(row.get("metrics", {}), dict, where,
                         "metrics is not an object")
        gauges = expect(metrics.get("gauges", {}), dict, where,
                        "metrics.gauges is not an object")
        for metric, value in gauges.items():
            if isinstance(value, (int, float)):
                out[(bench, metric)] = float(value)
    return out, hosts


def describe(host):
    if host is None:
        return "no host facts"
    return " ".join(f"{k}={v}" for k, v in host)


def report_hosts(baseline_hosts, current_hosts):
    """Prints each file's host facts; warns on a difference or a gap."""
    for path, hosts in baseline_hosts:
        for host in hosts:
            print(f"baseline host  {path}: {describe(host)}")
    for host in current_hosts:
        print(f"candidate host: {describe(host)}")
    for path, hosts in baseline_hosts:
        if None in hosts:
            print(
                f"warning: {path} has lines without host facts; "
                f"it may come from another host than the candidate"
            )
        differ = [h for h in hosts if h is not None and h not in current_hosts]
        if differ:
            print(
                f"warning: {path} was measured on another host "
                f"({describe(differ[0])}) than the candidate"
            )


def direction(metric):
    """'down' if lower is better, 'up' if higher is better, None if ungated."""
    if metric.endswith("_ms"):
        return "down"
    if (
        metric.endswith("_mbps")
        or metric.endswith(".speedup")
        or metric.endswith(".scaling")
        or metric.endswith(".met_fraction")
    ):
        return "up"
    return None


def parse_metric_tolerances(specs):
    """Parses repeated PATTERN=TOL specs into [(pattern, tol)], in order."""
    out = []
    for spec in specs or []:
        pattern, sep, tol = spec.rpartition("=")
        if not sep or not pattern:
            malformed(f"--metric-tolerance {spec!r}: expected PATTERN=TOL")
        try:
            out.append((pattern, float(tol)))
        except ValueError:
            malformed(f"--metric-tolerance {spec!r}: TOL must be a number")
    return out


def tolerance_for(key, overrides, default):
    """First override whose glob matches "bench/metric" or the bare metric."""
    qualified = f"{key[0]}/{key[1]}"
    for pattern, tol in overrides:
        if fnmatch.fnmatch(qualified, pattern) or fnmatch.fnmatch(
            key[1], pattern
        ):
            return tol
    return default


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        action="append",
        required=True,
        help="baseline JSON file; repeatable, later files win on conflicts",
    )
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--metric-tolerance",
        action="append",
        metavar="PATTERN=TOL",
        help="per-metric tolerance override; PATTERN is an fnmatch glob "
        "against '<bench>/<metric>' or the bare metric name",
    )
    args = parser.parse_args()
    overrides = parse_metric_tolerances(args.metric_tolerance)

    baseline = {}
    baseline_hosts = []
    for path in args.baseline:
        metrics, hosts = load_metrics(path)
        baseline.update(metrics)
        baseline_hosts.append((path, hosts))
    current, current_hosts = load_metrics(args.current)
    report_hosts(baseline_hosts, current_hosts)
    if not current:
        malformed(f"{args.current}: no gauge metrics found")

    failures = []
    missing = []
    checked = 0
    for key, base in sorted(baseline.items()):
        sense = direction(key[1])
        if sense is None:
            continue
        if key not in current:
            # A gated metric the candidate never reported is a regression in
            # its own right (a silently dropped bench or renamed gauge would
            # otherwise pass the gate by absence).
            print(
                f"  MISSING  {key[0]}  {key[1]}: baseline={base:.4g} "
                f"but the candidate run did not report this metric"
            )
            missing.append(key)
            continue
        cur = current[key]
        checked += 1
        tolerance = tolerance_for(key, overrides, args.tolerance)
        if sense == "down":
            limit = base * (1.0 + tolerance)
            ok = cur <= limit
            delta = (cur / base - 1.0) if base > 0 else 0.0
        else:
            limit = base / (1.0 + tolerance)
            ok = cur >= limit
            delta = (base / cur - 1.0) if cur > 0 else float("inf")
        status = "ok" if ok else "REGRESSED"
        print(
            f"{status:>9}  {key[0]}  {key[1]}: "
            f"baseline={base:.4g} current={cur:.4g} "
            f"({delta:+.1%} vs tolerance {tolerance:.0%})"
        )
        if not ok:
            failures.append(key)

    # New gated metrics without a baseline are fine (the next baseline
    # refresh picks them up) but worth surfacing so the refresh happens.
    for key in sorted(current):
        if direction(key[1]) is not None and key not in baseline:
            print(
                f"warning: {key[0]}  {key[1]}: candidate metric has no "
                f"baseline (refresh the baseline JSON to gate it)"
            )

    print(
        f"\n{checked} timing metric(s) checked against "
        f"{', '.join(args.baseline)}; {len(failures)} regression(s), "
        f"{len(missing)} missing from candidate"
    )
    if checked == 0:
        print("warning: baseline and current share no timing metrics")
    return 1 if failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
