#!/usr/bin/env python3
"""Compares two sets of benchmark result files, metric by metric.

    python3 benchmark/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by `run.py --results DIR`, any
number of runs per workload (one per seed). For every (workload, metric)
it prints each set's median and quartiles and the spread, the distance
between the quartiles as a share of the median, computed as
statistics.quantiles(values, n=4) gives them. With two sets it adds the
change of the median and a verdict against the metric's bound in
BENCHMARK.json:

  ok         NEW's median is not worse than BASE's by more than the bound
  WORSE      it is worse by more than the bound
  unresolved a set's spread is wider than the bound and not every NEW run
             beats every BASE run, so the runs cannot tell
  (blank)    per-layer metrics have no bound

With one set, the verdict says whether the spread is within the bound.
Exits 1 when any verdict is WORSE, unresolved or a spread is too wide, and
2 when the runs come from different hosts: their nproc, build type,
compiler, codec pool size or temp-dir filesystem differ.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_FACTS = ("nproc", "build_type", "compiler", "codec_pool_threads",
              "tmp_fs")


def load_set(directory):
    """{(workload, metric): [values]} and the host facts seen."""
    values, hosts = {}, set()
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"compare.py: no result files in {directory}")
    for path in files:
        result = json.loads(path.read_text())
        if not result["correct"]:
            sys.exit(f"compare.py: {path} is from an incorrect run")
        hosts.add(tuple((k, result["host"][k]) for k in HOST_FACTS))
        for name, m in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(
                m["value"])
    return values, hosts


def stats(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def fmt(v):
    return f"{v:.6g}"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_set(d) for d in sys.argv[1:]]

    hosts = set().union(*(h for _, h in sets))
    if len(hosts) > 1:
        print("compare.py: refusing to compare runs from different hosts:",
              file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in h), file=sys.stderr)
        return 2

    base = sets[0][0]
    new = sets[1][0] if len(sets) == 2 else None
    header = ["workload", "metric", "n", "median", "q1", "q3", "spread"]
    if new is not None:
        header += ["new median", "new spread", "change"]
    header += ["bound", "verdict"]
    rows, bad = [header], 0
    for key in sorted(base):
        workload, name = key
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        higher = meta.get("better") == "higher"
        med, q1, q3, spread = stats(base[key])
        row = [workload, name, str(len(base[key])), fmt(med), fmt(q1),
               fmt(q3), f"{spread:.1%}"]
        verdict = ""
        if new is None:
            if bound is not None:
                verdict = "ok" if spread <= bound else "TOO WIDE"
        elif key in new:
            nmed, _, _, nspread = stats(new[key])
            change = (nmed - med) / abs(med) if med else 0.0
            worse = -change if higher else change
            row += [fmt(nmed), f"{nspread:.1%}", f"{change:+.1%}"]
            if bound is not None:
                all_better = (min(new[key]) > max(base[key]) if higher
                              else max(new[key]) < min(base[key]))
                if max(spread, nspread) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "WORSE" if worse > bound else "ok"
        else:
            row += ["-", "-", "-"]
            verdict = "MISSING"
        row += [f"{bound:.0%}" if bound is not None else "-", verdict]
        bad += verdict not in ("", "ok")
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
