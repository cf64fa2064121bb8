#!/usr/bin/env python3
"""Check a Chrome trace written by obs::Tracer (--trace-out).

Checks:
  - every non-metadata event's ts is >= the one before it;
  - every 'X' span has dur >= 0;
  - the dropped_events metadata record is present;
  - with --coflows-csv (a trace_replay --csv coflows file of the same run):
    the last coflow_complete event names a coflow with the latest
    completion in the CSV, at that completion time (ts = seconds * 1e6);
  - with --require-span NAME (repeatable): the trace holds at least one
    'X' span of that name.

Events are decoded one at a time, so a 2^20-event file does not become a
list of dicts in memory.

Usage: tools/check_trace.py TRACE.json [--coflows-csv RUN.coflows.csv]
                            [--require-span NAME ...]

Exits 0 when every check holds, 1 on a failed check, 2 on unreadable input.
"""

import argparse
import csv
import json
import sys


def trace_events(text):
    """Yields the objects of the document's traceEvents array in order."""
    decoder = json.JSONDecoder()
    start = text.find('"traceEvents"')
    if start < 0:
        raise ValueError("no traceEvents array")
    pos = text.index("[", start) + 1
    while True:
        while text[pos].isspace():
            pos += 1
        if text[pos] == "]":
            return
        event, pos = decoder.raw_decode(text, pos)
        yield event
        while text[pos].isspace():
            pos += 1
        if text[pos] == ",":
            pos += 1


def latest_completion(path):
    """(completion seconds, {coflow ids completing then}) from a CSV."""
    latest, ids = None, set()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            done = float(row["completion"])
            if done < 0:  # rejected or shed: never completed
                continue
            if latest is None or done > latest:
                latest, ids = done, set()
            if done == latest:
                ids.add(int(row["coflow_id"]))
    return latest, ids


def check(text, coflows_csv, required_spans=()):
    errors = []
    prev_ts = None
    dropped = None
    last_complete = None
    count = 0
    spans = set()
    for ev in trace_events(text):
        count += 1
        ph = ev["ph"]
        if ph == "M":
            if ev["name"] == "dropped_events":
                dropped = ev["args"]["count"]
            continue
        ts = ev["ts"]
        if prev_ts is not None and ts < prev_ts:
            errors.append(f"event {count} ({ev['name']}): ts {ts} < {prev_ts}")
        prev_ts = ts
        if ph == "X":
            spans.add(ev["name"])
            if not ev["dur"] >= 0:
                errors.append(f"event {count} ({ev['name']}): dur {ev['dur']}")
        if ev["name"] == "coflow_complete":
            last_complete = ev
    if dropped is None:
        errors.append("no dropped_events record")
    for name in required_spans:
        if name not in spans:
            errors.append(f"no {name} span")
    if coflows_csv is not None:
        latest, ids = latest_completion(coflows_csv)
        if latest is None:
            errors.append(f"{coflows_csv}: no completed coflow")
        elif last_complete is None:
            errors.append("no coflow_complete event")
        else:
            coflow = last_complete["args"]["coflow"]
            if coflow not in ids or last_complete["ts"] != latest * 1e6:
                errors.append(
                    f"last coflow_complete is coflow {coflow} at ts "
                    f"{last_complete['ts']}; the CSV's latest completion is "
                    f"coflow(s) {sorted(ids)} at {latest} s")
    summary = f"{count} events, {dropped} dropped"
    if last_complete is not None:
        summary += f", last coflow_complete at {last_complete['ts'] / 1e6} s"
    return errors, summary


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace")
    parser.add_argument("--coflows-csv")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args()
    try:
        with open(args.trace) as fh:
            text = fh.read()
        errors, summary = check(text, args.coflows_csv, args.require_span)
    except (OSError, ValueError, KeyError, IndexError) as e:
        print(f"error: {args.trace}: {e!r}", file=sys.stderr)
        return 2
    for e in errors[:20]:
        print(f"FAIL: {e}", file=sys.stderr)
    if errors:
        print(f"{args.trace}: {len(errors)} failed check(s); {summary}",
              file=sys.stderr)
        return 1
    print(f"{args.trace}: ok; {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
