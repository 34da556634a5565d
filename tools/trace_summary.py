#!/usr/bin/env python3
"""Summarize a Chrome trace-event JSON file produced by FMM_TRACE.

Reads the trace the runtime's flight recorder (src/obs/trace.h) writes and
prints three views useful without opening Perfetto:

  * per-category busy time: summed span duration per category (engine /
    pool / executor / recurse / calibrate), plus event counts — categories
    sum across threads, so totals can exceed the wall interval;
  * per-worker utilization: fraction of the trace interval each TaskPool
    worker spent inside task.run spans, with its task count;
  * the top-N longest individual spans.

It also checks the task graph's dependency arrows: every flow end ("ph":
"f", a task that waited on a future) must have a flow start ("ph": "s")
with the same id (the producer resolving it).  A dangling end is an arrow
from nowhere; the check is skipped when the trace reports dropped events,
which may have lost the start.

Standard library only — runs anywhere python3 exists, no pip installs.
Exit status is non-zero on malformed input or a dangling flow end, so CI
can use it to validate the trace artifact.
"""

import argparse
import collections
import json
import sys


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event JSON object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    return doc, events


def thread_names(events):
    names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e.get("tid")] = e.get("args", {}).get("name", "")
    return names


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f} s"
    if us >= 1e3:
        return f"{us / 1e3:.3f} ms"
    return f"{us:.1f} us"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON (FMM_TRACE output)")
    ap.add_argument("--top", type=int, default=10,
                    help="how many longest spans to list (default 10)")
    args = ap.parse_args()

    try:
        doc, events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    spans = [e for e in events if e.get("ph") == "X"]
    names = thread_names(events)
    dropped = int(doc.get("otherData", {}).get("dropped_events", 0))

    print(f"{args.trace}: {len(events)} events, {len(spans)} spans, "
          f"{len(names)} named threads, {dropped} dropped")

    starts = {e.get("id") for e in events if e.get("ph") == "s"}
    ends = [e for e in events if e.get("ph") == "f"]
    dangling = sum(1 for e in ends if e.get("id") not in starts)
    print(f"flow arrows: {sum(e.get('ph') == 's' for e in events)} starts, "
          f"{len(ends)} ends, {dangling} dangling")
    if dangling and not dropped:
        print(f"error: {dangling} flow end(s) without a flow start of the "
              f"same id", file=sys.stderr)
        return 1

    if not spans:
        print("no complete spans recorded")
        return 0

    t0 = min(e["ts"] for e in spans)
    t1 = max(e["ts"] + e.get("dur", 0) for e in spans)
    wall = max(t1 - t0, 1e-9)
    print(f"trace interval: {fmt_us(wall)}")

    # Per-category busy time (sum of span durations, all threads).
    by_cat = collections.defaultdict(lambda: [0.0, 0])
    for e in spans:
        acc = by_cat[e.get("cat", "?")]
        acc[0] += e.get("dur", 0)
        acc[1] += 1
    print("\nper-category busy time (summed across threads):")
    for cat, (busy, count) in sorted(by_cat.items(),
                                     key=lambda kv: -kv[1][0]):
        print(f"  {cat:<12} {fmt_us(busy):>12}  ({count} spans)")

    # Per-worker utilization from task.run spans.  The worker index rides
    # in args.worker; fall back to the thread-name metadata for labeling.
    by_worker = collections.defaultdict(lambda: [0.0, 0])
    for e in spans:
        if e.get("name") != "task.run":
            continue
        w = e.get("args", {}).get("worker", -1)
        acc = by_worker[w]
        acc[0] += e.get("dur", 0)
        acc[1] += 1
    if by_worker:
        print("\nper-worker utilization (task.run busy / trace interval):")
        for w, (busy, count) in sorted(by_worker.items()):
            label = f"worker {w}" if w >= 0 else "off-pool"
            print(f"  {label:<12} {100.0 * busy / wall:5.1f}%  "
                  f"{fmt_us(busy):>12}  ({count} tasks)")

    # Longest individual spans.
    print(f"\ntop {args.top} longest spans:")
    for e in sorted(spans, key=lambda e: -e.get("dur", 0))[:args.top]:
        arg = e.get("args", {}).get("arg", "")
        tid = e.get("tid")
        tname = names.get(tid, f"tid {tid}")
        detail = f" [{arg}]" if arg else ""
        print(f"  {fmt_us(e.get('dur', 0)):>12}  {e.get('cat', '?')}:"
              f"{e.get('name', '?')}{detail} on {tname} "
              f"@ +{fmt_us(e['ts'] - t0)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
