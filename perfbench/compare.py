#!/usr/bin/env python3
"""Steadiness and comparison of benchmark run sets.

    compare.py collect --workload W [--workload W ...] --seeds 1-10 --out runs.jsonl
        Runs perfbench/run.py untraced for BENCHMARK.json's run_seconds,
        once per (workload, seed), and appends one record per run:
        {"workload", "seed", "result"}.

    compare.py steady runs.jsonl
        Per workload and end-to-end metric: median, quartiles, and the
        spread (q3 - q1) / median against the metric's bound from
        BENCHMARK.json.  "steady" needs spread <= bound / 3.

    compare.py pair parent.jsonl change.jsonl
        The pair rule: runs pair up by (workload, seed).  A metric improved
        when the change wins >= 9/10 of the pairs (ties count for neither)
        and the medians differ by more than the parent's quartile spread; it
        regressed when the change's median is worse than the parent's by
        more than the bound; it is unresolved when the parent's own spread
        exceeds the bound, unless every change run beats every parent run.

Quartiles are statistics.quantiles(values, n=4).  Exit status of steady and
pair is non-zero when any metric is unsteady or regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: r["seed"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(pv, cv, m):
    """The pair rule for one metric: parent values pv and change values cv,
    paired by index.  Returns (change wins, verdict)."""
    d = m["better"]
    wins = sum(1 for p, c in zip(pv, cv) if better(c, p, d))
    pq1, pmed, pq3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    worse_by = (pmed - cmed) / pmed if d == "higher" else (cmed - pmed) / pmed
    spread = (pq3 - pq1) / pmed if pmed else float("inf")
    if wins >= 0.9 * len(pv) and abs(cmed - pmed) > pq3 - pq1 and better(cmed, pmed, d):
        return wins, "improved"
    if worse_by > m["bound"]:
        return wins, "REGRESSED"
    if spread > m["bound"] and not all(better(c, p, d) for c in cv for p in pv):
        return wins, "unresolved (parent spread exceeds the bound)"
    return wins, "no change beyond the bound"


def cmd_collect(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    lo, _, hi = args.seeds.partition("-")
    with open(args.out, "a") as out:
        for workload in args.workload:
            for seed in range(int(lo), int(hi or lo) + 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed (exit {proc.returncode})",
                          file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return 0


def cmd_steady(args):
    bounds = load_bounds()
    bad = 0
    print(f"{'workload':<14}{'metric':<16}{'n':>3}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for workload, runs in sorted(by_workload(load_runs(args.runs)).items()):
        for name, m in bounds.items():
            vals = values_of(runs, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                v = "steady"
            elif spread <= m["bound"]:
                v = "within bound, above a third of it"
            else:
                v = "UNSTEADY"
                bad += 1
            print(f"{workload:<14}{name:<16}{len(vals):>3}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{m['bound']:>7.3f}  {v}")
    return 1 if bad else 0


def cmd_pair(args):
    bounds = load_bounds()
    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    bad = 0
    print(f"{'workload':<14}{'metric':<16}{'pairs':>6}{'wins':>6}{'parent med':>12}"
          f"{'change med':>12}{'p q1':>11}{'p q3':>11}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs = {r["seed"]: r for r in parent[workload]}
        c_runs = {r["seed"]: r for r in change[workload]}
        seeds = sorted(set(p_runs) & set(c_runs))
        for name, m in bounds.items():
            pv = values_of([p_runs[s] for s in seeds], name)
            cv = values_of([c_runs[s] for s in seeds], name)
            if not pv or len(pv) != len(cv):
                continue
            wins, v = verdict(pv, cv, m)
            bad += v == "REGRESSED"
            pq1, pmed, pq3 = quartiles(pv)
            print(f"{workload:<14}{name:<16}{len(pv):>6}{wins:>6}{pmed:>12.5g}"
                  f"{quartiles(cv)[1]:>12.5g}{pq1:>11.5g}{pq3:>11.5g}  {v}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--out", required=True)
    s = sub.add_parser("steady")
    s.add_argument("runs")
    p = sub.add_parser("pair")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "collect":
        return cmd_collect(args)
    return cmd_steady(args) if args.cmd == "steady" else cmd_pair(args)


if __name__ == "__main__":
    sys.exit(main())
