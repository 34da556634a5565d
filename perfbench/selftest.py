#!/usr/bin/env python3
"""Self-tests of the benchmark itself:

    python3 perfbench/selftest.py

  * the C++ self-tests (fmm_perfbench selftest): the same seed gives an
    identical request stream and a different seed a different one, every
    pass carries the same work, and the Freivalds check passes correct
    results and flags a corrupted C;
  * every metric and workload name in BENCHMARK.json matches
    [A-Za-z0-9_.-]+, perfbench/ledger.json covers exactly its per-layer
    metrics, and every ledger entry points at one of its end-to-end metrics
    and workloads or says why none;
  * the pair rule of compare.py on synthetic run sets, and run.py's
    Harrell-Davis latency quantiles on a ramp;
  * run.py in a directory holding only BENCHMARK.json and perfbench/ exits
    non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(f"{'PASS' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def names_and_ledger(spec):
    name_re = re.compile(r"[A-Za-z0-9_.-]+\Z")
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    check(workloads <= set(run.WORKLOADS), "BENCHMARK.json workloads are runnable")
    for name in sorted(e2e | layer | workloads):
        check(name_re.match(name) is not None, f"name {name} matches [A-Za-z0-9_.-]+")

    with open(os.path.join(HERE, "ledger.json")) as f:
        ledger = json.load(f)
    check(set(ledger) == layer, "ledger.json covers exactly the per-layer metrics")
    for name, entry in sorted(ledger.items()):
        if entry["moves"] is None:
            # A layer no kept workload exercises says so, and why.
            check(entry["on"] == [] and entry.get("note"),
                  f"ledger {name} -> no kept end-to-end metric, with a note")
        else:
            check(entry["moves"] in e2e and set(entry["on"]) <= workloads and entry["on"],
                  f"ledger {name} -> {entry['moves']} on {entry['on']}")


def pair_rule():
    higher = {"better": "higher", "bound": 0.1}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.2]
    check(compare.verdict(parent, [v * 1.2 for v in parent], higher)[1] == "improved",
          "pair rule: 10/10 wins beyond the parent spread is improved")
    check(compare.verdict(parent, list(parent), higher)[1] == "no change beyond the bound",
          "pair rule: identical runs are no change")
    check(compare.verdict(parent, [v * 0.8 for v in parent], higher)[1] == "REGRESSED",
          "pair rule: a median 20% worse regresses a 10% bound")
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    check(compare.verdict(noisy, [v * 1.01 for v in noisy], higher)[1].startswith("unresolved"),
          "pair rule: a parent spread above the bound is unresolved")
    lower = {"better": "lower", "bound": 0.1}
    check(compare.verdict(parent, [v * 0.8 for v in parent], lower)[1] == "improved",
          "pair rule: direction 'lower' counts smaller as better")


def latency_quantiles():
    ramp = [float(i) for i in range(1, 1001)]
    check(abs(run.hd_quantile(ramp, 0.5) - 500.5) < 0.5, "Harrell-Davis median of 1..1000")
    check(abs(run.hd_quantile(ramp, 0.99) - 991.0) < 2.0, "Harrell-Davis p99 of 1..1000")
    check(run.hd_quantile([3.0], 0.99) == 3.0, "Harrell-Davis of one sample is that sample")


def bare_directory():
    bare = os.path.join(run.BUILD, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank_k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    run.build()
    proc = subprocess.run([run.BINARY, "selftest"], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    check(proc.returncode == 0, "fmm_perfbench selftest")
    names_and_ledger(run.load_spec())
    pair_rule()
    latency_quantiles()
    bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
