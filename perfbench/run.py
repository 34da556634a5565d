#!/usr/bin/env python3
"""The repository benchmark: FMM throughput and serving latency end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the library from this checkout's sources)
into .bench_build/perfbench, runs workload W through the public fmm::Engine
API with inputs made from the seed, checks every request's result, and
prints the metrics.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger.  The full record of each run (environment, executed
plans, sample counts, ledger rows) is written to
.bench_build/perfbench/results/.  Exit status is non-zero when any request
failed its check or returned a non-OK Status, or when the build fails.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fmm_perfbench")
WORKLOADS = ("square_large", "rank_k", "serving_mix")
# Measuring processes per untraced run.  They split the timed seconds, and
# each measures one cold start: setup_s is the median of PROCESSES cold
# starts spread over the run.
PROCESSES = 5
# A tail latency is printed only when at least ten samples lie beyond it.
P99_MIN_SAMPLES = 1000
DEADLINE_S = 170.0


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources beside {HERE}; nothing to build", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "fmm_perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see .bench_build/perfbench/build.log)")


def child_env():
    # A clean slate: no calibration cache, history file, trace or knob
    # override leaks in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("FMM_")}


def run_binary(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args[:3])} timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args[:3])} printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def hd_quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta((n+1)p, (n+1)(1-p)) density.  It averages over the
    samples near the quantile instead of picking one, so a tail quantile of
    a few hundred samples moves less from run to run."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Order statistics further than 15 standard deviations of the Beta
    # from p carry no weight; each one's weight is integrated in 16 steps.
    reach = 15 * math.sqrt(p * (1 - p) / (n + 2))
    lo, hi = max(0, int((p - reach) * n) - 1), min(n, int((p + reach) * n) + 2)
    total = acc = 0.0
    for i in range(lo, hi):
        w = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                for t in ((i + (j + 0.5) / 16) / n for j in range(16)))
        total += w
        acc += w * x[i]
    return acc / total


def source_fingerprint():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def span_busy(path):
    """Summed span duration per name, and the span interval, of a Chrome
    trace read through the repository's tools/trace_summary.py."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import trace_summary

    _, events = trace_summary.load_events(path)
    spans = [e for e in events if e.get("ph") == "X"]
    busy = {}
    for e in spans:
        busy[e.get("name")] = busy.get(e.get("name"), 0.0) + e.get("dur", 0.0)
    wall = (max(e["ts"] + e.get("dur", 0.0) for e in spans) - min(e["ts"] for e in spans)
            if spans else 0.0)
    return busy, wall


def trace_shares(extra, workers):
    """Pool idle share over the traced timed passes; recursive prep/update
    shares of all recurse.* time in the ledger trace (its descent probe)."""
    busy, wall = span_busy(extra["timed_trace"])
    idle = 1.0 - busy.get("task.run", 0.0) / (workers * wall) if wall > 0 else 1.0
    busy, _ = span_busy(extra["ledger_trace"])
    rec = sum(v for k, v in busy.items() if k and k.startswith("recurse."))
    return {
        "pool.idle_share": idle,
        "recursive.prep_share": busy.get("recurse.prep", 0.0) / rec if rec else 0.0,
        "recursive.update_share": busy.get("recurse.update", 0.0) / rec if rec else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = load_spec()
    build()
    deadline = max(deadline, time.monotonic() + 120.0)  # a first build may be slow
    out_dir = os.path.join(BUILD, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    attempted = failed = 0
    correct = True
    # trace 0: several measuring processes share the timed seconds; trace 1:
    # one process measures the untraced and the traced workload and the ledger.
    procs = PROCESSES if args.trace == 0 else 1
    # The traced process measures two timed phases (untraced, then traced).
    share = args.seconds / (procs if args.trace == 0 else 2)
    recs = []
    setups = []
    failures = []
    latencies = []
    for i in range(procs):
        pdir = os.path.join(out_dir, f"p{i}")
        os.makedirs(pdir, exist_ok=True)
        code, rec = run_binary(["run"] + common + ["--seconds", repr(share),
                                                   "--trace", str(args.trace), "--out", pdir],
                               deadline)
        recs.append(rec)
        setups.append(rec["end_to_end"]["setup_s"])
        with open(os.path.join(pdir, "latency_ms.txt")) as f:
            latencies += [float(line) for line in f]
        attempted += rec["attempted"]
        failed += rec["failed"]
        failures += rec["failures"]
        correct &= code == 0 and rec["ok"]
    correct &= failed == 0
    rec = recs[0]
    timed_seconds = sum(r["samples"]["timed_seconds"] for r in recs)
    # p99 is printed and recorded but bounds nothing: rank_k's few hundred
    # requests leave about three samples beyond it, and on a shared host
    # those are whichever large requests met a burst of the neighbours'
    # cache and memory traffic (2-4x slower, for 1-3 s at a time).
    p99 = hd_quantile(latencies, 0.99) if len(latencies) >= P99_MIN_SAMPLES else None
    if args.trace == 0:
        values = {
            "gflops": statistics.median(g for r in recs for g in r["samples"]["pass_gflops"]),
            "latency_p50_ms": hd_quantile(latencies, 0.50),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["end_to_end"]["peak_rss_mb"] for r in recs),
        }
        wanted = spec["end_to_end"]
    else:
        values = dict(rec["per_layer"])
        values.update(trace_shares(rec["extra"], rec["env"]["workers"]))
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            fail(f"metric {m['name']} missing or not finite")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    failed_frac = failed / attempted if attempted else 1.0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{procs} measuring process(es), "
          f"{sum(r['samples']['timed_requests'] for r in recs)} timed requests in "
          f"{sum(r['samples']['timed_passes'] for r in recs)} passes, "
          f"{timed_seconds:.2f} s timed")
    ledger = {}
    if args.trace == 1:
        with open(os.path.join(HERE, "ledger.json")) as f:
            ledger = json.load(f)
    for name, m in metrics.items():
        moves = ""
        if name in ledger:
            entry = ledger[name]
            moves = (f"  -> {entry['moves']} on {', '.join(entry['on'])}" if entry["moves"]
                     else "  -> no kept end-to-end metric")
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<9}{moves}")
    print(f"  {'failed_frac':<28} {failed_frac:>14.6g} fraction ({failed} of {attempted} "
          f"requests, every phase)")
    if p99 is None:
        print(f"  {'latency_p99_ms':<28} {'-':>14} ms        not reported: {len(latencies)} "
              f"samples, fewer than {P99_MIN_SAMPLES}")
    else:
        print(f"  {'latency_p99_ms':<28} {p99:>14.6g} ms        over {len(latencies)} samples, "
              f"no bound")
    if args.trace == 0:
        print(f"  latency quantiles over {len(latencies)} requests of {procs} processes; "
              f"{len(setups)} set-up times: {', '.join(f'{s:.3f}' for s in setups)} s")
    for i, r in enumerate(recs):
        plans = sorted(set(r["plans"].values()))
        print(f"  process {i}: executed plans {plans}")
        if r["plan_changes_timed"]:
            print(f"  process {i}: plan changes during the timed passes: "
                  f"{r['plan_changes_timed']}")
    for line in failures:
        print(f"  FAILED {line}")

    env = dict(rec["env"], commit=commit(), source_sha256=source_fingerprint())
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": env, "metrics": metrics, "failed_frac": failed_frac,
            "latency_p99_ms": p99,
            "attempted": attempted, "failed": failed, "setup_samples_s": setups,
            "latency_samples": len(latencies), "processes": recs}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump(full, f, indent=1)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
