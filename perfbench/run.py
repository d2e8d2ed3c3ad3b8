"""wpoly benchmark: seeded, closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload arith-infinite --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: two set-up-only processes, then
one that sets up and runs the workload for --seconds; ``setup_s`` is the
median of the three set-ups.  --trace 1 reports the per-layer metrics of
``BENCHMARK.json``: an untraced timed pass of half the time, then the
same fixed number of ops untraced, traced and untraced again in fresh
processes, so that call counts repeat exactly for a seed and the
traced/untraced ratio is measured on identical work; on decide-infinite
it also runs the known-defect probe.  Op times are CPU times (see
worker.py).  Workers write spans and a full report, with provenance,
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Ops per traced pass: small enough that the traced pass fits in a run.
TRACE_OPS = {"arith-infinite": 100, "decide-infinite": 30,
             "finite-exhaustive": 1560, "cli-cold": 16}
# HQ products in the known-defect probe of a traced decide-infinite run.
PROBE_OPS = 40
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150

# Op kinds with a known defect in the program, and an upper estimate of
# the share of their ops that failed at the baseline (see NOTES.md).
# Every other kind must never fail.  hq-roots ops run only in the probe.
KNOWN_FAIL_RATES = {"hq-roots": 0.02, "qu-riccati": 0.001}
# A known-defect kind fails "too often" when its failure count is this
# unlikely under its baseline rate.
TOO_MANY_FAILURES_P = 1e-6


def binomial_tail(n, k, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    return sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) + i * math.log(p)
                        + (n - i) * math.log1p(-p))
               for i in range(k, n + 1))


def answers_correct(attempted, failed):
    """The run's verdict from per-kind op and failure counts.

    False when a kind without a known defect fails at all, or when a
    known-defect kind fails more often than its baseline rate explains.
    """
    for kind, bad in failed.items():
        if bad == 0:
            continue
        rate = KNOWN_FAIL_RATES.get(kind)
        if rate is None or binomial_tail(attempted[kind], bad,
                                         rate) < TOO_MANY_FAILURES_P:
            return False
    return True


class BenchError(Exception):
    pass


def worker(workload, seed, mode, seconds=0.0, ops=0, traced=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--ops", str(ops)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawn-time", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(seed, workload, attempted):
    src = sorted((ROOT / "src" / "wpoly").glob("*.py"))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    versions = {}
    for pkg in ("sympy", "numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    texts = [p.read_text(encoding="utf-8") for p in src]
    return {"git_revision": rev or "unknown (not a git checkout)",
            "src_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
            "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "seed": seed, "workload": workload,
            "ops": attempted,
            "src_lines": sum(len(t.splitlines()) for t in texts)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setups = [worker(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker(workload, seed, "timed", seconds=seconds)
    setups.append(res["setup_s"])
    lats = res["latencies"]
    if len(lats) < 2:
        raise BenchError("fewer than two ops completed")
    metrics = {
        "ops_per_s": metric(len(lats) / sum(lats), "ops/s"),
        "latency_p50_ms": metric(statistics.median(lats) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(lats, 90) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
    }
    walls = res["walls"]
    notes = {"setup_samples_s": setups,
             "samples_beyond_p90": len(lats) - int(0.9 * len(lats)),
             "wall_ops_per_s": len(walls) / sum(walls),
             "wall_latency_p50_ms": statistics.median(walls) * 1e3,
             "wall_latency_p90_ms": percentile(walls, 90) * 1e3}
    return res, metrics, notes


def per_layer(workload, seed, seconds):
    res = worker(workload, seed, "timed", seconds=seconds / 2)
    n = TRACE_OPS[workload]
    # Untraced passes before and after the traced one, so that a drift in
    # machine speed over the three passes cancels to first order.
    plain = [worker(workload, seed, "count", ops=n)]
    traced = worker(workload, seed, "count", ops=n, traced=True)
    plain.append(worker(workload, seed, "count", ops=n))
    lats = res["latencies"]
    if len(lats) < 2:
        raise BenchError("fewer than two ops completed")
    metrics = {name: metric(value, unit)
               for name, (value, unit) in sorted(traced["layers"].items())}
    batch = res.get("batch")
    probe = {"attempted": 0, "failed": {}, "kinds": []}
    if workload == "decide-infinite":
        probe = worker(workload, seed, "probe", ops=PROBE_OPS)
    metrics.update({
        "rootfind.hq_miss_ratio": metric(
            sum(probe["failed"].values()) / max(probe["attempted"], 1),
            "ratio"),
        "trace.overhead_ratio": metric(
            sum(traced["latencies"])
            / statistics.mean(sum(p["latencies"]) for p in plain), "ratio"),
        "latency_p99_ms": metric(percentile(lats, 99) * 1e3, "ms"),
        "batch_lines_per_s": metric(
            batch["lines"] / batch["wall_s"] if batch else 0.0, "lines/s"),
        "fail_ratio": metric(sum(res["failed"].values()) / res["attempted"],
                             "failed/attempted"),
    })
    notes = {"traced_ops": n,
             "traced_failed": traced["failed"],
             "traced_kinds": dict(Counter(traced["kinds"])),
             "probe_failed": probe["failed"],
             "probe_kinds": dict(Counter(probe["kinds"])),
             "samples_beyond_p99": len(lats) - int(0.99 * len(lats))}
    return res, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["arith-infinite", "decide-infinite",
                             "finite-exhaustive", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wpoly" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/wpoly to benchmark",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = res["attempted"]
    failed = sum(res["failed"].values())
    # The cli-cold batch invocation is one more attempted op, of kind batch.
    # The probe's ops are not workload ops: their misses go into
    # rootfind.hq_miss_ratio and the verdict, not into attempted/failed.
    kinds = (Counter(res["kinds"]) + Counter(notes.get("traced_kinds", {}))
             + Counter(notes.get("probe_kinds", {})))
    kinds["batch"] += attempted - len(res["kinds"])
    correct = answers_correct(
        kinds, Counter(res["failed"]) + Counter(notes.get("traced_failed", {}))
        + Counter(notes.get("probe_failed", {})))
    report = {"provenance": provenance(args.seed, args.workload, attempted),
              "failed_by_kind": res["failed"],
              "ops_by_kind": {k: res["kinds"].count(k)
                              for k in sorted(set(res["kinds"]))},
              **notes}
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(report, sort_keys=True))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**report, "metrics": metrics,
                              "latencies_s": res["latencies"],
                              "walls_s": res["walls"],
                              "op_kinds": res["kinds"]}, indent=1,
                             sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
