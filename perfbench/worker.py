"""One workload process: set up, run operations, check every answer.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup   set up as for a run and stop (a sample of set-up time);
  timed   run the op stream closed-loop, one client, for --seconds;
  count   run exactly --ops operations, with --traced for the per-layer
          spans (cli-cold runs them in-process through ``cli.main``);
  probe   run exactly --ops ops of the known-defect probe (decide-infinite).

Set-up time is taken from --spawn-time, the parent's wall clock just
before it started this process, to the moment the first timed op starts.
An op's latency is the CPU time it used: this process's, and on cli-cold
also that of the CLI process it waited for.  Its wall time is recorded
next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Each ring twice on arith-infinite, the whole fixed warm-up stream of
# decide-infinite and finite-exhaustive, and one CLI process.
WARMUP_OPS = {"arith-infinite": 8, "decide-infinite": None,
              "finite-exhaustive": None, "cli-cold": 1}


def import_program():
    """Import wpoly from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "wpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no wpoly sources under {src}")
    sys.path.insert(0, str(src))
    import wpoly
    if Path(wpoly.__file__).resolve().parent != (src / "wpoly").resolve():
        raise SystemExit(f"error: imported wpoly from {wpoly.__file__}")


def children_cpu_time():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cpu_clock(workload):
    """CPU seconds used so far.  On a shared host an op's wall time is
    mostly the other tenants' scheduling (NOTES.md), its CPU time is not.
    cli-cold ops are child processes, so their CPU time counts too."""
    if workload == "cli-cold":
        return lambda: time.process_time() + children_cpu_time()
    return time.process_time


def run_ops(stream, stop, tracer=None, clock=time.process_time):
    """Closed loop over ``stream`` until ``stop(i)``; only op.run is timed.

    Returns per-op ``clock`` times, per-op wall times, the op kinds and
    the failures by kind.
    """
    lats, walls, kinds, failed = [], [], [], Counter()
    for i, op in enumerate(stream):
        if stop(i):
            break
        if tracer is not None:
            tracer.op_id = i + 1
        w0, t0 = perf_counter(), clock()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising op counts as failed
            err = exc
        lats.append(clock() - t0)
        walls.append(perf_counter() - w0)
        kinds.append(op.kind)
        ok = False
        if err is None:
            if tracer is not None:
                tracer.active = False
            try:
                ok = op.check(out)
            except Exception as exc:  # an answer the oracle cannot use
                err = exc
            finally:
                if tracer is not None:
                    tracer.active = True
        if not ok:
            failed[op.kind] += 1
            print(f"FAILED {op.kind}: {op.inputs}"
                  + (f" ({type(err).__name__}: {err})" if err else ""),
                  file=sys.stderr)
    return lats, walls, kinds, failed


def warm_up(workloads, workload):
    n = WARMUP_OPS[workload]
    stream = workloads.warmup_stream(workload, str(ROOT))
    failed = run_ops(stream, lambda i: n is not None and i >= n)[-1]
    if failed:
        raise SystemExit(f"error: warm-up failed: {dict(failed)}")


def inproc_cli_ops(workloads, seed):
    """The cli-cold command mix through ``cli.main`` in this process."""
    import wpoly.cli as cli

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    for argv, expected in workloads.cli_commands(seed):
        yield workloads.Op(argv[0], " ".join(argv),
                           lambda argv=argv: call(argv),
                           lambda out, e=expected: e(*out))


def cli_probes(env):
    """Interpreter start, `import wpoly.cli` and modules loaded, cold."""
    def best_wall(code, reps=3):
        walls = []
        for _ in range(reps):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=ROOT, capture_output=True)
            walls.append(perf_counter() - t0)
        return sorted(walls)[len(walls) // 2]

    bare = best_wall("pass")
    imported = best_wall("import wpoly.cli")
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, wpoly.cli; print(len(sys.modules))"],
        env=env, check=True, cwd=ROOT, capture_output=True, text=True).stdout
    return {"cli.interpreter_ms": (bare * 1e3, "ms"),
            "cli.import_ms": ((imported - bare) * 1e3, "ms"),
            "cli.modules_loaded": (int(loaded), "count")}


def run_batch(workloads, seed):
    lines, answers = workloads.batch_lines(seed)
    path = OUT / f"batch-seed{seed}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    t0 = perf_counter()
    code, stdout = workloads.run_cli(str(ROOT), ["batch", str(path)])
    wall = perf_counter() - t0
    ok = code == 0 and workloads.batch_check(stdout, answers)
    if not ok:
        print(f"FAILED batch: {path.name}", file=sys.stderr)
    return {"lines": len(lines), "wall_s": wall, "ok": ok}


def peak_rss_mb(workload):
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "count", "probe"],
                    required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import tracer as tracing
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    if args.mode == "count" and args.workload == "cli-cold":
        stream = inproc_cli_ops(workloads, args.seed)
    elif args.mode == "probe":
        stream = workloads.hq_roots_probe(args.seed)
    else:
        stream = workloads.op_stream(args.workload, args.seed, str(ROOT))
    # The first op's inputs are generated inside set-up, like the rest.
    stream = itertools.chain([next(stream)], stream)
    warm_up(workloads, args.workload)
    setup_s = time.time() - args.spawn_time
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode in ("count", "probe"):
        # Inputs are built before tracing starts, so spans cover ops only.
        stream = list(itertools.islice(stream, args.ops))
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    clock = cpu_clock(args.workload)
    if args.mode == "timed":
        deadline = perf_counter() + args.seconds
        lats, walls, kinds, failed = run_ops(
            stream, lambda i: perf_counter() >= deadline, clock=clock)
    else:
        lats, walls, kinds, failed = run_ops(stream, lambda i: False, tracer,
                                             clock)
    attempted = len(lats)
    if args.workload == "cli-cold" and args.mode == "timed":
        # The batch invocation is one more checked op, outside the latencies.
        result["batch"] = run_batch(workloads, args.seed)
        attempted += 1
        if not result["batch"]["ok"]:
            failed["batch"] += 1
    result.update(latencies=lats, walls=walls, kinds=kinds,
                  attempted=attempted,
                  failed=dict(failed), peak_rss_mb=peak_rss_mb(args.workload))
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers.update(cli_probes(workloads.cli_env(str(ROOT))))
        result["layers"] = {k: list(v) for k, v in layers.items()}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
