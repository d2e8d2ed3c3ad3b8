"""Tests of the benchmark itself: seeded inputs, oracles, output format.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wpoly.skew import SkewPolynomial  # noqa: E402


def _inputs(workload, seed, n):
    if workload == "cli-cold":
        return [" ".join(argv) for argv, _ in
                itertools.islice(workloads.cli_commands(seed), n)]
    stream = workloads.op_stream(workload, seed, str(ROOT))
    return [op.inputs for op in itertools.islice(stream, n)]


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        first = _inputs(workload, 7, 40)
        assert first == _inputs(workload, 7, 40), workload
        assert first != _inputs(workload, 8, 40), workload

    # In-process workloads warm up on other inputs, so no timed op is
    # answered from what the warm-up left in a cache; cli-cold starts a
    # fresh process per op.  The warm-up is the same for every seed.
    for workload in ("arith-infinite", "decide-infinite", "finite-exhaustive"):
        warm = [op.inputs for op in itertools.islice(
            workloads.warmup_stream(workload, str(ROOT)), 40)]
        for seed in (7, 8):
            assert not set(_inputs(workload, seed, 300)) & set(warm), workload


def test_deck_holds_each_item_once_per_round():
    deck = workloads.Deck(workloads.rng_for("test", 1, "deck"), "abcd")
    draws = [deck.draw() for _ in range(12)]
    for i in range(0, 12, 4):
        assert sorted(draws[i:i + 4]) == list("abcd")


def test_arith_oracle_rejects_perturbed_bezout_cofactor():
    op = next(op for op in workloads.op_stream("arith-infinite", 3, str(ROOT))
              if op.kind == "Qx")
    out = op.run()
    assert op.check(out)
    prod, res, rem = out
    one = SkewPolynomial.one(res.u.ctx)
    bad = dataclasses.replace(res, u=res.u + one)
    assert not op.check((prod, bad, rem))


def test_arith_oracle_rejects_wrong_remainder():
    op = next(workloads.op_stream("arith-infinite", 3, str(ROOT)))
    prod, res, rem = op.run()
    one = SkewPolynomial.one(rem.ctx)
    assert not op.check((prod, res, rem + one))


def test_planted_wrong_answer_makes_the_run_incorrect():
    op = next(workloads.op_stream("arith-infinite", 3, str(ROOT)))
    prod, res, rem = op.run()
    one = SkewPolynomial.one(rem.ctx)
    planted = dataclasses.replace(op, run=lambda: (prod, res, rem + one))
    _, _, kinds, failed = worker.run_ops([op, planted], lambda i: False)
    assert failed == {op.kind: 1}
    assert not run.answers_correct(Counter(kinds), failed)
    assert run.answers_correct(Counter(kinds[:1]), Counter())


def test_known_defect_kinds_may_fail_only_at_their_baseline_rate():
    ops = Counter({"hq-roots": 60, "hq-metro": 120})
    assert run.answers_correct(ops, Counter({"hq-roots": 2}))
    assert not run.answers_correct(ops, Counter({"hq-roots": 15}))
    assert not run.answers_correct(ops, Counter({"hq-metro": 1}))


def test_timed_ops_leave_out_the_known_hq_miss():
    kinds = {op.kind for op in itertools.islice(
        workloads.op_stream("decide-infinite", 3, str(ROOT)), 60)}
    assert kinds == {"hq-recognition", "q-split", "qu-riccati",
                     "qx-bivariate", "hq-metro"}
    probe = itertools.islice(workloads.hq_roots_probe(3), 10)
    assert {op.kind for op in probe} == {"hq-roots"}


def test_probe_mode_runs_the_hq_root_reports():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload",
         "decide-infinite", "--seed", "4", "--mode", "probe", "--ops", "3",
         "--spawn-time", repr(time.time())],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["kinds"] == ["hq-roots"] * 3 and doc["attempted"] == 3


def test_hq_oracle_rejects_dropped_class():
    op = next(workloads.hq_roots_probe(3))
    report = op.run()
    assert op.check(report)
    dropped = dataclasses.replace(report, classes=report.classes[1:])
    assert not op.check(dropped)


def test_lattice_oracle_rejects_wrong_count():
    ring, s_desc, d_desc, ctx = workloads.lattice_contexts()[1]
    assert (ring, s_desc, d_desc) == ("F4", ("id",), ("inner", ctx.w))
    out = workloads.lattice_run(ctx)
    nodes, intervals, triples = workloads.lattice_counts(ring, s_desc)
    assert (nodes, intervals, triples) == (16, 81, 1296)
    assert workloads.lattice_check((nodes, intervals, triples), out)
    assert not workloads.lattice_check((nodes + 1, intervals, triples), out)
    assert not workloads.lattice_check((nodes, intervals, triples - 1), out)


def test_cli_oracle_rejects_wrong_printed_answer():
    argv, expected = next(workloads.cli_commands(3))
    assert argv[0] == "eval"
    code, out = workloads.run_cli(str(ROOT), argv)
    assert expected(code, out)
    assert not expected(code, out.replace("f(a) = ", "f(a) = 1+"))
    assert not expected(2, out)


def _run(workload, trace, seconds=2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("arith-infinite", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_traced_call_counts_repeat_for_a_seed():
    def layers():
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             "arith-infinite", "--seed", "4", "--mode", "count", "--ops", "8",
             "--traced", "--spawn-time", repr(time.time())],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env=dict(os.environ, PYTHONHASHSEED="0"))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        return {k: v[0] for k, v in doc["layers"].items()
                if k.endswith(".calls")}
    first = layers()
    assert first["skew.rgcd_llcm.calls"] == 8
    assert first == layers()


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for p in HERE.glob("*.py"):
        (bench / p.name).write_text(p.read_text())
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arith-infinite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
