"""Command line interface: output text, JSON mode, exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import sympy

from wpoly import cli, rootfind

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_output(capsys):
    code, out, _ = run(["eval", "--ring", "HQ", "t^2 + [1]", "i"], capsys)
    assert code == 0
    assert out.strip() == "f(a) = 0"


def test_eval_twisted_coefficients(capsys):
    code, out, _ = run(["eval", "--ring", "Qx", "--S", "xsq",
                        "t + [x]", "x^2"], capsys)
    assert code == 0
    assert out.strip() == "f(a) = x^2+x"


def test_is_wedderburn_flagship(capsys):
    code, out, _ = run(["is-wedderburn", "--ring", "HQ", "t^2 + [1]"], capsys)
    assert code == 0
    assert "verdict = IS_W" in out
    assert "root basis: i, -i" in out
    assert "certificate recheck: pass" in out


def test_not_w_verdict_and_strict_exit(capsys):
    poly = "t^2 + [-i-j]*t + [-k]"
    code, out, _ = run(["is-wedderburn", "--ring", "HQ", poly], capsys)
    assert code == 0
    assert "verdict = NOT_W" in out
    assert "minimal polynomial of V(f): t + [-i]" in out
    code, _, _ = run(["is-wedderburn", "--ring", "HQ", "--strict", poly],
                     capsys)
    assert code == 1


def test_rgcd_with_cofactors(capsys):
    code, out, _ = run(["rgcd", "--ring", "HQ", "t + [-i]", "t^2 + [1]"],
                       capsys)
    assert code == 0
    assert "rgcd = t + [-i]" in out
    assert "cofactors: u = [1]; v = 0" in out


def test_metro_solve_differential(capsys):
    code, out, _ = run(["metro", "solve", "--ring", "Qu", "--D", "ddx",
                        "--a", "u", "--b", "u", "--c", "1"], capsys)
    assert code == 0
    assert "status = SOLUTION" in out
    assert "x = -u" in out
    assert "uniqueness = MULTIPLE" in out
    assert "second solution = -u+1" in out


def test_minpoly_output(capsys):
    code, out, _ = run(["minpoly", "--ring", "F4", "--S", "frob", "1, w"],
                       capsys)
    assert code == 0
    assert "minimal polynomial = t^2 + [1]" in out
    assert "rank = 2" in out
    assert "P-basis = 1, w" in out


def test_roots_by_enumeration(capsys):
    code, out, _ = run(["roots", "--ring", "F8", "t^2 + [w]"], capsys)
    assert code == 0
    assert "roots = {w^2+w}" in out


def test_inner_derivation_vanishes_on_untwisted_commutative_ring(capsys):
    # with S = id, D(a) = x*a - a*x is zero, so --D inner:x is --D zero
    for d in ("inner:x", "zero"):
        code, out, _ = run(["roots", "--ring", "Qx", "--D", d, "t^2 + [-1]"],
                           capsys)
        assert code == 0
        assert "roots = {-1, 1}" in out


def test_closure_member_strict_exit(capsys):
    argv = ["closure-member", "--ring", "HQ", "--", "-i", "i"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "-i in closure{i}: false" in out
    code, _, _ = run(argv[:3] + ["--strict"] + argv[3:], capsys)
    assert code == 1


def test_json_output_is_deterministic(capsys):
    argv = ["is-wedderburn", "--ring", "HQ", "--json", "t^2 + [1]"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"ring", "inputs", "result", "certificate"}
    assert doc["ring"] == "HQ [S=id, D=0]"
    assert doc["result"]["verdict"] == "IS_W"
    assert doc["certificate"]["roots"] == ["i", "-i"]
    assert doc["certificate"]["recheck"] is True


def test_usage_errors_exit_two(capsys):
    code, _, err = run(["eval", "--ring", "Q", "t + [1]", "i"], capsys)
    assert code == 2
    assert "not defined in Q" in err
    code, _, err = run(["is-wedderburn", "--ring", "HQ", "t^2 + 1"], capsys)
    assert code == 2
    code, _, err = run(["metro", "solve", "--ring", "HQ",
                        "--a", "i", "--b", "j", "--c", "0"], capsys)
    assert code == 2


def test_split_reports_not_split(capsys):
    argv = ["split", "--ring", "Qx", "--S", "xsq", "t^3 + [x]"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "NOT_SPLIT" in out
    code, _, _ = run(argv[:1] + ["--strict"] + argv[1:], capsys)
    assert code == 1


def test_quaternions_with_a_derivation_are_not_split(capsys):
    # the quaternion root engine assumes D = 0; it must say so, not answer
    for argv in (["is-wedderburn", "--ring", "HQ", "--D", "inner:i",
                  "t^2 + [1]"],
                 ["roots", "--ring", "HQ", "--D", "inner:j", "t + [-i]"],
                 ["left-roots", "--ring", "HQ", "--D", "inner:j", "t + [-i]"],
                 ["split", "--ring", "HQ", "--D", "inner:j", "t + [-i]"]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert out.startswith("NOT_SPLIT: the quaternion root engine "
                              "assumes D = 0"), argv
    code, out, _ = run(["metro", "equiv", "--ring", "HQ", "--D", "inner:i",
                        "--a", "j", "--b", "k", "--c", "1"], capsys)
    assert code == 0
    assert "product is a minimal polynomial of its roots: undecided" in out
    # an inner derivation by a central element is zero, and is answered
    code, out, _ = run(["is-wedderburn", "--ring", "HQ", "--D", "inner:2",
                        "t^2 + [1]"], capsys)
    assert code == 0 and "verdict = IS_W" in out


def test_riccati_solver_failure_is_not_split(capsys, monkeypatch):
    # the recorded inputs on which sympy's solver fails are now decided
    # exactly (tests/test_rootfind.py); this one has a zero invariant, so
    # it reaches the solver, which is made to fail the way it did on them
    def failing_solver(*args):
        raise sympy.PolynomialError("1/4 contains an element of the set of "
                                    "generators")

    monkeypatch.setattr(rootfind, "solve_riccati", failing_solver)
    poly = "t^2 + [-2u]*t + [u^2-1]"
    code, out, _ = run(["is-wedderburn", "--ring", "Qu", "--D", "ddx", poly],
                       capsys)
    assert code == 0
    assert out.startswith("NOT_SPLIT: sympy's Riccati solver failed")


def test_riccati_without_rational_solution_is_decided(capsys):
    # sympy's "Rational Solution doesn't exist" proves there is no root
    qu = ["--ring", "Qu", "--D", "ddx"]
    code, out, _ = run(["is-wedderburn", *qu, "t^2 + [1/u]"], capsys)
    assert code == 0
    assert out == ("verdict = NOT_W\n"
                   "minimal polynomial of V(f): [1]\n"
                   "certificate recheck: pass\n")
    for poly in ("t^2 + [1/u]", "[u]*t^2 + [1]"):
        code, out, _ = run(["roots", *qu, poly], capsys)
        assert (code, out) == (0, "method: riccati\nroots = {}\n"), poly
    code, out, _ = run(["split", *qu, "t^2 + [1/u]"], capsys)
    assert code == 0 and out.startswith("NOT_SPLIT: ")


def test_parametric_riccati_roots_list_samples(capsys):
    code, out, _ = run(["roots", "--ring", "Qu", "--D", "ddx",
                        "t^2 + [-2u]*t + [u^2-1]"], capsys)
    assert code == 0
    assert out == ("method: riccati\n"
                   "infinitely many roots; samples = {u, (u^2+1)/(u), "
                   "(u^2+u+1)/(u+1), (u^2+2u+1)/(u+2), (u^2+3u+1)/(u+3), "
                   "(u^2+4u+1)/(u+4)}\n")


def test_golden_cli_outputs(capsys):
    # stdout of the text and --json forms of commands that print sorted
    # Q(u), Q(x) and HQ elements, certificates and metro solutions, of F4
    # lattice build/check under S = id, frob and D = 0, inner(w), and of F8
    # lattice build/check --json under S = frob, frob^2 with D = inner(w),
    # and of the root, recognition, split, minpoly, closure, dual,
    # expspace, rgcd and metro commands over F4 and F8 under S = id, frob,
    # frob^2 with D = 0, inner(w), of phi, rank, pbasis, vandermonde-check,
    # rank-theorems, metro over Q and Q(x), and left-roots over Q and Q(x),
    # pinned verbatim: element formatting, sort_key and node order must not
    # drift
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 198
    for case in cases:
        code, out, _ = run(case["argv"], capsys)
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_cli_import_leaves_numpy_out():
    # sympy loads only when a root engine over an infinite ring runs
    src = Path(__file__).resolve().parent.parent / "src"
    code = """if True:
        import sys
        import wpoly
        loaded = [m in sys.modules for m in ("numpy", "sympy")]
        from wpoly import cli
        loaded += [m in sys.modules for m in ("numpy", "sympy")]
        for argv in (["eval", "--ring", "F4", "t^2 + [w]*t + [1]", "w"],
                     ["rgcd", "--ring", "Q", "t^2 + [-1]", "t + [1]"],
                     ["minpoly", "--ring", "F8", "--S", "frob", "1,w"],
                     ["lattice", "check", "--ring", "F4", "--S", "frob"]):
            assert cli.main(argv) == 0, argv
            loaded.append("sympy" in sys.modules)
        assert cli.main(["roots", "--ring", "Q", "t^2 + [-1]"]) == 0
        loaded.append("sympy" in sys.modules)
        print(loaded)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([False] * 8 + [True])


def test_lattice_check_summary(capsys):
    code, out, _ = run(["lattice", "check", "--ring", "F4", "--S", "frob"],
                       capsys)
    assert code == 0
    assert out == (
        "nodes: 10\n"
        "bijection: true\n"
        "inverses: true\n"
        "order_reversing: true\n"
        "rank_dimension_law: true\n"
        "degree_dimension_law: true\n"
        "rank_equals_degree: true\n"
        "cover_steps: true\n"
        "atoms_are_singletons: true\n"
        "maximal_are_linear: true\n"
        "bounds_as_stated: true\n"
        "modular_full: true\n"
        "modular_w: true\n"
        "intervals_checked: 36\n"
        "intervals_match: true\n"
        "dependence_triples: 450\n"
        "dependence_violations: 0\n"
        "ok: true\n")


def test_examples_replay(capsys):
    code, out, _ = run(["examples"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "5 of 5 examples pass" in out


def test_batch_runs_lines_and_keeps_worst_exit(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "# a comment line\n"
        "\n"
        "eval --ring HQ \"t^2 + [1]\" i\n"
        "is-wedderburn --ring F4 --S frob \"t^2 + [1]\"\n")
    code, out, _ = run(["batch", str(script)], capsys)
    assert code == 0
    assert out.count("$ ") == 2
    assert "f(a) = 0" in out
    script.write_text(
        "eval --ring HQ \"t^2 + [1]\" i\n"
        "closure-member --ring HQ --strict j i\n")
    code, out, _ = run(["batch", str(script)], capsys)
    assert code == 1
    # a line shlex cannot split is reported, and the lines after it still run
    script.write_text(
        "eval --ring HQ \"t^2 + [1]\" i\n"
        "eval --ring F4 -- 't + [1] 'w'\n"
        "eval --ring HQ \"t^2 + [1]\" j\n")
    code, out, err = run(["batch", str(script)], capsys)
    assert code == 2
    assert out.count("f(a) = 0") == 2
    assert err.strip() == "error: No closing quotation"


def test_examples_and_batch_check_the_ring_flags(capsys, tmp_path):
    # the flags are checked before any subcommand runs, even those that
    # never read the context
    code, out, err = run(["examples", "--ring", "Q", "--S", "xsq"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    script = tmp_path / "cmds.txt"
    script.write_text("eval --ring HQ \"t^2 + [1]\" i\n")
    code, out, err = run(["batch", str(script), "--ring", "F4", "--S", "xsq"],
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_internal_error_exits_three(capsys, monkeypatch, tmp_path):
    # a broken invariant prints one line and exits 3; batch goes on
    def broken(args, ctx):
        raise AssertionError("norm polynomial has a non-central coefficient")

    monkeypatch.setattr(cli, "_cmd_minpoly", broken)
    code, out, err = run(["minpoly", "--ring", "F4", "1,w"], capsys)
    assert (code, out) == (3, "")
    assert err == ("internal error: norm polynomial has a non-central "
                   "coefficient\n")
    script = tmp_path / "cmds.txt"
    script.write_text(
        "eval --ring HQ \"t^2 + [1]\" i\n"
        "minpoly --ring F4 1,w\n"
        "closure-member --ring HQ --strict j i\n")
    code, out, err = run(["batch", str(script)], capsys)
    assert code == 3
    assert out.count("$ ") == 3 and out.count("f(a) = 0") == 1
    assert out.endswith("j in closure{i}: false\n")
    assert err == ("internal error: norm polynomial has a non-central "
                   "coefficient\n")


def test_batch_line_inside_batch_is_refused(capsys, tmp_path):
    # a file that runs itself would recurse until RecursionError
    script = tmp_path / "self.txt"
    script.write_text(
        "eval --ring HQ \"t^2 + [1]\" i\n"
        f"batch {script}\n"
        "eval --ring HQ \"t^2 + [1]\" j\n")
    code, out, err = run(["batch", str(script)], capsys)
    assert code == 2
    assert out.count("$ ") == 3 and out.count("f(a) = 0") == 2
    assert err.strip() == "error: batch cannot run inside a batch file"


def test_readme_cli_examples_run(capsys):
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines()
                if line.startswith("wpoly ") and "batch FILE" not in line]
    assert len(commands) == 10
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
