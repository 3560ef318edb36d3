"""End-to-end runs of ``python -m simplexcut``: happy paths and exit codes.

``python -m simplexcut`` enters ``simplexcut.cli:main``, the same function
as the ``simplexcut`` console script, so no install is needed.  The child
imports the same ``simplexcut`` as this process: the directory holding the
imported package goes first on its ``PYTHONPATH``.
"""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import simplexcut
from simplexcut import (
    WeightMap,
    build_base_triangle,
    build_component,
    build_graph,
    cli,
    corner_caps,
    cost,
    emit_cut,
    emit_instance_dimacs,
    emit_instance_json,
    exhaustive_extremal,
    isolate_terminals,
    midlines,
    min_terminal_face_cut,
    parse_instance,
    search,
    sperner,
)
from simplexcut.reproduce import SUITES

COMMAND = [sys.executable, "-m", "simplexcut"]
PACKAGE_ROOT = str(Path(simplexcut.__file__).parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    ),
}


def run(*args, expect=0):
    proc = subprocess.run(
        [*COMMAND, *args], capture_output=True, text=True, timeout=300, env=CHILD_ENV
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout[:2000]}\n"
        f"stderr: {proc.stderr[:2000]}"
    )
    return proc


def report(proc):
    return json.loads(proc.stdout)


def stderr_error(proc):
    return json.loads(proc.stderr.splitlines()[-1])


def strip_timing(doc):
    return {k: v for k, v in doc.items() if k != "elapsed_s"}


@pytest.fixture(scope="module")
def triangle9(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "tri9.json"
    run("gen", "--instance", "triangle", "--n", "9", "--out", str(path))
    return path


def test_gen_writes_parseable_instance(triangle9):
    parsed = parse_instance(triangle9.read_text())
    assert parsed.tag == "triangle"
    assert (parsed.weights.graph.k, parsed.weights.graph.n) == (3, 9)
    assert len(parsed.weights.items()) == 117


def test_gen_stdout_and_out_agree(tmp_path):
    to_stdout = run("gen", "--instance", "triangle", "--n", "9").stdout
    path = tmp_path / "again.json"
    run("gen", "--instance", "triangle", "--n", "9", "--out", str(path))
    assert path.read_text() == to_stdout


def test_gen_dimacs_deterministic():
    args = ("gen", "--instance", "triangle", "--n", "9", "--format", "dimacs")
    first = run(*args).stdout
    again = run(*args).stdout
    assert first == again
    assert "p mwc 55 117 3" in first.splitlines()


def test_gen_combined_records_parameters(tmp_path):
    path = tmp_path / "mix.json"
    run(
        "gen",
        "--instance",
        "combined",
        "--n",
        "12",
        "--c",
        "1/4",
        "--lambda",
        "1/2,1/4,1/8,1/8",
        "--out",
        str(path),
    )
    parsed = parse_instance(path.read_text())
    assert parsed.c == Fraction(1, 4)
    assert parsed.lam == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 8),
    )
    assert parsed.weights.graph.k == 4


def test_gen_rejects_bad_resolution():
    proc = run("gen", "--instance", "triangle", "--n", "4", expect=2)
    assert stderr_error(proc)["error"] == "invalid-parameter"


_FACE_NEEDS_THIRDS = "base triangle needs a resolution divisible by 3"
_CAP_NOT_INTEGRAL = "cap depth 1/14 is not integral at resolution 78"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["limits", "--n", "77", "--c", "1/13"], _FACE_NEEDS_THIRDS),
        (["limits", "--n", "78", "--c", "1/14"], _CAP_NOT_INTEGRAL),
        (["gen", "--instance", "combined", "--n", "77", "--c", "1/7"], _FACE_NEEDS_THIRDS),
        (["gen", "--instance", "combined", "--n", "78", "--c", "1/14"], _CAP_NOT_INTEGRAL),
        (["gen", "--instance", "face", "--n", "77"], _FACE_NEEDS_THIRDS),
        (["gen", "--instance", "cycles", "--n", "78", "--c", "1/14"], _CAP_NOT_INTEGRAL),
        (["gen", "--instance", "cycles", "--n", "78"], "the cycles component needs a cap depth"),
        (["gen", "--instance", "cycles", "--n", "78", "--c", "3/4"], "cap depth out of range: 3/4"),
    ],
)
def test_unusable_resolution_is_refused_before_any_lattice(argv, message, capsys):
    # refused by instances.check_resolution before build_graph is called at all
    calls = lambda: sum(build_graph.cache_info()[:2])  # hits + misses
    before = calls()
    assert cli.main(argv) == 2
    assert calls() == before
    assert json.loads(capsys.readouterr().err) == {"error": "invalid-parameter", "message": message}


def test_gen_rejects_misplaced_flags():
    proc = run(
        "gen", "--instance", "lines", "--n", "6", "--c", "1/4", expect=2
    )
    assert stderr_error(proc)["error"] == "invalid-parameter"
    proc = run(
        "gen",
        "--instance",
        "uniform",
        "--n",
        "6",
        "--lambda",
        "1/4,1/4,1/4,1/4",
        expect=2,
    )
    assert stderr_error(proc)["error"] == "invalid-parameter"


def test_eval_cut_named(triangle9):
    doc = report(run("eval-cut", "--instance", str(triangle9), "--cut", "midlines"))
    assert doc["command"] == "eval-cut"
    r = doc["results"]
    assert r["cost"]["exact"] == "19/15"
    assert r["cut_edges"] == 19
    assert r["non_opposite"] is True
    assert r["fragmenting"] is False
    assert r["provenance"] == "direct-evaluation"


def test_eval_cut_from_file(triangle9, tmp_path):
    cut_path = tmp_path / "mid.json"
    cut_path.write_text(emit_cut(midlines(build_graph(3, 9))))
    doc = report(
        run("eval-cut", "--instance", str(triangle9), "--cut", str(cut_path))
    )
    assert doc["results"]["cost"]["exact"] == "19/15"


def test_eval_cut_graph_mismatch(triangle9, tmp_path):
    # one cut differs from the instance's lattice in n, the other in k
    for k, n in ((3, 6), (4, 9)):
        cut_path = tmp_path / f"cut{k}-{n}.json"
        cut_path.write_text(emit_cut(isolate_terminals(build_graph(k, n))))
        proc = run(
            "eval-cut",
            "--instance",
            str(triangle9),
            "--cut",
            str(cut_path),
            expect=2,
        )
        assert stderr_error(proc) == {
            "error": "invalid-parameter",
            "message": f"cut is for k={k}, n={n}; instance has k=3, n=9",
        }


def test_eval_cut_unknown_name(triangle9):
    proc = run(
        "eval-cut", "--instance", str(triangle9), "--cut", "no-such-cut", expect=2
    )
    err = stderr_error(proc)
    assert err["error"] == "io-error"  # treated as a cut file path


def test_eval_cut_missing_instance():
    proc = run(
        "eval-cut", "--instance", "/nonexistent.json", "--cut", "midlines", expect=2
    )
    assert stderr_error(proc)["error"] == "io-error"


@pytest.fixture(scope="module")
def lines13(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "lines13.json"
    path.write_text(emit_instance_json(build_component(2, build_graph(4, 13)), tag="lines"))
    return path


_C_ONLY_FOR_CAPS = "--c only applies to --cut corner-caps"
_ALPHA_ONLY_FOR_BALL = "--alpha only applies to --cut terminal-ball"


@pytest.mark.parametrize(
    "cut,flags,message",
    [
        ("midlines-ext", ("--c", "1/13"), _C_ONLY_FOR_CAPS),
        ("terminal-ball", ("--alpha", "1/13", "--c", "1/13"), _C_ONLY_FOR_CAPS),
        ("corner-caps", ("--alpha", "1/13"), _ALPHA_ONLY_FOR_BALL),
        ("isolate-terminals", ("--alpha", "1/13"), _ALPHA_ONLY_FOR_BALL),
        ("file", ("--c", "1/13"), _C_ONLY_FOR_CAPS),
        ("file", ("--alpha", "1/13"), _ALPHA_ONLY_FOR_BALL),
    ],
)
def test_eval_cut_refuses_a_flag_its_cut_does_not_take(
    lines13, tmp_path, capsys, cut, flags, message
):
    if cut == "file":
        cut = str(tmp_path / "caps.json")
        Path(cut).write_text(emit_cut(corner_caps(build_graph(4, 13), Fraction(1, 13))))
    assert cli.main(["eval-cut", "--instance", str(lines13), "--cut", cut, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "invalid-parameter", "message": message}


def test_eval_cut_prices_corner_caps_at_a_given_depth(lines13, capsys):
    g = build_graph(4, 13)
    expected = cost(corner_caps(g, Fraction(1, 13)), build_component(2, g))
    argv = ["eval-cut", "--instance", str(lines13), "--cut", "corner-caps", "--c", "1/13"]
    assert cli.main(argv) == 0
    exact = json.loads(capsys.readouterr().out)["results"]["cost"]["exact"]
    assert Fraction(exact) == expected > 0


def _malformed_inputs():
    """Case id -> (command, instance bytes or None for a missing file, cut, error)."""
    dimacs = emit_instance_dimacs(build_base_triangle(3), tag="triangle")

    def edit(old, new):
        assert old in dimacs.splitlines()
        return dimacs.replace(old, new, 1).encode()

    cut = emit_cut(midlines(build_graph(3, 3))).encode()
    bad = "invalid-parameter"
    return {
        "undecodable-instance": ("eval-cut", b"\xff\xfe\x00{}", "midlines", bad),
        "truncated-cut": ("eval-cut", dimacs.encode(), cut[: len(cut) // 2], bad),
        "weight-1/0": ("eval-cut", edit("e 0 1 1/5", "e 0 1 1/0"), "midlines", bad),
        "weight-nan": ("eval-cut", edit("e 0 1 1/5", "e 0 1 nan"), "midlines", bad),
        "weight-0x10": ("eval-cut", edit("e 0 1 1/5", "e 0 1 0x10"), "midlines", bad),
        "terminal-t-x-1": ("eval-cut", edit("t 0 1", "t x 1"), "midlines", bad),
        "problem-1e3": ("eval-cut", edit("p mwc 10 15 3", "p mwc 1e3 0 3"), "midlines", bad),
        "missing-instance": ("min-cut", None, None, "io-error"),
    }


_MALFORMED = _malformed_inputs()


@pytest.mark.parametrize("command,instance,cut,error", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_input_exits_2_with_one_json_error(
    tmp_path, capsys, command, instance, cut, error
):
    path = tmp_path / "instance"
    if instance is not None:
        path.write_bytes(instance)
    if isinstance(cut, bytes):
        (tmp_path / "cut.json").write_bytes(cut)
        cut = str(tmp_path / "cut.json")
    target = ["--cut", cut] if command == "eval-cut" else ["--terminal", "1"]
    assert cli.main([command, "--instance", str(path), *target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == error


def test_min_cut_value(triangle9):
    doc = report(run("min-cut", "--instance", str(triangle9), "--terminal", "1"))
    assert doc["results"]["min_cut"]["exact"] == "2/5"
    assert doc["results"]["provenance"] == "max-flow"


def test_huge_weights_are_reported_exactly(tmp_path):
    # every weight 10^60: the decimal column keeps all 61 integer digits
    g = build_graph(3, 3)
    w = WeightMap.from_numerators(g, 1, [10**60] * len(g.edges))
    path = tmp_path / "huge.json"
    path.write_text(emit_instance_json(w, tag="triangle"))
    for argv, key, value in [
        (("eval-cut", "--cut", "midlines"), "cost", cost(midlines(g), w)),
        (("min-cut", "--terminal", "1"), "min_cut", min_terminal_face_cut(w, 1)),
    ]:
        doc = report(run(argv[0], "--instance", str(path), *argv[1:]))
        assert value.denominator == 1 and value > 10**60
        assert doc["results"][key] == {"exact": f"{value}/1", "decimal": f"{value}.000000"}


def test_enumerate_counts_non_opposite():
    doc = report(run("enumerate", "--k", "4", "--n", "2"))
    assert doc["results"]["non_opposite_cuts"] == 729


def test_enumerate_requires_target():
    proc = run("enumerate", expect=2)
    assert stderr_error(proc)["error"] == "invalid-parameter"


def test_enumerate_count_rejects_mode():
    # counting visits every cut and has no search mode to choose
    proc = run("enumerate", "--k", "3", "--n", "2", "--mode", "exhaustive", expect=2)
    err = stderr_error(proc)
    assert err["error"] == "invalid-parameter"
    assert "--mode" in err["message"]


def test_enumerate_minimizes_instance(tmp_path):
    path = tmp_path / "lines2.json"
    run("gen", "--instance", "lines", "--n", "2", "--out", str(path))
    doc = report(
        run(
            "enumerate",
            "--instance",
            str(path),
            "--mode",
            "branch_and_bound",
        )
    )
    r = doc["results"]
    assert r["min_cost"]["exact"] == "1/1"
    assert r["proven_optimal"] is True
    assert len(r["argmin_labels"]) == 10


def test_enumerate_budget_exhausted_keeps_partial_report(tmp_path):
    path = tmp_path / "tri3.json"
    run("gen", "--instance", "triangle", "--n", "3", "--out", str(path))
    proc = run(
        "enumerate", "--instance", str(path), "--budget", "100", expect=1
    )
    assert stderr_error(proc)["error"] == "budget-exhausted"
    doc = report(proc)
    assert doc["parameters"]["mode"] == "exhaustive"
    assert doc["results"]["explored"] == 100
    assert doc["results"]["proven_optimal"] is False


def test_enumerate_count_refuses_small_budget():
    proc = run("enumerate", "--k", "3", "--n", "3", "--budget", "100", expect=1)
    err = stderr_error(proc)
    assert err["error"] == "budget-exhausted"
    assert "2916" in err["message"]


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("route", ["count", "instance"])
def test_enumerate_budget_below_one_is_exhausted(route, budget, triangle9):
    # both routes give one verdict and one message: a budget below 1 is
    # exhausted, not invalid, whatever the size of the labeling space
    target = ("--k", "3", "--n", "2") if route == "count" else ("--instance", str(triangle9))
    proc = run("enumerate", *target, "--budget", budget, expect=1)
    err = stderr_error(proc)
    assert err["error"] == "budget-exhausted"
    assert err["message"] == f"a budget of {budget} allows no labeling"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_sperner_verify_budget_below_one_is_exhausted(budget):
    proc = run("sperner-verify", "--k", "3", "--n", "2", "--budget", budget, expect=1)
    err = stderr_error(proc)
    assert err["error"] == "budget-exhausted"
    assert err["message"] == f"a budget of {budget} allows no labeling"


# a k = 4 point with support size s has s choices when admissible and s + 1
# (the auxiliary label added) when non-opposite; C(4, s) * C(n - 1, s - 1)
# points have support size s, and the four corners are pinned
@pytest.mark.parametrize(
    "command,space",
    [
        (
            ("enumerate", "--k", "4", "--n", "100"),
            3 ** (6 * 99) * 4 ** (4 * comb(99, 2)) * 5 ** comb(99, 3),
        ),
        (
            ("sperner-verify", "--k", "4", "--n", "60"),
            2 ** (6 * 59) * 3 ** (4 * comb(59, 2)) * 4 ** comb(59, 3),
        ),
    ],
    ids=["enumerate", "sperner-verify"],
)
def test_budget_refuses_a_space_too_long_to_print(command, space):
    # the space has more digits than str converts, so it is named by its
    # power of ten; the refusal is still exhausted, not a user error
    proc = run(*command, "--budget", "10", expect=1)
    err = stderr_error(proc)
    assert err["error"] == "budget-exhausted"
    found = re.fullmatch(r"more than 10\^(\d+) labelings exceed the budget of 10", err["message"])
    assert found
    power = int(found.group(1))
    assert 10**power < space <= 10 ** (power + 1)


@pytest.mark.parametrize(
    "command",
    [("enumerate", "--k", "4", "--n", "100"), ("sperner-verify", "--k", "4", "--n", "60")],
    ids=["enumerate", "sperner-verify"],
)
def test_budget_refusal_builds_nothing(monkeypatch, capsys, command):
    # the space is counted in closed form, so refusing it builds no lattice
    # and no hypergraph
    monkeypatch.setattr(search, "build_graph", lambda k, n: pytest.fail("built the lattice"))
    monkeypatch.setattr(sperner, "build_hypergraph", lambda k, n: pytest.fail("built the hypergraph"))
    assert cli.main([*command, "--budget", "10"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "budget-exhausted"


def test_budget_refusal_names_a_space_by_its_power_of_ten(monkeypatch, capsys):
    monkeypatch.setattr(search, "build_graph", lambda k, n: pytest.fail("built the lattice"))
    assert cli.main(["enumerate", "--k", "40", "--n", "3", "--budget", "10"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "budget-exhausted",
        "message": "more than 10^6692 labelings exceed the budget of 10",
    }


def test_sperner_verify_plain():
    doc = report(run("sperner-verify", "--k", "3", "--n", "2"))
    r = doc["results"]
    assert r["upper_bound"] == 1
    assert r["bound_attained"] is True
    assert r["max_monochromatic"] == 1
    assert doc["passed"] is True


def test_sperner_verify_failure_is_a_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "monochromatic_upper_bound", lambda k, n: 2)
    assert cli.main(["sperner-verify", "--k", "3", "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["passed"] is False
    assert json.loads(err) == {"error": "check-failure", "failing": ["bound_attained"]}


def test_sperner_verify_checks_the_witness(monkeypatch, capsys):
    # as in sperner-extremal-max, the maximum needs an admissible witness
    # that re-counts to it; all-ones is inadmissible off the first corner
    def all_ones(*args, **kwargs):
        rep = exhaustive_extremal(*args, **kwargs)
        return dataclasses.replace(rep, witness=(1,) * len(rep.witness))

    monkeypatch.setattr(cli, "exhaustive_extremal", all_ones)
    assert cli.main(["sperner-verify", "--k", "3", "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["bound_attained"] is True
    assert json.loads(err) == {"error": "check-failure", "failing": ["witness_labels"]}


def test_sperner_verify_face_restricted():
    doc = report(run("sperner-verify", "--k", "4", "--n", "2", "--face-restricted"))
    r = doc["results"]
    assert r["upper_bound"] is None
    assert r["bound_attained"] is None
    floors = r["count_floors"]
    assert [f["inadmissible"] for f in floors] == [0, 1, 2, 3, 4, 5, 6]
    assert all(f["ok"] for f in floors)
    assert doc["passed"] is True


def test_optimize_report_and_determinism():
    first = report(run("optimize"))
    again = report(run("optimize"))
    assert strip_timing(first) == strip_timing(again)
    r = first["results"]
    assert len(r["lambda"]) == 4
    assert r["regime"] == "asymptotic"
    assert abs(float(r["bound"]["decimal"]) - 1.20016) < 1e-4
    assert Fraction(r["bound"]["exact"]) > Fraction(12, 10)


def _pair(exact, decimal):
    return {"exact": exact, "decimal": decimal}


# results recorded when a refined grid still found them (optimize_params and
# limitation_sup now solve for the stationary point); every value is an
# exact rational
TUNED_OPTIMUM = {
    "lambda": [
        _pair("15360000000000/20434992796139", "0.751652"),
        _pair("3021362544000/20434992796139", "0.147852"),
        _pair("5630252139/20434992796139", "0.000276"),
        _pair("2048000000000/20434992796139", "0.100220"),
    ],
    "c": _pair("593/8000", "0.074125"),
    "bound": _pair("24525362544000/20434992796139", "1.200165"),
    "regime": "asymptotic",
    "provenance": "stationary-point",
}
GRID_RESULTS = {
    ("optimize",): TUNED_OPTIMUM,
    ("optimize", "--lambda3-zero"): {
        "lambda": [
            _pair("3/4", "0.750000"),
            _pair("3/20", "0.150000"),
            _pair("0/1", "0.000000"),
            _pair("1/10", "0.100000"),
        ],
        "c": _pair("1/4", "0.250000"),
        "bound": _pair("6/5", "1.200000"),
        "regime": "asymptotic",
        "provenance": "stationary-point",
    },
    ("limits", "--n", "39", "--c", "1/13"): {
        "sup": {
            "c": _pair("74279/1000000", "0.074279"),
            "value": _pair("11900687342862000000/9911752610151330253", "1.200664"),
            "upper": _pair(
                "834190672878728331566096441306775552/694774288329440607868239493045348829",
                "1.200664",
            ),
            "provenance": "stationary-point",
        },
        "asymptotic_min": _pair("9000523/7500000", "1.200070"),
        "regime": "asymptotic",
        "provenance": "formula",
        "finite_min": _pair("1522090597/1267500000", "1.200860"),
        "finite_n": 39,
        "finite_provenance": "direct-evaluation",
    },
}


@pytest.mark.parametrize("args", list(GRID_RESULTS), ids=" ".join)
def test_grid_results_pinned(args):
    assert report(run(*args))["results"] == GRID_RESULTS[args]


@pytest.mark.parametrize("flags", [("--steps", "10"), ("--refine-rounds", "1")])
def test_optimize_rejects_grid_flags(flags):
    proc = run("optimize", *flags, expect=2)
    assert stderr_error(proc)["error"] == "usage"


def test_limits_asymptotic_constants():
    doc = report(run("limits"))
    r = doc["results"]
    assert r["asymptotic_min"]["exact"] == "667213783/555937500"
    assert abs(float(r["sup"]["value"]["decimal"]) - 1.200664) < 1e-5
    assert "finite_min" not in r


def test_limits_finite_needs_integral_cap(tmp_path):
    # tuned cap depth is not integral at n=39; an integral one works
    proc = run("limits", "--n", "39", expect=2)
    assert stderr_error(proc)["error"] == "invalid-parameter"
    doc = report(run("limits", "--n", "39", "--c", "1/13"))
    r = doc["results"]
    assert r["finite_n"] == 39
    assert Fraction(r["finite_min"]["exact"]) > Fraction(r["asymptotic_min"]["exact"])
    assert r["finite_provenance"] == "direct-evaluation"


def test_limits_rejects_simplex_violation():
    proc = run("limits", "--lambda", "1,1,0,0", expect=2)
    assert stderr_error(proc)["error"] == "lambda-simplex-violation"


def test_reproduce_suite_green():
    doc = report(run("reproduce", "--suite", "lemmas"))
    assert doc["passed"] is True
    ids = [c["id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))
    assert all(c["passed"] for c in doc["checks"])


def test_reproduce_flags_budget_failures():
    proc = run("reproduce", "--suite", "enumeration", "--budget", "10", expect=1)
    err = stderr_error(proc)
    assert err["error"] == "check-failure"
    assert "exhaustive-min-face" in err["failing"]
    doc = report(proc)
    assert doc["passed"] is False


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_reproduce_budget_below_one_is_exhausted(suite, budget):
    # refused before any check runs, whether or not the suite searches
    proc = run("reproduce", "--suite", suite, "--budget", budget, expect=1)
    assert proc.stdout == ""
    err = stderr_error(proc)
    assert err["error"] == "budget-exhausted"
    assert err["message"] == f"a budget of {budget} allows no labeling"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [*COMMAND, "no-such-command"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "usage"
    assert "no-such-command" in err["message"]


def test_threads_flag_is_gone():
    proc = run("reproduce", "--threads", "2", expect=2)
    err = stderr_error(proc)
    assert err["error"] == "usage"
    assert "--threads" in err["message"]


def test_help_exits_zero():
    proc = run("--help")
    assert "usage:" in proc.stdout


def test_internal_key_error_is_not_a_user_error(monkeypatch):
    # only malformed input exits 2; a KeyError from inside is a bug and surfaces
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_limits", broken)
    with pytest.raises(KeyError):
        cli.main(["limits"])


def _readme_commands():
    """The simplexcut lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("simplexcut ")]


def test_readme_commands_run(monkeypatch, tmp_path, capsys):
    # in order: later commands read the files earlier ones write
    commands = _readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
