"""Command-line surface.

Every subcommand prints a JSON report (or the requested instance file) to
stdout or --out.  Exit codes: 0 success, 1 failed check or exhausted
budget, 2 invalid parameters or malformed input, with a machine-readable
JSON object on stderr for the non-zero cases.  Execution is serial, which
keeps every report deterministic modulo timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bounds import limitation_min, limitation_sup, optimize_params
from .cuts import NAMED_CUTS, cost, delta, is_fragmenting, is_non_opposite, named_cut, non_opposite
from .errors import BudgetExceededError
from .instances import (
    COMPONENT_NAMES,
    GapParams,
    build_base_triangle,
    build_component,
    check_resolution,
    combine,
)
from .io import (
    emit_instance_dimacs,
    emit_instance_json,
    parse_cut,
    parse_instance,
    parse_rational,
    render_decimal,
    render_rational,
)
from .lattice import build_graph, family_size
from .reproduce import SUITES, run_suite
from .search import (
    DEFAULT_LABELING_BUDGET,
    SEARCH_MODES,
    SearchBudget,
    _within_budget,
    enumerate_non_opposite,
    min_non_opposite_cost,
    min_terminal_face_cut,
)
from .sperner import (
    count_floors,
    exhaustive_extremal,
    monochromatic_upper_bound,
    witness_attains,
)

_COMPONENT_INDEX = {name: i for i, name in COMPONENT_NAMES.items()}
_INSTANCE_CHOICES = ("triangle",) + tuple(_COMPONENT_INDEX) + ("combined",)


def _error_code(message: str) -> str:
    if "sum to" in message and "expected 1" in message:
        return "lambda-simplex-violation"
    return "invalid-parameter"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _error(error: str, **fields) -> None:
    """Write the JSON error object that ends every non-zero exit's stderr."""
    print(json.dumps({"error": error, **fields}), file=sys.stderr)


def _emit_report(doc: dict, out: str | None, started: float) -> None:
    doc["elapsed_s"] = time.perf_counter() - started
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _parse_lambda(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--lambda expects four comma-separated rationals")
    a, b, c, d = (parse_rational(p) for p in parts)
    return a, b, c, d


def _gap_params(args) -> GapParams:
    """The mixture given by --lambda and --c; the tuned one fills what is absent."""
    c = parse_rational(args.c) if args.c is not None else None
    if args.lam is None:
        return GapParams.tuned(c=c)
    return GapParams(*_parse_lambda(args.lam), c=GapParams.tuned().c if c is None else c)


def _both(x: Fraction) -> dict:
    return {"exact": render_rational(x), "decimal": render_decimal(x)}


def cmd_gen(args) -> int:
    tag = args.instance
    c = parse_rational(args.c) if args.c is not None else None
    lam = _parse_lambda(args.lam) if args.lam is not None else None
    if tag == "triangle":
        if c is not None or lam is not None:
            raise ValueError("the triangle instance takes neither --c nor --lambda")
        w = build_base_triangle(args.n)
    elif tag == "combined":
        params = _gap_params(args)
        c, lam = params.c, params.lams()
        check_resolution(args.n, lam, c)
        w = combine(params, build_graph(4, args.n))
    else:
        if lam is not None:
            raise ValueError("--lambda only applies to the combined instance")
        index = _COMPONENT_INDEX[tag]
        if index != 3 and c is not None:
            raise ValueError(f"the {tag} component takes no --c")
        check_resolution(args.n, [i == index for i in range(1, 5)], c)
        w = build_component(index, build_graph(4, args.n), c=c)
        if index != 3:
            c = None
    emitter = emit_instance_json if args.format == "json" else emit_instance_dimacs
    _emit(
        emitter(w, tag=tag, c=c, lam=lam, include_zero_edges=args.include_zero_edges),
        args.out,
    )
    return 0


def _load_instance(path: str):
    return parse_instance(Path(path).read_text())


def cmd_eval_cut(args) -> int:
    started = time.perf_counter()
    parsed = _load_instance(args.instance)
    w = parsed.weights
    g = w.graph
    if args.cut in NAMED_CUTS:
        c = parse_rational(args.c) if args.c is not None else parsed.c
        alpha = parse_rational(args.alpha) if args.alpha is not None else None
        p = named_cut(args.cut, g, c=c, alpha=alpha)
    else:
        p = parse_cut(Path(args.cut).read_text())
        if p.graph != g:
            raise ValueError(
                f"cut is for k={p.graph.k}, n={p.graph.n}; instance has k={g.k}, n={g.n}"
            )
    value = cost(p, w)
    doc = {
        "command": "eval-cut",
        "parameters": {"instance": args.instance, "cut": args.cut},
        "results": {
            "cost": _both(value),
            "cut_edges": len(delta(p)),
            "non_opposite": is_non_opposite(p),
            "fragmenting": is_fragmenting(p) if g.k == 3 else None,
            "provenance": "direct-evaluation",
        },
    }
    _emit_report(doc, args.out, started)
    return 0


def cmd_min_cut(args) -> int:
    started = time.perf_counter()
    parsed = _load_instance(args.instance)
    value = min_terminal_face_cut(parsed.weights, args.terminal)
    doc = {
        "command": "min-cut",
        "parameters": {"instance": args.instance, "terminal": args.terminal},
        "results": {"min_cut": _both(value), "provenance": "max-flow"},
    }
    _emit_report(doc, args.out, started)
    return 0


def cmd_enumerate(args) -> int:
    started = time.perf_counter()
    if args.instance is not None:
        parsed = _load_instance(args.instance)
        w = parsed.weights
        mode = args.mode or "exhaustive"
        result = min_non_opposite_cost(w, SearchBudget(max_labelings=args.budget, mode=mode))
        doc = {
            "command": "enumerate",
            "parameters": {"instance": args.instance, "budget": args.budget, "mode": mode},
            "results": {
                "min_cost": _both(result.min_cost),
                "argmin_labels": list(result.argmin.labels),
                "explored": result.explored,
                "proven_optimal": result.proven_optimal,
                "provenance": "enumeration",
            },
        }
        _emit_report(doc, args.out, started)
        if not result.proven_optimal:
            _error("budget-exhausted", message=f"stopped after {result.explored} labelings")
            return 1
        return 0
    if args.k is None or args.n is None:
        raise ValueError("enumerate needs either --instance or both --k and --n")
    if args.mode is not None:
        raise ValueError("--mode only applies to --instance; --k/--n count cuts")
    # the space is counted from the rule, so a refusal builds no lattice
    _within_budget(family_size(args.k, args.n, non_opposite), args.budget)
    count = enumerate_non_opposite(build_graph(args.k, args.n), max_labelings=args.budget)
    doc = {
        "command": "enumerate",
        "parameters": {"k": args.k, "n": args.n, "budget": args.budget},
        "results": {"non_opposite_cuts": count, "provenance": "enumeration"},
    }
    _emit_report(doc, args.out, started)
    return 0


def cmd_sperner_verify(args) -> int:
    started = time.perf_counter()
    rep = exhaustive_extremal(
        args.k, args.n, face_restricted=args.face_restricted, max_labelings=args.budget
    )
    bound = monochromatic_upper_bound(args.k, args.n)
    # the admissible upper bound only constrains plain (admissible) scans
    plain = not args.face_restricted
    results = {
        "explored": rep.explored,
        "max_monochromatic": rep.max_monochromatic,
        "upper_bound": bound if plain else None,
        "bound_attained": rep.max_monochromatic == bound if plain else None,
        "witness_labels": list(rep.witness),
        "provenance": "enumeration",
    }
    if plain:
        # as in sperner-extremal-max, a witness must attain the maximum
        verdicts = {
            "bound_attained": results["bound_attained"],
            "witness_labels": witness_attains(rep),
        }
    else:
        results["count_floors"] = [
            {
                "inadmissible": z,
                "min_nonmonochromatic": count,
                "floor": render_rational(floor),
                "ok": count >= floor,
            }
            for z, count, floor in count_floors(rep)
        ]
        verdicts = {"count_floors": all(f["ok"] for f in results["count_floors"])}
    failing = [name for name, ok in verdicts.items() if not ok]
    doc = {
        "command": "sperner-verify",
        "parameters": {
            "k": args.k,
            "n": args.n,
            "face_restricted": args.face_restricted,
            "budget": args.budget,
        },
        "results": results,
        "passed": not failing,
    }
    _emit_report(doc, args.out, started)
    if failing:
        _error("check-failure", failing=failing)
        return 1
    return 0


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    params, bound = optimize_params(lambda3_zero=args.lambda3_zero)
    doc = {
        "command": "optimize",
        "parameters": {"lambda3_zero": args.lambda3_zero},
        "results": {
            "lambda": [_both(x) for x in params.lams()],
            "c": _both(params.c),
            "bound": _both(bound),
            "regime": "asymptotic",
            "provenance": "stationary-point",
        },
    }
    _emit_report(doc, args.out, started)
    return 0


def cmd_limits(args) -> int:
    started = time.perf_counter()
    c_star, beta_star, upper = limitation_sup()
    params = _gap_params(args)
    results = {
        "sup": {
            "c": _both(c_star),
            "value": _both(beta_star),
            "upper": _both(upper),
            "provenance": "stationary-point",
        },
        "asymptotic_min": _both(limitation_min(params)),
        "regime": "asymptotic",
        "provenance": "formula",
    }
    if args.n is not None:
        results["finite_min"] = _both(limitation_min(params, n=args.n))
        results["finite_n"] = args.n
        results["finite_provenance"] = "direct-evaluation"
    doc = {
        "command": "limits",
        "parameters": {
            "lambda": [render_rational(x) for x in params.lams()],
            "c": render_rational(params.c),
            "n": args.n,
        },
        "results": results,
    }
    _emit_report(doc, args.out, started)
    return 0


def cmd_reproduce(args) -> int:
    SearchBudget(args.budget)  # a budget below 1 is refused before any check runs
    report = run_suite(args.suite, budget=args.budget)
    _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
    if not report.passed:
        _error("check-failure", failing=[c.id for c in report.checks if not c.passed])
        return 1
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors also end with the JSON error object on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        error = json.dumps({"error": "usage", "message": message})
        self.exit(2, f"{self.prog}: error: {message}\n{error}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="simplexcut",
        description="Construct, price, search, and verify simplex-lattice cut instances.",
    )
    common = _ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate an instance file")
    p.add_argument("--instance", choices=_INSTANCE_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", help="cap depth as a rational or decimal")
    p.add_argument("--lambda", dest="lam", help="four mixing weights a,b,c,d")
    p.add_argument("--format", choices=("json", "dimacs"), default="json")
    p.add_argument("--include-zero-edges", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval-cut", parents=[common], help="price a cut on an instance")
    p.add_argument("--instance", required=True, help="instance file (json or dimacs)")
    p.add_argument(
        "--cut",
        required=True,
        help=f"named cut ({', '.join(NAMED_CUTS)}) or a cut file path",
    )
    p.add_argument("--c", help="cap depth for cuts that take one")
    p.add_argument("--alpha", help="ball radius fraction for terminal-ball")
    p.set_defaults(func=cmd_eval_cut)

    p = sub.add_parser(
        "min-cut", parents=[common], help="exact terminal-to-opposite-side min cut"
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--terminal", type=int, required=True, choices=(1, 2, 3))
    p.set_defaults(func=cmd_min_cut)

    p = sub.add_parser(
        "enumerate",
        parents=[common],
        help="enumerate non-opposite cuts, or minimize cost over them",
    )
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--instance", help="minimize over this instance instead of counting")
    p.add_argument("--mode", choices=SEARCH_MODES, help="with --instance (default exhaustive)")
    p.add_argument("--budget", type=int, default=DEFAULT_LABELING_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "sperner-verify", parents=[common], help="exhaustive labeling extremal check"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--face-restricted", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_LABELING_BUDGET)
    p.set_defaults(func=cmd_sperner_verify)

    p = sub.add_parser("optimize", parents=[common], help="maximize the certified floor")
    p.add_argument("--lambda3-zero", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("limits", parents=[common], help="certificate-cut limitation values")
    p.add_argument("--lambda", dest="lam", help="four mixing weights a,b,c,d")
    p.add_argument("--c", help="cap depth as a rational or decimal")
    p.add_argument(
        "--n",
        type=int,
        help="also price the three certificate cuts at this n; finite_min is the "
        "cheapest of them, an upper bound on the instance's non-opposite minimum",
    )
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("reproduce", parents=[common], help="run an acceptance suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    p.add_argument("--budget", type=int, default=DEFAULT_LABELING_BUDGET)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _error("budget-exhausted", message=str(exc))
        return 1
    except ValueError as exc:
        _error(_error_code(str(exc)), message=str(exc))
        return 2
    except OSError as exc:
        _error("io-error", message=str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
