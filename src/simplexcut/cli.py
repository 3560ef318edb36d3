"""Command-line surface.

Each cmd_* function returns (document, failure) and main alone keeps the
output contract:

- the document, the instance text for gen and a JSON report otherwise,
  goes to stdout or --out;
- a report is stamped with "command" first (the subcommand, unless the
  report names its own) and "elapsed_s" last (main's clock, unless the
  report carries its own);
- failure is None for exit 0, or the JSON error object of exit 1:
  "budget-exhausted" for a partial enumerate, "check-failure" for a failed
  sperner-verify or reproduce check;
- a search refused for its budget exits 1 with "budget-exhausted" and no
  report; invalid parameters or malformed input exit 2 with
  "invalid-parameter", "lambda-simplex-violation", "io-error" or, for a
  command-line usage error, "usage".

Every non-zero exit ends stderr with its one-line JSON error object.
Execution is serial, which keeps every report deterministic modulo its
elapsed_s timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bounds import limitation_min, limitation_sup, optimize_params
from .cuts import NAMED_CUTS, cost, delta, is_fragmenting, is_non_opposite, named_cut
from .errors import BudgetExceededError, LambdaSimplexError
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
from .lattice import build_graph
from .reproduce import SUITES, run_suite
from .search import (
    DEFAULT_LABELING_BUDGET,
    SEARCH_MODES,
    SearchBudget,
    enumerate_non_opposite,
    min_non_opposite_cost,
    min_terminal_face_cut,
)
from .sperner import count_floors, exhaustive_extremal, monochromatic_upper_bound, verdicts

_COMPONENT_INDEX = {name: i for i, name in COMPONENT_NAMES.items()}
_INSTANCE_CHOICES = ("triangle",) + tuple(_COMPONENT_INDEX) + ("combined",)


def _c_and_lambda(args) -> tuple[Fraction | None, tuple[Fraction, ...] | None]:
    """--c and --lambda, parsed; each None when absent."""
    c = parse_rational(args.c) if args.c is not None else None
    if args.lam is None:
        return c, None
    parts = args.lam.split(",")
    if len(parts) != 4:
        raise ValueError("--lambda expects four comma-separated rationals")
    return c, tuple(map(parse_rational, parts))


def _gap_params(c: Fraction | None, lam: tuple[Fraction, ...] | None) -> GapParams:
    """The mixture of lam at cap depth c; the tuned one fills what is None."""
    if lam is None:
        return GapParams.tuned(c=c)
    return GapParams(*lam, c=GapParams.tuned().c if c is None else c)


def _both(x: Fraction) -> dict:
    return {"exact": render_rational(x), "decimal": render_decimal(x)}


def cmd_gen(args) -> tuple[str, None]:
    tag = args.instance
    c, lam = _c_and_lambda(args)
    if tag == "triangle":
        if c is not None or lam is not None:
            raise ValueError("the triangle instance takes neither --c nor --lambda")
        w = build_base_triangle(args.n)
    elif tag == "combined":
        params = _gap_params(c, lam)
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
    emitter = emit_instance_json if args.format == "json" else emit_instance_dimacs
    return emitter(w, tag=tag, c=c, lam=lam, include_zero_edges=args.include_zero_edges), None


def _load_instance(path: str):
    return parse_instance(Path(path).read_text())


def cmd_eval_cut(args) -> tuple[dict, dict | None]:
    # --c and --alpha are named for named_cut's keywords: each applies to the cut taking it
    for name, (_build, keyword, _what) in NAMED_CUTS.items():
        if keyword is not None and getattr(args, keyword) is not None and args.cut != name:
            raise ValueError(f"--{keyword} only applies to --cut {name}")
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
        "parameters": {"instance": args.instance, "cut": args.cut},
        "results": {
            "cost": _both(value),
            "cut_edges": len(delta(p)),
            "non_opposite": is_non_opposite(p),
            "fragmenting": is_fragmenting(p) if g.k == 3 else None,
            "provenance": "direct-evaluation",
        },
    }
    return doc, None


def cmd_min_cut(args) -> tuple[dict, dict | None]:
    parsed = _load_instance(args.instance)
    value = min_terminal_face_cut(parsed.weights, args.terminal)
    doc = {
        "parameters": {"instance": args.instance, "terminal": args.terminal},
        "results": {"min_cut": _both(value), "provenance": "max-flow"},
    }
    return doc, None


def cmd_enumerate(args) -> tuple[dict, dict | None]:
    if args.instance is not None:
        if args.k is not None or args.n is not None:
            raise ValueError("--k/--n only apply without --instance, whose file fixes the lattice")
        parsed = _load_instance(args.instance)
        w = parsed.weights
        mode = args.mode or SearchBudget.mode
        result = min_non_opposite_cost(w, SearchBudget(max_labelings=args.budget, mode=mode))
        doc = {
            "parameters": {"instance": args.instance, "budget": args.budget, "mode": mode},
            "results": {
                "min_cost": _both(result.min_cost),
                "argmin_labels": list(result.argmin.labels),
                "explored": result.explored,
                "proven_optimal": result.proven_optimal,
                "provenance": "enumeration",
            },
        }
        if result.proven_optimal:
            return doc, None
        message = f"stopped after {result.explored} labelings"
        return doc, {"error": "budget-exhausted", "message": message}
    if args.k is None or args.n is None:
        raise ValueError("enumerate needs either --instance or both --k and --n")
    if args.mode is not None:
        raise ValueError("--mode only applies to --instance; --k/--n count cuts")
    count = enumerate_non_opposite(args.k, args.n, max_labelings=args.budget)
    doc = {
        "parameters": {"k": args.k, "n": args.n, "budget": args.budget},
        "results": {"non_opposite_cuts": count, "provenance": "enumeration"},
    }
    return doc, None


def cmd_sperner_verify(args) -> tuple[dict, dict | None]:
    rep = exhaustive_extremal(
        args.k, args.n, face_restricted=args.face_restricted, max_labelings=args.budget
    )
    verdict = verdicts(rep)
    # the admissible upper bound only constrains plain (admissible) scans
    plain = not args.face_restricted
    results = {
        "explored": rep.explored,
        "max_monochromatic": rep.max_monochromatic,
        "upper_bound": monochromatic_upper_bound(args.k, args.n) if plain else None,
        "bound_attained": verdict.get("bound_attained"),
        "witness_labels": list(rep.witness),
        "provenance": "enumeration",
    }
    if not plain:
        results["count_floors"] = [
            {
                "inadmissible": z,
                "min_nonmonochromatic": count,
                "floor": render_rational(floor),
                "ok": count >= floor,
            }
            for z, count, floor in count_floors(rep)
        ]
    failing = [name for name, ok in verdict.items() if not ok]
    doc = {
        "parameters": {
            "k": args.k,
            "n": args.n,
            "face_restricted": args.face_restricted,
            "budget": args.budget,
        },
        "results": results,
        "passed": not failing,
    }
    return doc, {"error": "check-failure", "failing": failing} if failing else None


def cmd_optimize(args) -> tuple[dict, dict | None]:
    params, bound = optimize_params(lambda3_zero=args.lambda3_zero)
    doc = {
        "parameters": {"lambda3_zero": args.lambda3_zero},
        "results": {
            "lambda": [_both(x) for x in params.lams()],
            "c": _both(params.c),
            "bound": _both(bound),
            "regime": "asymptotic",
            "provenance": "stationary-point",
        },
    }
    return doc, None


def cmd_limits(args) -> tuple[dict, dict | None]:
    c_star, beta_star, upper = limitation_sup()
    params = _gap_params(*_c_and_lambda(args))
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
        "parameters": {
            "lambda": [render_rational(x) for x in params.lams()],
            "c": render_rational(params.c),
            "n": args.n,
        },
        "results": results,
    }
    return doc, None


def cmd_reproduce(args) -> tuple[dict, dict | None]:
    SearchBudget(args.budget)  # a budget below 1 is refused before any check runs
    report = run_suite(args.suite, budget=args.budget)
    failing = [c.id for c in report.checks if not c.passed]
    return report.as_dict(), {"error": "check-failure", "failing": failing} if failing else None


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
    p.add_argument("--c", help="cap depth for corner-caps (default: the instance's)")
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
    p.add_argument(
        "--mode", choices=SEARCH_MODES, help=f"with --instance (default {SearchBudget.mode})"
    )
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
    started = time.perf_counter()
    try:
        document, failure = args.func(args)
        if isinstance(document, dict):
            document = {"command": args.subcommand, **document}
            document.setdefault("elapsed_s", time.perf_counter() - started)
            document = json.dumps(document, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(document)
        else:
            Path(args.out).write_text(document)
        code = 0 if failure is None else 1
    except BudgetExceededError as exc:
        failure, code = {"error": "budget-exhausted", "message": str(exc)}, 1
    except LambdaSimplexError as exc:
        failure, code = {"error": "lambda-simplex-violation", "message": str(exc)}, 2
    except ValueError as exc:
        failure, code = {"error": "invalid-parameter", "message": str(exc)}, 2
    except OSError as exc:
        failure, code = {"error": "io-error", "message": str(exc)}, 2
    if failure is not None:
        print(json.dumps(failure), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
