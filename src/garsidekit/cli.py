"""Command-line front end.

Subcommands: ``nf`` (normal forms), ``len`` (length metrics), ``solve``
(equation search from a JSON spec), ``experiment`` / ``compare`` (ranking
experiments from a JSON config, CSV/SVG out), ``oracle`` (exact geodesic
length), ``info`` (the kernel backend and the interpreter). Exit codes: 0
success, 1 no-solution or not-found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from . import kernels
from .artin import artin_structure
from .bkl import bkl_structure
from .core import greedy_nf, rational_nf
from .errors import GarsideError, NoSolutionFound, NotFound, WordSyntaxError
from .experiments import (
    WINDOW,
    ExperimentConfig,
    compare_metrics,
    run_experiment,
    write_csv,
    write_svg,
)
from .lengths import LengthMetric, metric_length
from .oracle import geodesic_length
from .solver import EquationSpec, SolverConfig, solve_equation, solve_with_length_range
from .syntax import format_rational, format_greedy, format_word, parse_word, sniff_structure

METRIC_NAMES = [m.value for m in LengthMetric]


def _structure(kind: str, strands: int):
    return artin_structure(strands) if kind == "artin" else bkl_structure(strands)


def _cmd_nf(args) -> int:
    structure = _structure(args.structure, args.strands)
    word = parse_word(args.word, structure)
    g = greedy_nf(word)
    if args.form == "greedy":
        print(format_greedy(g))
    else:
        print(format_rational(rational_nf(g)))
    return 0


def _cmd_len(args) -> int:
    metric = LengthMetric.from_name(args.metric)
    structure = sniff_structure(args.word, args.strands)
    if structure is None:
        structure = _structure(metric.structure_kind, args.strands)
    word = parse_word(args.word, structure)
    print(metric_length(word, metric))
    return 0


def _cmd_oracle(args) -> int:
    structure = _structure(args.structure, args.strands)
    word = parse_word(args.word, structure)
    deadline = time.monotonic() + args.timeout if args.timeout is not None else None
    try:
        print(geodesic_length(word, max_radius=args.max, deadline=deadline))
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args) -> int:
    structure = _structure(args.structure, args.strands)
    if args.spec == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.spec) as fh:
            doc = json.load(fh)
    eq = EquationSpec.from_json(doc, structure)
    cutoffs = None
    if args.cutoffs:
        cutoffs = tuple(int(c) for c in args.cutoffs.split(","))
    cfg = SolverConfig(
        n=args.n,
        memory=args.memory,
        metric=LengthMetric.from_name(args.metric),
        cutoffs=cutoffs,
    )
    try:
        if args.n_max is not None:
            assignment = solve_with_length_range(
                eq, cfg, range(args.n, args.n_max + 1), timeout=args.timeout
            )
        else:
            assignment = solve_equation(eq, cfg, timeout=args.timeout)
    except NoSolutionFound as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    for name in sorted(assignment):
        print(f"{name} = {format_word(assignment[name])}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(json.load(fh))
    result = run_experiment(cfg, workers=args.workers)
    write_csv(result, args.csv)
    if args.svg:
        write_svg([(cfg.metric.value, result)], args.svg)
    reached = sum(result.histogram[:3]) / result.samples
    print(f"samples={result.samples} P(best position <= 3)={reached}")
    return 0


def _cmd_compare(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object: {doc!r}")
    cfg_a = ExperimentConfig.from_json(dict(doc, metric=args.metric_a))
    cfg_b = ExperimentConfig.from_json(dict(doc, metric=args.metric_b))
    report = compare_metrics(cfg_a, cfg_b, workers=args.workers)
    if args.csv_a:
        write_csv(report.result_a, args.csv_a)
    if args.csv_b:
        write_csv(report.result_b, args.csv_b)
    if args.svg:
        write_svg(
            [(cfg_a.metric.value, report.result_a), (cfg_b.metric.value, report.result_b)],
            args.svg,
        )
    window = min(WINDOW, 2 * cfg_a.ng)
    print(
        f"fraction_nonneg={report.fraction_nonneg()} "
        f"area={report.area()} "
        f"(diff = {args.metric_b} minus {args.metric_a}, first {window} positions)"
    )
    return 0


def _cmd_info(args) -> int:
    print(
        json.dumps(
            {
                "backend": kernels.BACKEND,
                "kernels": kernels.backends()[kernels.BACKEND].__file__,
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garsidekit",
        description="Braid-group normal forms, lengths, equation solving and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="print a normal form")
    nf.add_argument("--structure", choices=["artin", "bkl"], default="artin")
    nf.add_argument("--strands", type=int, required=True)
    nf.add_argument("--form", choices=["greedy", "rational"], default="greedy")
    nf.add_argument("word", nargs="?", default="")
    nf.set_defaults(func=_cmd_nf)

    ln = sub.add_parser("len", help="length of a word under a metric")
    ln.add_argument("--metric", choices=METRIC_NAMES, required=True)
    ln.add_argument("--strands", type=int, required=True)
    ln.add_argument("word", nargs="?", default="")
    ln.set_defaults(func=_cmd_len)

    oracle = sub.add_parser("oracle", help="exact geodesic length (brute force)")
    oracle.add_argument("--structure", choices=["artin", "bkl"], default="artin")
    oracle.add_argument("--strands", type=int, required=True)
    oracle.add_argument(
        "--max",
        type=int,
        default=None,
        help="search radius (default: min(letters, l_R), l_R the rational length)",
    )
    oracle.add_argument("--timeout", type=float, default=None, help="seconds")
    oracle.add_argument("word", nargs="?", default="")
    oracle.set_defaults(func=_cmd_oracle)

    solve = sub.add_parser("solve", help="solve an equation from a JSON spec")
    solve.add_argument("--spec", required=True, help="path to JSON, or - for stdin")
    solve.add_argument("--structure", choices=["artin", "bkl"], default="artin")
    solve.add_argument("--strands", type=int, required=True)
    solve.add_argument("--n", type=int, required=True, help="expression length")
    solve.add_argument("--n-max", type=int, default=None, help="retry n up to this")
    solve.add_argument("--memory", "-M", type=int, default=64)
    solve.add_argument("--metric", choices=METRIC_NAMES, default="rational-bkl")
    solve.add_argument("--cutoffs", default=None, help="comma-separated per-variable")
    solve.add_argument("--timeout", type=float, default=None, help="seconds")
    solve.set_defaults(func=_cmd_solve)

    exp = sub.add_parser("experiment", help="run a ranking experiment")
    exp.add_argument("--config", required=True, help="JSON config path")
    exp.add_argument("--csv", required=True)
    exp.add_argument("--svg", default=None)
    exp.add_argument("--workers", type=int, default=1)
    exp.set_defaults(func=_cmd_experiment)

    cmp_ = sub.add_parser("compare", help="paired run of two metrics")
    cmp_.add_argument("--config", required=True, help="JSON config path")
    cmp_.add_argument("--metric-a", choices=METRIC_NAMES, default="rational-artin")
    cmp_.add_argument("--metric-b", choices=METRIC_NAMES, default="rational-bkl")
    cmp_.add_argument("--csv-a", default=None)
    cmp_.add_argument("--csv-b", default=None)
    cmp_.add_argument("--svg", default=None)
    cmp_.add_argument("--workers", type=int, default=1)
    cmp_.set_defaults(func=_cmd_compare)

    info = sub.add_parser("info", help="kernel backend and interpreter, as JSON")
    info.set_defaults(func=_cmd_info)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except WordSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, GarsideError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
