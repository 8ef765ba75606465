"""regcli: command-line front end.

Subcommands: gen-case, solve, sweep, rmse, render, real-life.
Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from . import bench, io
from .kernels import KernelError
from .transform import SolveError


def _write(path: str, text: str):
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _read(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _cmd_gen_case(args) -> int:
    landmarks, _, _ = bench.gen_case(bench.CaseSpec(args.case))
    _write(args.out, io.write_landmarks(landmarks))
    return 0


def _cmd_solve(args) -> int:
    landmarks = io.parse_landmarks(_read(args.landmarks))
    build = io.method_from_config(_read(args.config))
    transform = build(landmarks)
    grid = bench.default_grid()
    values = transform(grid.points)
    _write(args.grid_out, io.write_grid_csv(grid.points, values))
    return 0


def _sweep_rows(report: bench.SweepReport):
    for value, err, cond in zip(report.values, report.rmses, report.conditions):
        optimal = value == report.optimal_value if report.parameter else True
        reported = (report.reported_value, report.reported_rmse) if optimal else (None, None)
        yield (report.method, report.case_kind, report.parameter or "",
               *map(io._fmt, (value, err, cond)),
               "1" if optimal and err is not None else "0",
               *map(io._fmt, reported))


def _sweep_csv(report: bench.SweepReport) -> str:
    return io._csv("method,case,parameter,value,rmse,condition,optimal,reported_value,reported_rmse",
                   _sweep_rows(report))


def _cmd_sweep(args) -> int:
    case = bench.CaseSpec(args.case)
    if args.reference == "truth":
        _, _, truth = bench.gen_case(case)
        if truth is None:
            raise ValueError(f"case {args.case!r} has no analytic ground truth; "
                             "use --reference identity")
        reference = truth
    else:
        reference = None
    param_range = None
    if args.start is not None or args.stop is not None or args.count is not None:
        if None in (args.start, args.stop, args.count):
            raise ValueError("--start, --stop and --count must be given together")
        param_range = (args.start, args.stop, args.count)
    report = bench.sweep(args.method, case, param_range, reference)
    _write(args.out, _sweep_csv(report))
    return 0


def _cmd_rmse(args) -> int:
    points_a, values_a = io.parse_grid_csv(_read(args.a))
    points_b, values_b = io.parse_grid_csv(_read(args.b))
    if points_a.shape != points_b.shape or not np.allclose(points_a, points_b, rtol=0, atol=1e-15):
        raise ValueError("grid files do not share the same evaluation points")
    delta = values_a - values_b
    print(io._fmt(np.sqrt((delta * delta).sum(axis=1).mean())))
    return 0


def _cmd_render(args) -> int:
    points, values = io.parse_grid_csv(_read(args.grid))
    rows, cols = io.infer_grid_shape(points)
    original = bench.EvaluationGrid(points, rows, cols)
    landmarks = io.parse_landmarks(_read(args.landmarks)) if args.landmarks else None
    _write(args.out, io.render_grid_svg(original, values, landmarks))
    return 0


def _cmd_real_life(args) -> int:
    rows = ((row.method, row.parameter or "", *map(io._fmt, (row.value, row.rmse, row.reported_rmse)))
            for row in bench.real_life_run())
    _write(args.out, io._csv("method,parameter,value,rmse,reported_rmse", rows))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """regcli's argument parser, built once per process.

    Parsing reads the parser and changes nothing in it: each call gets a
    new namespace, and a refused command line leaves nothing behind.
    """
    parser = argparse.ArgumentParser(
        prog="regcli",
        description="Landmark-based registration transforms and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-case", help="generate a test case's landmark CSV")
    p.add_argument("--case", required=True, choices=bench.CASE_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_case)

    p = sub.add_parser("solve", help="solve a transform and evaluate it on the default grid")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid-out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="sweep a method's shape parameter over a case")
    p.add_argument("--case", required=True, choices=bench.CASE_KINDS)
    p.add_argument("--method", required=True, choices=bench.METHOD_NAMES)
    p.add_argument("--reference", required=True, choices=("identity", "truth"),
                   help="RMSE reference map (the two conventions disagree; pick one)")
    p.add_argument("--out", required=True)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--count", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rmse", help="RMSE between two grid CSV files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_rmse)

    p = sub.add_parser("render", help="render a deformed grid CSV as SVG")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--landmarks")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("real-life", help="run the six-method real-life report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_real_life)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (KernelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
