"""Command line front end: instance generation, solves, oracles, sweeps, comparisons.

Subcommands: ``gen-grid`` writes a grid instance file, ``solve`` runs the solver
and renders the iteration table (plus an optional full-precision trace CSV),
``oracle`` reports the exact shift, ``shift-sweep`` tabulates approximate shifts
along the weight schedule, and ``compare`` runs both solver modes side by side.
The HIERALM_LOG environment variable (error, warn, info, debug) sets verbosity.
``gen-grid``, ``oracle`` and ``shift-sweep`` run on numpy alone; only the solves
of ``solve`` and ``compare`` load SciPy.

Each subcommand is a ``cmd_*`` function of the parsed arguments, bound to its
parser by ``set_defaults(run=...)``; ``main`` builds the parser once per
process. The library's own errors pass through
unchanged: ``main`` prints a ``CliError``, a ``ValueError`` (a bad parameter, a
malformed file, a grid too large for memory), an ``OSError`` or a
``SubproblemUnboundedError`` as one ``hieralm: error:`` line.

Exit codes for solve: 0 Converged, 2 MaxIter, 3 DivergenceSuspected; compare
exits with the infeasibility-control run's code; any usage or file error, and a
subproblem with no finite minimum, exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .alm import (
    TRACE_FIELDS,
    IterationRecord,
    Mode,
    SolveReport,
    SolverConfig,
    Status,
    SubproblemUnboundedError,
    solve,
)
from .control import SigmaSchedule, approximate_shift, hierarchical_shift, sigma_at
from .netflow import GridSpec, build_instance
from .problem import ProblemData, _problem_text, load_problem, save_problem

__all__ = ["main"]

logger = logging.getLogger(__name__)

EXIT_BY_STATUS = {
    Status.CONVERGED: 0,
    Status.MAX_ITER: 2,
    Status.DIVERGENCE_SUSPECTED: 3,
}

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_CONFIG_SOLVER_KEYS = tuple(
    f.name for f in fields(SolverConfig) if f.name != "sigma_schedule"
)
_CONFIG_SCHEDULE_KEYS = tuple(f.name for f in fields(SigmaSchedule))


class CliError(Exception):
    """Usage or input error; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our exit-code contract
        raise CliError(message)


def _parse_grid(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise CliError(f"--grid expects ROWSxCOLS (e.g. 20x20), got '{text}'")
    return int(m.group(1)), int(m.group(2))


def _read_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_SOLVER_KEYS) - set(_CONFIG_SCHEDULE_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _build_config(args: argparse.Namespace) -> SolverConfig:
    """Merge config file values with CLI flags; flags win."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in ("tau", "gamma", "rho0", "u0", "kkt_tol", "max_iter", "mode"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    schedule_values = {k: values.pop(k) for k in _CONFIG_SCHEDULE_KEYS if k in values}
    if schedule_values:
        values["sigma_schedule"] = SigmaSchedule(**schedule_values)
    if "mode" in values:
        values["mode"] = Mode(values["mode"])
    return SolverConfig(**values)


def _load(args: argparse.Namespace) -> tuple[ProblemData, SolverConfig]:
    """Check the grid, --kappa, the config, the single source and --count, in
    this order, then load the instance. An empty --problem or --grid is absent."""
    grid = None
    if args.grid:
        rows, cols = _parse_grid(args.grid)
        grid = GridSpec(rows=rows, cols=cols, kappa=args.kappa)
    elif args.kappa != 0.0:
        raise CliError("--kappa only applies to --grid instances")
    cfg = _build_config(args)
    if bool(args.problem) == bool(args.grid):
        raise CliError("exactly one problem source required: --problem or --grid")
    if "count" in args and args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    p = load_problem(Path(args.problem)) if args.problem else build_instance(grid)[0]
    return p, cfg


# ---------------------------------------------------------------------------
# rendering

def _fmt(value: float) -> str:
    return f"{value:.2e}"


def format_trace_table(trace: tuple[IterationRecord, ...]) -> str:
    """Fixed-width iteration table, three significant digits."""
    widths = {name: max(len(name), 9) for name in TRACE_FIELDS}
    widths["k"] = max(len("k"), 4)
    header = "  ".join(name.rjust(widths[name]) for name in TRACE_FIELDS)
    lines = [header]
    for rec in trace:
        cells = []
        for name in TRACE_FIELDS:
            v = getattr(rec, name)
            cells.append((str(v) if name == "k" else _fmt(v)).rjust(widths[name]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_report(report: SolveReport) -> str:
    last = report.trace[-1]
    table = format_trace_table(report.trace)
    footer = (
        f"status: {report.status.value} after {last.k} iterations\n"
        f"E: {_fmt(last.E)}  objective: {_fmt(report.objective_final)}  "
        f"shift norms: ({_fmt(float(np.linalg.norm(report.shift_final.s1)))}, "
        f"{_fmt(float(np.linalg.norm(report.shift_final.s2)))})"
    )
    return f"{table}\n{footer}\n"


def write_trace_csv(trace: tuple[IterationRecord, ...], path: Path) -> None:
    """Full-precision trace; floats use the shortest round-trip representation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for rec in trace:
            writer.writerow(
                [rec.k] + [repr(float(getattr(rec, name))) for name in TRACE_FIELDS[1:]]
            )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_grid(args: argparse.Namespace) -> int:
    spec = GridSpec(
        rows=args.rows,
        cols=args.cols,
        kappa=args.kappa,
        q_scale=args.q_scale,
        c_scale=args.c_scale,
    )
    p, meta = build_instance(spec)
    if args.out:
        save_problem(p, args.out, meta=meta)
        logger.info("wrote %s (n=%d, m1=%d, m2=%d)", args.out, p.n, p.m1, p.m2)
    else:
        sys.stdout.write(_problem_text(p, meta))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    p, cfg = _load(args)
    report = solve(p, cfg)
    if args.trace:
        write_trace_csv(report.trace, Path(args.trace))
    _emit(format_report(report), args.out)
    return EXIT_BY_STATUS[report.status]


def cmd_oracle(args: argparse.Namespace) -> int:
    p, _ = _load(args)
    result = hierarchical_shift(p)
    s1, s2 = result.shift.s1, result.shift.s2
    lines = [
        f"norm_s1: {_fmt(float(np.linalg.norm(s1)))}",
        f"norm_s2: {_fmt(float(np.linalg.norm(s2)))}",
        f"stage1_value: {_fmt(result.stage1_value)}",
        f"stage2_value: {_fmt(result.stage2_value)}",
        f"rank1: {result.rank1}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        doc = {
            "s1": s1.tolist(),
            "s2": s2.tolist(),
            "stage1_value": result.stage1_value,
            "stage2_value": result.stage2_value,
            "rank1": result.rank1,
        }
        Path(args.out).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


def cmd_shift_sweep(args: argparse.Namespace) -> int:
    p, cfg = _load(args)
    exact = hierarchical_shift(p).shift
    rows = [["k", "sigma1", "sigma2", "norm_s1", "norm_s2", "r1", "r2"]]
    for k in range(args.count):
        sigma = sigma_at(cfg.sigma_schedule, k)
        shift = approximate_shift(p, sigma)
        rows.append(
            [str(k)]
            + [
                repr(float(v))
                for v in (
                    sigma.sigma1,
                    sigma.sigma2,
                    float(np.linalg.norm(shift.s1)),
                    float(np.linalg.norm(shift.s2)),
                    float(np.linalg.norm(shift.s1 - exact.s1)),
                    float(np.linalg.norm(shift.s2 - exact.s2)),
                )
            ]
        )
    text = "\n".join(",".join(row) for row in rows) + "\n"
    _emit(text, args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    p, cfg = _load(args)
    reports = {
        mode: solve(p, replace(cfg, mode=mode))
        for mode in (Mode.INFEASIBILITY_CONTROL, Mode.STANDARD_AL)
    }
    rows = [("metric", *(mode.value for mode in reports))]
    last = {mode: rep.trace[-1] for mode, rep in reports.items()}
    rows += [
        ("status", *(rep.status.value for rep in reports.values())),
        ("iterations", *(str(last[m].k) for m in reports)),
        ("final_E", *(_fmt(last[m].E) for m in reports)),
        ("final_rho", *(_fmt(last[m].rho) for m in reports)),
        ("norm_lambda1", *(_fmt(last[m].norm_lambda1) for m in reports)),
        ("norm_lambda2", *(_fmt(last[m].norm_lambda2) for m in reports)),
        ("objective", *(_fmt(rep.objective_final) for rep in reports.values())),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    text = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)
    _emit(text + "\n", args.out)
    return EXIT_BY_STATUS[reports[Mode.INFEASIBILITY_CONTROL].status]


# ---------------------------------------------------------------------------
# argument wiring

def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", metavar="PATH", help="instance file to load")
    sub.add_argument("--grid", metavar="RxC", help="generate a grid instance in memory")
    sub.add_argument("--kappa", type=float, default=0.0, help="grid infeasibility offset")


def _add_solver_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    sub.add_argument("--tau", type=float, default=None, help="penalty stall threshold")
    sub.add_argument("--gamma", type=float, default=None, help="penalty growth factor")
    sub.add_argument("--rho0", type=float, default=None, help="initial penalty")
    sub.add_argument("--u0", type=float, default=None, help="initial infeasibility measure")
    sub.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=None)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sub.add_argument("--config", metavar="PATH", help="JSON config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hieralm",
        description="Augmented Lagrangian solver for prioritized equality-constrained QPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-grid", help="write a grid network-flow instance")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--cols", type=int, required=True)
    gen.add_argument("--kappa", type=float, default=0.0)
    gen.add_argument("--q-scale", dest="q_scale", type=float, default=1.0)
    gen.add_argument("--c-scale", dest="c_scale", type=float, default=0.1)
    gen.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    gen.set_defaults(run=cmd_gen_grid)

    sv = sub.add_parser("solve", help="run the solver and print the iteration table")
    _add_source_args(sv)
    _add_solver_args(sv)
    sv.add_argument("--trace", metavar="PATH", help="write the full-precision trace CSV")
    sv.add_argument("--out", metavar="PATH", help="write the table here instead of stdout")
    sv.set_defaults(run=cmd_solve)

    orc = sub.add_parser("oracle", help="print the exact hierarchical shift")
    _add_source_args(orc)
    orc.add_argument("--out", metavar="PATH", help="write shift vectors as JSON")
    orc.set_defaults(run=cmd_oracle)

    sweep = sub.add_parser("shift-sweep", help="tabulate approximate shifts along the schedule")
    _add_source_args(sweep)
    sweep.add_argument("--config", metavar="PATH", help="JSON config file (schedule keys)")
    sweep.add_argument("--count", type=int, default=26, help="number of schedule steps")
    sweep.add_argument("--out", metavar="PATH", help="write the CSV here instead of stdout")
    sweep.set_defaults(run=cmd_shift_sweep)

    cmp_ = sub.add_parser("compare", help="solve in both modes and summarize side by side")
    _add_source_args(cmp_)
    _add_solver_args(cmp_)
    cmp_.add_argument("--out", metavar="PATH", help="write the summary here instead of stdout")
    cmp_.set_defaults(run=cmd_compare)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call and kept: parsing leaves
    it as it was, and its help is formatted when printed, at the terminal's
    width then."""
    return build_parser()


def _setup_logging() -> None:
    name = os.environ.get("HIERALM_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name)
    logging.basicConfig(level=level or logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    if level is None and name not in ("", "warn"):
        logging.getLogger(__name__).warning(
            "unknown HIERALM_LOG value '%s' (expected error, warn, info, debug)", name
        )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except (CliError, ValueError, OSError, SubproblemUnboundedError) as exc:
        print(f"hieralm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
