"""hieralm benchmark: three closed-loop workloads on the README's 20x20 grid (kappa 0.5).

Run from the repository root:

    python3 bench/run.py --workload grid20-ctrl --seed 0 --seconds 33 --trace 0

Workloads (n = 1520, m1 = 380, m2 = 20; one process, one operation at a time):

- ``grid20-ctrl``: ``solve()`` in infeasibility-control mode, 9 iterations to
  Converged. Exercises the per-iteration weighted shift and the factorization,
  with only 5 distinct penalties across 9 factorizations.
- ``grid20-std``: the same instance in standard mode, DivergenceSuspected at
  iteration 22. Makes no weighted-shift call and never repeats a penalty, so it
  is the bypass case for shift-engine and factorization-reuse work.
- ``grid20-sweep``: ``hieralm shift-sweep --problem FILE --count 26`` through
  ``cli.main`` in process. Loads the instance file written during set-up and
  solves 26 weighted shifts, 13 of them with the eta cap binding.

Seed 0 is the README instance. Any other seed permutes the rows within each
constraint block and the columns at random; the solver sees only the permuted
instance. Every operation's output is checked against the independent reference
numbers of acceptance criteria 2, 3 and 6.

``--trace 0`` prints the end-to-end metrics: ``op_s`` (median wall time of one
operation after one untimed warm-up), ``iterations`` (outer iterations, or
schedule steps for the sweep), ``setup_s`` (median of nine set-ups, this process
and eight fresh interpreters run between operations, each importing hieralm and
building the instance), ``peak_rss_mb`` and ``ok_frac`` (operations that passed
their check, over those attempted). ``--trace 1`` alternates untraced and traced operations, prints the
per-layer metrics, checks that traced and untraced outputs are bit-identical,
and writes the spans to ``.bench_out/``. The BLAS thread count is left as the
environment sets it and reported on stderr with the rest of the machine. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid20-ctrl", "grid20-std", "grid20-sweep")
SWEEP_COUNT = 26
SETUP_SAMPLES = 9  # one in this process, the rest in fresh interpreters
PROBE_TIMEOUT_S = 60


def import_hieralm():
    """Import the package from ./src of the checkout, never from elsewhere."""
    if not (SRC / "hieralm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hieralm sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hieralm

    if Path(hieralm.__file__).resolve().parent != (SRC / "hieralm").resolve():
        raise SystemExit(f"bench: imported hieralm from {hieralm.__file__}, not {SRC}")
    return hieralm


def make_instance(hieralm, seed: int):
    """The README's 20x20 kappa-0.5 grid; seeds other than 0 permute it."""
    import numpy as np

    p, _ = hieralm.build_instance(hieralm.GridSpec(20, 20, kappa=0.5))
    if seed == 0:
        return p
    rng = np.random.default_rng(seed)
    r1, r2, col = rng.permutation(p.m1), rng.permutation(p.m2), rng.permutation(p.n)
    return hieralm.ProblemData(
        Q=p.Q[np.ix_(col, col)],
        c=p.c[col],
        A1=p.A1[np.ix_(r1, col)],
        b1=p.b1[r1],
        A2=p.A2[np.ix_(r2, col)],
        b2=p.b2[r2],
    )


def setup(workload: str, seed: int, path: Path, tracer: tracing.Tracer):
    """Import hieralm and build the seeded instance (saved to ``path`` for the sweep)."""
    hieralm = import_hieralm()
    with tracer.span("netflow.build"):
        p = make_instance(hieralm, seed)
    if workload == "grid20-sweep":
        with tracer.span("problem.save"):
            hieralm.save_problem(p, path)
    return hieralm, p


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, as a user starting hieralm pays it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# operations and their reference checks


def check_ctrl(report) -> list[str]:
    """Acceptance criterion 2's reference numbers from an independent implementation."""
    last = report.trace[-1]
    bad = []
    if report.status.value != "Converged":
        bad.append(f"status {report.status.value}")
    if not last.E <= 1e-6:
        bad.append(f"E {last.E}")
    if not last.k <= 12:
        bad.append(f"k {last.k}")
    if not (last.r1 <= 1e-5 and last.r2 <= 1e-5):
        bad.append(f"r1/r2 {last.r1}/{last.r2}")
    if not abs(last.norm_lambda1 - 53.6) <= 0.02 * 53.6:
        bad.append(f"norm_lambda1 {last.norm_lambda1}")
    if not abs(last.norm_lambda2 - 21.2) <= 0.02 * 21.2:
        bad.append(f"norm_lambda2 {last.norm_lambda2}")
    return bad


def check_std(report) -> list[str]:
    """Acceptance criterion 3: divergence flagged, rho_k = 5^(k-1) for k <= 20."""
    bad = []
    if report.status.value != "DivergenceSuspected":
        bad.append(f"status {report.status.value}")
    if len(report.trace) < 20:
        bad.append(f"only {len(report.trace)} iterations")
    bad += [f"rho at k={r.k} is {r.rho}" for r in report.trace[:20] if r.rho != 5.0 ** (r.k - 1)]
    return bad


def check_sweep(text: str, slack: float) -> list[str]:
    """Acceptance criterion 6: ||s1|| non-increasing, ||s2|| non-decreasing along k."""
    rows = [line.split(",") for line in text.splitlines()]
    if len(rows) != SWEEP_COUNT + 1 or rows[0] != ["k", "sigma1", "sigma2", "norm_s1",
                                                    "norm_s2", "r1", "r2"]:
        return [f"expected {SWEEP_COUNT + 1} CSV rows with the sweep header"]
    n1 = [float(r[3]) for r in rows[1:]]
    n2 = [float(r[4]) for r in rows[1:]]
    bad = []
    if [int(r[0]) for r in rows[1:]] != list(range(SWEEP_COUNT)):
        bad.append("k column is not 0..25")
    if not all(b <= a + slack for a, b in zip(n1, n1[1:])):
        bad.append("norm_s1 increases")
    if not all(b >= a - slack for a, b in zip(n2, n2[1:])):
        bad.append("norm_s2 decreases")
    return bad


def record_bits(report) -> tuple:
    """Iteration records and final iterate as exact bit patterns."""
    rows = tuple(
        tuple(float(getattr(r, f)).hex() for f in r.__dataclass_fields__) for r in report.trace
    )
    return rows, report.x_final.tobytes()


def make_operation(workload: str, hieralm, p, path: Path, tracer: tracing.Tracer):
    """Return op() -> (problems found, iteration count, bit fingerprint)."""
    import numpy as np

    if workload == "grid20-sweep":
        from hieralm import cli

        argv = ["shift-sweep", "--problem", str(path), "--count", str(SWEEP_COUNT)]
        slack = 1e-8 * (1.0 + float(np.linalg.norm(p.b)))

        def op():
            buf = io.StringIO()
            with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            text = buf.getvalue()
            bad = check_sweep(text, slack) + ([f"exit code {code}"] if code != 0 else [])
            return bad, len(text.splitlines()) - 1, text

        return op

    ctrl = workload == "grid20-ctrl"
    cfg = hieralm.SolverConfig(
        mode=hieralm.Mode.INFEASIBILITY_CONTROL if ctrl else hieralm.Mode.STANDARD_AL
    )
    check = check_ctrl if ctrl else check_std

    def op():
        with tracer.span("alm.solve"):
            report = hieralm.solve(p, cfg)
        return check(report), len(report.trace), record_bits(report)

    return op


# ---------------------------------------------------------------------------
# machine description


def blas_threads() -> dict:
    """Effective thread count of every OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    try:
        return run(spec, args, path)
    finally:
        path.unlink(missing_ok=True)


def run(spec: dict, args: argparse.Namespace, path: Path) -> int:
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    hieralm, p = setup(args.workload, args.seed, path, tracer)
    setup_s = [time.perf_counter() - t0]
    if args.setup_probe:
        print(repr(setup_s[0]))
        return 0
    setup_spans = {s.name: s.dur for s in tracer.spans}
    tracer.spans.clear()
    print("bench: machine " + json.dumps(machine(), sort_keys=True), file=sys.stderr)

    op = make_operation(args.workload, hieralm, p, path, tracer)
    load_bytes = path.stat().st_size if path.exists() else 0
    eta = tracing.EtaCapCounter()
    attempted = failed = mismatches = 0
    iterations: set[int] = set()
    untraced_s: list[float] = []
    per_op: list[dict] = []

    def run_one(traced: bool, timed: bool):
        nonlocal attempted, failed
        attempted += 1
        tracer.op = attempted
        eta.count = 0
        first_span = len(tracer.spans)
        bits = None
        t = time.perf_counter()
        try:
            with tracing.instrumented(tracer, eta) if traced else contextlib.nullcontext():
                bad, iters, bits = op()
            iterations.add(iters)
        except Exception as exc:  # an operation that raises counts as failed; the loop goes on
            traceback.print_exc()
            bad = [f"raised {exc!r}"]
        dt = time.perf_counter() - t
        if bad:
            failed += 1
            print(f"bench: op {attempted} failed its check: {'; '.join(bad)}", file=sys.stderr)
        if traced:
            per_op.append(tracing.op_layers(tracer.spans, first_span, p.n, load_bytes, eta.count))
        elif timed:
            untraced_s.append(dt)
        return bits

    def probe_once() -> None:
        # set-up time drifts over tens of seconds on a shared machine, so the
        # probes are spread over the window, one after each operation
        if not args.trace and len(setup_s) < SETUP_SAMPLES:
            setup_s.append(probe_setup(args.workload, args.seed))

    reference = run_one(traced=False, timed=False)  # warm-up, checked but not timed
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        bits = run_one(traced=False, timed=True)
        if args.trace:
            traced_bits = run_one(traced=True, timed=False)
            mismatches += traced_bits != bits or bits != reference
        probe_once()
        # start another operation only if it is expected to end inside the window
        now = time.perf_counter()
        if now - start + (now - t) > args.seconds:
            break
    while not args.trace and len(setup_s) < SETUP_SAMPLES:
        probe_once()

    if mismatches:
        print(f"bench: {mismatches} traced runs differ from the untraced run", file=sys.stderr)
    if len(iterations) > 1:
        print(f"bench: iteration counts differ between runs: {sorted(iterations)}", file=sys.stderr)
    correct = failed == 0 and mismatches == 0 and len(iterations) == 1

    if args.trace:
        names = spec["per_layer"]
        metrics = tracing.summarize(per_op, untraced_s, {
            "netflow.build_s": setup_spans["netflow.build"],
            "problem.save_s": setup_spans.get("problem.save", 0.0),
        })
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    else:
        names = spec["end_to_end"]
        metrics = {
            "op_s": statistics.median(untraced_s),
            "iterations": min(iterations, default=0),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
    if set(metrics) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(
        f"bench: {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
        f"untraced op times {[round(x, 4) for x in untraced_s]}, setup {setup_s}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
