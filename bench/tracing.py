"""In-memory spans recorded from outside hieralm, and the per-layer metrics built on them.

The traced run swaps a transparent timing wrapper onto each module attribute the
program calls through (``hieralm.alm.iterate``, ``hieralm.alm.cho_factor``,
``numpy.linalg.lstsq``, ...) and restores the originals afterwards. A wrapper
passes its arguments and result through untouched, so the traced run must
produce bit-identical iteration records; ``run.py`` checks that.
"""

from __future__ import annotations

import functools
import logging
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans kept in memory; ``op`` tags every span of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), parent=parent, op=self.op)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each ``next()`` of the generator ``fn`` returns as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(name) as s:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        s.attrs["rho"] = item.rho_used
                    yield item
            finally:
                gen.close()

        return traced

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             **s.attrs}
            for s in self.spans
        ]


class EtaCapCounter(logging.Handler):
    """Counts the schedule's eta-cap warnings as the ``hieralm.control`` logger emits them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("eta cap"):
            self.count += 1


@contextmanager
def instrumented(tracer: Tracer, eta_cap: EtaCapCounter):
    """Install the wrappers on hieralm's call sites for the duration of the block."""
    import numpy
    import hieralm.alm
    import hieralm.cli

    targets = [
        (hieralm.alm, "iterate", "alm.iter", tracer.wrap_generator),
        (hieralm.alm, "approximate_shift", "control.shift", tracer.wrap),
        (hieralm.alm, "hierarchical_shift", "oracle.shift", tracer.wrap),
        (hieralm.alm, "validate_problem", "problem.validate", tracer.wrap),
        (hieralm.alm, "cho_factor", "alm.factor", tracer.wrap),
        (hieralm.alm, "cho_solve", "alm.trisolve", tracer.wrap),
        (numpy.linalg, "lstsq", "numpy.lstsq", tracer.wrap),
        (hieralm.cli, "load_problem", "problem.load", tracer.wrap),
        (hieralm.cli, "approximate_shift", "control.shift", tracer.wrap),
        (hieralm.cli, "hierarchical_shift", "oracle.shift", tracer.wrap),
    ]
    with ExitStack() as restore:
        control_logger = logging.getLogger("hieralm.control")
        control_logger.addHandler(eta_cap)
        restore.callback(control_logger.removeHandler, eta_cap)
        for module, attr, name, wrapper in targets:
            original = getattr(module, attr)
            restore.callback(setattr, module, attr, original)
            setattr(module, attr, wrapper(name, original))
        yield


def op_layers(spans: list[Span], root: int, n: int, load_bytes: int, eta_warnings: int) -> dict:
    """Per-layer figures of one operation whose root span has index ``root``.

    ``n`` is the decision dimension (for the computed factorization flops) and
    ``load_bytes`` the instance file size.
    """
    mine = [i for i, s in enumerate(spans) if s.op == spans[root].op]

    def named(name):
        return [spans[i] for i in mine if spans[i].name == name]

    def total(name):
        return sum(s.dur for s in named(name))

    def self_time(name):
        out = 0.0
        for i in mine:
            if spans[i].name == name:
                kids = sum(spans[j].dur for j in mine if spans[j].parent == i)
                out += spans[i].dur - kids
        return out

    iters = [i for i in mine if spans[i].name == "alm.iter"]
    factored = {spans[i].parent for i in mine if spans[i].name == "alm.factor"}
    factor_calls = len(named("alm.factor"))
    distinct_rho = len({spans[i].attrs["rho"] for i in iters if i in factored})
    shift_calls = len(named("control.shift"))
    loads = len(named("problem.load"))
    return {
        "problem.validate_s": total("problem.validate"),
        "problem.validate_calls": len(named("problem.validate")),
        "problem.load_s": total("problem.load"),
        "problem.load_bytes": loads * load_bytes,
        "oracle.shift_s": total("oracle.shift"),
        "oracle.calls": len(named("oracle.shift")),
        "control.shift_s": total("control.shift"),
        "control.shift_calls": shift_calls,
        "control.shift_s_per_call": total("control.shift") / shift_calls if shift_calls else 0.0,
        "control.eta_cap_warnings": eta_warnings,
        "alm.solve_s": total("alm.solve"),
        "alm.solve_self_s": self_time("alm.solve"),
        "alm.iter_s": total("alm.iter"),
        "alm.iterations": len(iters),
        "alm.bookkeeping_s": self_time("alm.iter"),
        "alm.factor_s": total("alm.factor"),
        "alm.factor_calls": factor_calls,
        "alm.distinct_rho": distinct_rho,
        "alm.factor_repeat_frac": (
            (factor_calls - distinct_rho) / factor_calls if factor_calls else 0.0
        ),
        "alm.factor_gflop": factor_calls * n**3 / 3 / 1e9,
        "alm.trisolve_s": total("alm.trisolve"),
        "alm.trisolve_calls": len(named("alm.trisolve")),
        "alm.fallback_calls": sum(
            1 for s in named("numpy.lstsq") if s.parent >= 0 and spans[s.parent].name == "alm.iter"
        ),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "trace.op_s": spans[root].dur,
    }


# layer times that together should cover one operation; the rest is self time of
# the solve or CLI frame and tracing overhead
ACCOUNTED = (
    "problem.validate_s",
    "problem.load_s",
    "oracle.shift_s",
    "control.shift_s",
    "alm.factor_s",
    "alm.trisolve_s",
    "alm.bookkeeping_s",
)


def summarize(per_op: list[dict], untraced_s: list[float], setup: dict) -> dict:
    """Median of each per-operation figure, plus overhead and coverage ratios."""
    out = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    untraced = statistics.median(untraced_s)
    out["trace.overhead_frac"] = out.pop("trace.op_s") / untraced - 1.0
    out["trace.accounted_frac"] = (
        statistics.median(sum(op[k] for k in ACCOUNTED) for op in per_op) / untraced
    )
    out.update(setup)
    return out
