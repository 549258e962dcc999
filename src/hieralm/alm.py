"""Augmented Lagrangian outer loop with per-iteration infeasibility shifts.

Each outer iteration solves one strongly structured subproblem

    minimize  f(x) + lh1'r1(x) + lh2'r2(x) + rho/2 (||r1(x)||^2 + ||r2(x)||^2)

with shifted residuals r_i(x) = A_i x - b_i + s_i, then updates shifts,
multipliers, and the penalty. In infeasibility-control mode the shift is
recomputed each iteration from a growing weight schedule so the iterates track
the hierarchically optimal relaxation; in standard mode the shift is pinned to
zero, which on an infeasible problem drives the penalty and multipliers to
divergence (flagged via ``rho_cap``).

The priorities act only through the shift and the multiplier box. The
subproblem sees the stacked system A = [A1; A2], b = [b1; b2]: with
v = rho (b - s) - lh, its matrix is H(rho) = Q + rho A'A and its right-hand
side A'v - c. H depends on rho only through the rank-m term A'A, so a base,
Q + A'A, is factored once and given one thin SVD (a range-space solve); every
iteration then costs O(n^2 + nm) and forms no n x n matrix, whatever the
penalty: one product with Q, four with A (A'v for the right-hand side, A x and
A'(A x) for the residual check, A'lambda for E) and one pass over the SVD
factor V. For a definite diagonal Q = D, such as every grid instance's q I,
the instance says so (``ProblemData.q_diagonal``): the base is D, so the setup
is one SVD of A'/sqrt(d), the check of Q is O(n) and Q x is d * x, with the
dense product's bits. A solve whose refined base-D pass still misses its bound
runs the Q + A'A chain unchanged, its setup built on the first such miss. That
chain and the lstsq fallback add a diagonal Q to the diagonal of A'A, so no
solve reads the n x n ``p.Q`` of an instance that stores Q as its diagonal. For
a sparse A, such as every grid's incidence matrix, the instance keeps CSR copies
of A and A' (``ProblemData.a_csr``): the products with A and the setup's A'A
then cost O(nnz(A)), an iteration with a diagonal Q O(nnz(A) + nm), and a
product's last bits can differ from dense. Q x and A x are formed once, at the
accepted x, and shared between the residual check, the constraint residuals and
E; a refinement pass (one solve with the base: d or its n x n factor) runs only
when the first pass misses its bound. Those factors and the check of Q depend
on the instance alone, so they are built on the first solve of a ProblemData
and reused by every later solve of it, in any mode or config, until the
instance is garbage collected. The cache retains about nm + m^2 doubles per
live instance on base D (6.1 MB at the 20x20 grid, 32 MB at 30x30), and n^2
more on base Q + A'A (25 MB and 128 MB in all).

SciPy is imported on the first solve, by its setup: the SVD, the Q + A'A
chain's Cholesky factor and solves, the BLAS norm that E and the residual
check use, and the CSR copies of a sparse A. Importing this module, and the
shifts of :mod:`hieralm.control`, do not load it.
"""

from __future__ import annotations

import enum
import logging
import weakref
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .control import (
    SigmaSchedule, _is_real, _require_real, approximate_shift, hierarchical_shift, sigma_at
)
from .problem import (
    HierarchicalShift,
    ProblemData,
    _a_operators,
    _add_q,
    _definite_diagonal,
    _q_times,
    _rank_cutoff,
    _scipy_linalg,
    constraint_residuals,
    objective_value,
    validate_problem,
)

__all__ = [
    "IterationRecord",
    "IterationState",
    "Mode",
    "SolveReport",
    "SolverConfig",
    "Status",
    "SubproblemUnboundedError",
    "TRACE_FIELDS",
    "iterate",
    "kkt_residual",
    "solve",
    "solve_subproblem",
    "update_penalty",
]

logger = logging.getLogger(__name__)
# validate_problem's logger; its singular-Q warning is repeated on cached solves
_problem_logger = logging.getLogger("hieralm.problem")

# the setup's SVD and the Q + A'A chain load SciPy on their first call, like _nrm2
cho_factor, cho_solve, solve_triangular, svd = map(
    _scipy_linalg, ("cho_factor", "cho_solve", "solve_triangular", "svd")
)


class Mode(enum.Enum):
    INFEASIBILITY_CONTROL = "infeasibility-control"
    STANDARD_AL = "standard-al"


class Status(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    DIVERGENCE_SUSPECTED = "DivergenceSuspected"


class SubproblemUnboundedError(RuntimeError):
    """The inner minimization has no finite minimum.

    Raised when the subproblem normal system is singular and inconsistent, which
    means the augmented Lagrangian decreases without bound along a null direction.
    ``iteration`` carries the 1-based outer iteration when raised from the loop.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop parameters.

    The multiplier box is the safeguard interval for the projected multiplier
    estimates; bounds may be scalars or per-row vectors, and a vector bound is
    kept as a read-only float copy, so the bounds checked here are the ones a
    solve uses. Configs compare and hash by value, a bound by its shape and
    entries. Each subproblem is solved directly, and its achieved gradient
    norm is recorded per iteration.
    """

    tau: float = 0.1
    gamma: float = 5.0
    box1_lo: float | np.ndarray = -1e6
    box1_hi: float | np.ndarray = 1e6
    box2_lo: float | np.ndarray = -1e6
    box2_hi: float | np.ndarray = 1e6
    rho0: float = 1.0
    u0: float = 1e3
    sigma_schedule: SigmaSchedule = field(default_factory=SigmaSchedule)
    kkt_tol: float = 1e-6
    max_iter: int = 50
    rho_cap: float = 1e14
    mode: Mode = Mode.INFEASIBILITY_CONTROL

    def __post_init__(self) -> None:
        _require_real(self, ("tau", "gamma", "rho0", "u0", "kkt_tol", "rho_cap"))
        for name in ("box1_lo", "box1_hi", "box2_lo", "box2_hi"):
            v = getattr(self, name)
            # tolist() makes numpy scalars Python ones, so a bool array is caught too
            cells = v.tolist() if isinstance(v, np.ndarray) else v
            if not all(map(_is_real, cells if isinstance(cells, (list, tuple)) else [cells])):
                raise ValueError(f"{name} must be a real number or a vector, got {v!r}")
            if isinstance(v, (list, tuple, np.ndarray)):
                v = np.array(v, dtype=float)
                v.flags.writeable = False
                object.__setattr__(self, name, v)
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not 1.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 1, got {self.gamma}")
        if not 0.0 < self.rho0 < np.inf:
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")
        for name in ("u0", "kkt_tol", "rho_cap"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        for lo, hi, name in (
            (self.box1_lo, self.box1_hi, "box1"),
            (self.box2_lo, self.box2_hi, "box2"),
        ):
            lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
            if lo.ndim == hi.ndim == 1 and lo.shape != hi.shape:
                raise ValueError(
                    f"{name}_lo and {name}_hi differ in length: {lo.size} and {hi.size}"
                )
            if not np.all(lo <= hi):
                raise ValueError(f"{name} is empty (lo > hi) or has a NaN bound")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")

    def _key(self) -> tuple:
        """The field values, each box bound as (shape, entries), compared element-wise."""
        return tuple(
            (np.shape(v), tuple(np.ravel(v).tolist())) if f.name.startswith("box") else v
            for f in fields(self)
            for v in (getattr(self, f.name),)
        )

    # the generated pair compares array bounds with == inside a tuple
    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, SolverConfig) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class IterationRecord:
    """One trace row.

    Every field but the last, ``subproblem_grad_norm``, is a column of the trace
    table and CSV, in this order (``TRACE_FIELDS``).
    """

    k: int
    E: float
    norm_s1: float
    norm_s2: float
    r1: float
    r2: float
    rho: float
    norm_lambda1: float
    norm_lambda2: float
    subproblem_grad_norm: float


# trace table / CSV column order
TRACE_FIELDS = tuple(f.name for f in fields(IterationRecord))[:-1]


@dataclass(frozen=True)
class IterationState:
    """Full post-iteration state, for diagnostics and exact bookkeeping checks.

    ``rho_used`` is the penalty the subproblem was solved with; ``rho`` (also in
    the record) is the value after the update rule. ``lambda1``/``lambda2`` are
    the unprojected multipliers, the hatted pair is their box projection. Each
    block pair, ``s1``/``s2`` among them, is a pair of views of one stacked vector.
    """

    record: IterationRecord
    x: np.ndarray
    shift: HierarchicalShift
    s1: np.ndarray
    s2: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda1_hat: np.ndarray
    lambda2_hat: np.ndarray
    u: float
    rho_used: float
    rho: float


@dataclass(frozen=True)
class SolveReport:
    status: Status
    x_final: np.ndarray
    trace: tuple[IterationRecord, ...]
    shift_final: HierarchicalShift
    objective_final: float


def update_penalty(u_new: float, u_prev: float, rho: float, tau: float, gamma: float) -> float:
    """Keep rho when the infeasibility measure decreased enough, else scale by gamma."""
    return rho if u_new <= tau * u_prev else gamma * rho


def kkt_residual(
    p: ProblemData,
    x: np.ndarray,
    lambda1: np.ndarray,
    lambda2: np.ndarray,
    shift: HierarchicalShift,
) -> float:
    """Stationarity plus shifted feasibility, using the unprojected multipliers.

    Each norm is BLAS nrm2, which scales as it sums, so E overflows only when
    one of its terms does.
    """
    r1, r2 = constraint_residuals(p, x, shift)
    return _kkt_value(p, _q_times(p, x), np.concatenate((lambda1, lambda2)), r1, r2)


def _kkt_value(p: ProblemData, qx, lam, r1, r2) -> float:
    grad = qx + p.c + _a_operators(p)[1] @ lam
    return _nrm2(grad) + _nrm2(r1) + _nrm2(r2)


def _nrm2(v: np.ndarray) -> float:
    import scipy.linalg  # here, so that importing hieralm does not load SciPy

    return float(scipy.linalg.norm(v, check_finite=False))


def solve_subproblem(
    p: ProblemData,
    lambda1_hat: np.ndarray,
    lambda2_hat: np.ndarray,
    rho: float,
    shift: HierarchicalShift,
) -> tuple[np.ndarray, float]:
    """Minimize the shifted augmented Lagrangian in x.

    The minimizer solves H x = rhs with H = Q + rho A'A, A = [A1; A2]. A
    range-space solve (see ``_RangeSpace``) handles the definite case: its x is
    accepted if it meets the bound below, and refined once only if it does not.
    A minimum-norm least-squares solve on the formed H handles what is still
    left, the singular-but-consistent case. The range-space base is D for a
    diagonal Q = D with min(d) > 2e-10 (1 + max|d|), else Q + A'A; on base D
    a refined pass that still misses switches to the Q + A'A chain unchanged,
    so a diagonal-Q call raises only where that chain raises. The first call on an
    instance checks Q and builds the rho-independent factors; later calls, and
    :func:`iterate`, reuse them for as long as ``p`` lives.

    Returns:
        (x, grad_norm) with grad_norm = ||Q x + rho A'(A x) - rhs||
        <= 1e-10 * (1 + ||rhs||), both norms computed without overflow.

    Raises:
        ValueError: If validate_problem rejects Q.
        SubproblemUnboundedError: If the system is inconsistent, i.e. the
            subproblem has no finite minimum.
    """
    lam_hat = np.concatenate((lambda1_hat, lambda2_hat))
    x, grad_norm, _ = _setup(p).solve(p, lam_hat, rho, np.concatenate((shift.s1, shift.s2)))
    return x, grad_norm


# one entry per live instance; a weak key drops the entry when the instance goes.
# Two threads that miss at once each build an equal setup, and either may stay.
_SETUP: weakref.WeakKeyDictionary[ProblemData, _RangeSpace] = weakref.WeakKeyDictionary()


def _setup(p: ProblemData) -> _RangeSpace:
    """The config-independent setup of ``p``: Q checked, factors built, once per instance."""
    system = _SETUP.get(p)
    if system is None:
        q_warning = validate_problem(p)
        system = _SETUP[p] = _RangeSpace(p, q_warning, _definite_diagonal(p))
    elif system.q_warning is not None:
        _problem_logger.warning("%s", system.q_warning)
    return system


class _Products(NamedTuple):
    """Q x and A x at one x, formed once and shared by the residual check and iterate."""

    qx: np.ndarray
    ax: np.ndarray


def _residual_norm(p: ProblemData, x, rho: float, rhs) -> tuple[float, _Products]:
    """||Q x + rho A'(A x) - rhs||, and the products it formed."""
    A, At = _a_operators(p)
    prod = _Products(_q_times(p, x), A @ x)
    return _nrm2(prod.qx + rho * (At @ prod.ax) - rhs), prod


class _RangeSpace:
    """The factors of H(rho) = Q + rho A'A that do not depend on rho.

    H(rho) = B + (rho - a) A'A with the base B = Q + a A'A = R'R: the offset is
    a = 1, or a = 0 and R = D^1/2 for a definite diagonal Q = D (``d``). With
    the thin SVD R^-T A' = W diag(sig) U', V = R^-1 W and
    den = (1 - a sig^2) + rho sig^2, positive for every rho > 0,

        H(rho)^-1 = B^-1 + V diag((a - rho) sig^2 / den) V',
        H(rho)^-1 A'v = V (sig U'v / den),

    Tikhonov's filter factors for a = 0. The second form carries the rho-sized
    part of the right-hand side, so rho cancels in it exactly. sig <= 1 for
    a = 1; for a = 0 it is unbounded, so the quotients are divided through by
    max(rho, 1), where rho sig^2 could overflow. ``factor`` is R' for a = 1, or
    None when B is not definite, that is when null(Q) and null(A) meet and every
    H(rho) is singular. ``dense`` is the a = 1 setup that base D falls back to.
    ``q_warning`` is validate_problem's verdict on Q. Nothing here refers to the
    instance itself, so a cached entry never keeps its weak key alive;
    :meth:`solve` takes the instance as an argument instead.
    """

    def __init__(self, p: ProblemData, q_warning: str | None, d: np.ndarray | None = None):
        self.q_warning, self.d, self.dense, self.factor, self.V = q_warning, d, None, None, None
        if d is None:
            A, At = _a_operators(p)
            G = At @ A  # O(nnz) work from the CSR pair, whose sums on the grids are exact
            if p.a_csr is not None:
                G = G.toarray()
            _add_q(p, G)  # symmetric, so G.T is the F-ordered B that cho_factor overwrites with R'
            try:
                self.factor = cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
            except LinAlgError:
                return
            L = self.factor[0]
            # p.A is shared and read-only; the solve overwrites this copy with R^-T A'
            Bt = solve_triangular(L, p.A.copy().T, lower=True, overwrite_b=True, check_finite=False)
        else:
            root_d = np.sqrt(d)[:, None]
            Bt = p.A.T / root_d
        W, sig, self.Ut = svd(Bt, full_matrices=False, overwrite_a=True, check_finite=False)
        # left_null's rank rule: a singular value at round-off level belongs to
        # null(A'), and zeroing it keeps a large rho from amplifying the round-off
        tol = _rank_cutoff(p.n, p.m, sig[0] if sig.size else 0.0)
        sig[sig <= tol] = 0.0
        self.sig, self.sig2 = sig, sig * sig
        self.offset = 1.0 if d is None else 0.0
        # 1 - sig^2 >= 0 in exact arithmetic when Q is semidefinite; round-off can flip its sign
        self.one_minus_sig2 = np.maximum(1.0 - self.offset * self.sig2, 0.0)
        if d is None:
            W = solve_triangular(L, W, lower=True, trans="T", overwrite_b=True, check_finite=False)
        else:
            W /= root_d
        self.V = W
        # the -c part of every right-hand side
        self.x_c = self._base_solve(-p.c)
        self.h_c = self.V.T @ -p.c

    def _base_solve(self, g: np.ndarray) -> np.ndarray:
        """B^-1 g."""
        return cho_solve(self.factor, g, check_finite=False) if self.d is None else g / self.d

    def solve(self, p, lam_hat, rho, s) -> tuple[np.ndarray, float, _Products]:
        """(x, grad_norm, products at x) from the first of three tries that meets the bound.

        ``lam_hat`` and ``s`` are the stacked multiplier estimate and shift. The
        tries are the range-space pass, that pass refined once, and lstsq on the
        formed H; each runs only when the one before it misses. On base D, a
        refined pass that misses hands the solve to the dense setup's three tries.
        """
        v = rho * (p.b - s) - lam_hat
        rhs = _a_operators(p)[1] @ v - p.c
        # BLAS nrm2 scales as it sums, so a rho-sized rhs cannot make the bound inf
        bound = 1e-10 * (1.0 + _nrm2(rhs))
        if self.V is not None:
            # k = 1 on base Q + A'A, where each quotient keeps its bits
            k = 1.0 if self.d is None else max(rho, 1.0)
            den = self.one_minus_sig2 / k + (rho / k) * self.sig2
            shrink = ((self.offset - rho) / k) * self.sig2 / den
            # rhs = -c + A'v; the A'v part goes through U coordinates, where rho cancels
            x = self.x_c + self.V @ (shrink * self.h_c + self.sig * (self.Ut @ v / k) / den)
            # the check's Q x and A x also serve a refinement and the caller
            grad_norm, prod = _residual_norm(p, x, rho, rhs)
            if grad_norm <= bound:
                return x, grad_norm, prod
            logger.debug("subproblem refines: residual %.3e > bound %.3e", grad_norm, bound)
            # one refinement pass brings a missed residual back toward the backward-stable
            # floor; the residual rhs - H x = (-c - Q x) + A'(v - rho A x) is split the same
            # way as rhs, because B^-1 applied to a rho-sized residual cancels badly for
            # huge rho
            g = -p.c - prod.qx
            w = v - rho * prod.ax
            x = (
                x
                + self._base_solve(g)
                + self.V @ (shrink * (self.V.T @ g) + self.sig * (self.Ut @ w / k) / den)
            )
            grad_norm, prod = _residual_norm(p, x, rho, rhs)
            if grad_norm <= bound:
                return x, grad_norm, prod
            if self.d is not None:
                logger.debug("subproblem switches from base D to Q + A'A: refined residual "
                             "%.3e > bound %.3e", grad_norm, bound)
                if self.dense is None:
                    self.dense = _RangeSpace(p, self.q_warning)
                return self.dense.solve(p, lam_hat, rho, s)
            logger.debug(
                "subproblem falls back to lstsq: refined residual %.3e > bound %.3e",
                grad_norm,
                bound,
            )
        else:
            logger.debug(
                "subproblem falls back to lstsq: Q + A'A is not definite (bound %.3e)", bound
            )
        # singular (or numerically indefinite) system: minimum-norm solution if consistent
        H = rho * (p.A.T @ p.A)
        _add_q(p, H)
        x, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        grad_norm, prod = _residual_norm(p, x, rho, rhs)
        if grad_norm > bound:
            raise SubproblemUnboundedError(
                "subproblem unbounded below: singular system is inconsistent "
                f"(residual {grad_norm:.3e} > {bound:.3e})"
            )
        return x, grad_norm, prod


def iterate(p: ProblemData, cfg: SolverConfig) -> Iterator[IterationState]:
    """Run the outer loop step by step, yielding full state after each iteration.

    The generator never stops on its own; callers apply their stopping rule
    (see :func:`solve`). The exact shift is only used for the r1/r2 trace
    columns. The check of Q and the subproblem factors are built on the first
    ``next()`` of the first run on ``p`` and reused by every later run on it
    (see the module docstring); a singular-Q warning is logged on every run.

    Raises:
        ValueError: On the first ``next()``, if validate_problem rejects Q or
            the box shapes do not match the constraint blocks.
        SubproblemUnboundedError: From the inner solve, with the iteration
            index attached.
        OverflowError: On the ``next()`` after a state whose updated penalty
            overflowed to inf, naming the iteration it would have solved.
    """
    lo, hi = _stacked_box(cfg, p)
    exact = hierarchical_shift(p).shift
    s1_star, s2_star = exact.s1, exact.s2
    # after the oracle, so its first-call SVD temporaries are freed before the
    # retained factors are built, not stacked on them
    system = _setup(p)

    m1 = p.m1
    lam_hat = np.zeros(p.m)
    u = cfg.u0
    rho = cfg.rho0
    k = 0
    while True:
        if not np.isfinite(rho):
            raise OverflowError(f"iteration {k + 1}: penalty rho overflowed to {rho}")
        if cfg.mode is Mode.INFEASIBILITY_CONTROL:
            shift = approximate_shift(p, sigma_at(cfg.sigma_schedule, k))
        else:
            shift = HierarchicalShift.zero(p.m1, p.m2)
        s = np.concatenate((shift.s1, shift.s2))
        try:
            x, grad_norm, prod = system.solve(p, lam_hat, rho, s)
        except SubproblemUnboundedError as exc:
            raise SubproblemUnboundedError(f"iteration {k + 1}: {exc}", iteration=k + 1) from exc

        # constraint_residuals and kkt_residual, bit for bit, from the products the solve formed
        r = prod.ax - p.b + s
        lam = lam_hat + rho * r
        lam_hat_new = np.clip(lam, lo, hi)
        s1, s2 = r[:m1], r[m1:]
        norm_s1, norm_s2 = np.linalg.norm(s1), np.linalg.norm(s2)
        u_new = float(norm_s1 + norm_s2)
        rho_new = update_penalty(u_new, u, rho, cfg.tau, cfg.gamma)

        record = IterationRecord(
            k=k + 1,
            E=_kkt_value(p, prod.qx, lam, s1, s2),
            norm_s1=float(norm_s1),
            norm_s2=float(norm_s2),
            r1=float(np.linalg.norm(shift.s1 - s1_star)),
            r2=float(np.linalg.norm(shift.s2 - s2_star)),
            rho=rho_new,
            norm_lambda1=_nrm2(lam[:m1]),
            norm_lambda2=_nrm2(lam[m1:]),
            subproblem_grad_norm=grad_norm,
        )
        yield IterationState(
            record=record,
            x=x,
            shift=shift,
            s1=s1,
            s2=s2,
            lambda1=lam[:m1],
            lambda2=lam[m1:],
            lambda1_hat=lam_hat_new[:m1],
            lambda2_hat=lam_hat_new[m1:],
            u=u_new,
            rho_used=rho,
            rho=rho_new,
        )
        lam_hat = lam_hat_new
        u, rho = u_new, rho_new
        k += 1


def _stacked_box(cfg: SolverConfig, p: ProblemData) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier box as one (lo, hi) pair over the stacked rows, high priority first.

    SolverConfig has already checked the bounds, which it keeps read-only; only
    a vector's length against its block is left to check.
    """
    lo, hi = [], []
    for name, m in (("box1", p.m1), ("box2", p.m2)):
        for side, out in (("lo", lo), ("hi", hi)):
            bound = getattr(cfg, f"{name}_{side}")
            if np.ndim(bound) == 1 and len(bound) != m:
                raise ValueError(f"{name}_{side} must be a scalar or length-{m} vector")
            out.append(np.broadcast_to(bound, m))
    return np.concatenate(lo), np.concatenate(hi)


def solve(p: ProblemData, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the outer loop to one of the three terminal statuses.

    Stops with Converged once the KKT residual E falls to ``kkt_tol``, with
    DivergenceSuspected once the penalty passes ``rho_cap`` or overflows to inf
    (the signature of an infeasible problem under a zero shift), and with MaxIter
    otherwise.

    Raises:
        ValueError, SubproblemUnboundedError: Propagated from :func:`iterate`.
    """
    if cfg is None:
        cfg = SolverConfig()
    records: list[IterationRecord] = []
    status = Status.MAX_ITER
    last: IterationState | None = None
    for state in iterate(p, cfg):
        records.append(state.record)
        last = state
        logger.debug(
            "k=%d E=%.3e rho=%.3e u=%.3e", state.record.k, state.record.E, state.rho, state.u
        )
        if state.record.E <= cfg.kkt_tol:
            status = Status.CONVERGED
            break
        if state.rho > cfg.rho_cap or not np.isfinite(state.rho):
            status = Status.DIVERGENCE_SUSPECTED
            break
        if state.record.k >= cfg.max_iter:
            status = Status.MAX_ITER
            break
    assert last is not None
    logger.info(
        "%s after %d iterations (E=%.3e)", status.value, last.record.k, last.record.E
    )
    return SolveReport(
        status=status,
        x_final=last.x,
        trace=tuple(records),
        shift_final=last.shift,
        objective_final=objective_value(p, last.x),
    )
