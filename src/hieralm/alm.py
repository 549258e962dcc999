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
side A'v - c. H depends on rho only through the rank-m term A'A, so its
factors are built once and serve every penalty, and no iteration forms an
n x n matrix. The factors form one escalation ladder per instance
(``_Ladder``, which states its rungs and the rule that climbs them). For a
definite diagonal Q = D, such as every grid instance's q I, the instance says
so (``ProblemData.q_diagonal``), and the first rung is one eigendecomposition
of the m x m K = A D^-1 A' (``_Eigenbasis``): an iteration then makes two
passes over its m x r eigenvector block, r = rank(A), and forms no n x m
array; the check of Q is O(n) and Q x is d * x, with the dense product's bits.
Where a diagonal Q meets A'A, it is added to A'A's diagonal, so no solve reads
the n x n ``p.Q`` of an instance that stores Q as its diagonal. For a sparse
A, such as every grid's incidence matrix, the instance keeps CSR copies of A
and A' (``ProblemData.a_csr``): the products with A, K and the Q + A'A rung's
A'A then cost O(nnz(A)), an iteration with a diagonal Q O(nnz(A) + mr), and a
product's last bits can differ from dense. Q x and A x are formed once, at the
accepted x, and shared between the residual check, the constraint residuals
and E. The ladder and the check of Q depend on the instance alone, so they are
built on the first solve of a ProblemData and reused by every later solve of
it, in any mode or config, until the instance is garbage collected. The
``ProblemData`` docstring gives the size of what the cache retains per live
instance. The setup names its route at DEBUG level, as ``left_null`` does,
and so does each refinement and escalation.

SciPy is imported on the first solve, by its setup: the BLAS norm that E and
the residual check use, the CSR copies of a sparse A, and, where a range-space
rung is built, its SVD and its Cholesky factor and solves. Importing this
module, and the shifts of :mod:`hieralm.control`, do not load it.
"""

from __future__ import annotations

import enum
import logging
import weakref
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .control import (
    SigmaSchedule, _is_real, _require_integer, _require_real,
    approximate_shift, hierarchical_shift, sigma_at,
)
from .problem import (
    HierarchicalShift,
    ProblemData,
    _a_operators,
    _add_q,
    _certified_gram,
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

# the range-space rungs' SVD and Cholesky load SciPy on their first call, like _nrm2
cho_factor, cho_solve, solve_triangular, svd = map(
    _scipy_linalg, ("cho_factor", "cho_solve", "solve_triangular", "svd")
)
eigh = np.linalg.eigh  # the eigenbasis setup's, called through this name


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
    solve uses. Every other real parameter and scalar bound is kept as a Python
    float and ``max_iter`` as an int, whatever numpy scalar was passed. Configs
    compare and hash by value, a bound by its shape and entries. Each
    subproblem is solved directly, and its achieved gradient norm is recorded
    per iteration.
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
            object.__setattr__(self, name, v if isinstance(v, np.ndarray) else float(v))
        _require_integer(self, ("max_iter",))
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

    The minimizer solves H x = rhs with H = Q + rho A'A, A = [A1; A2], on the
    instance's escalation ladder (``_Ladder``). The first call on an instance
    checks Q and builds the ladder's first rung; later calls, and
    :func:`iterate`, reuse it for as long as ``p`` lives.

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
_SETUP: weakref.WeakKeyDictionary[ProblemData, _Ladder] = weakref.WeakKeyDictionary()


def _setup(p: ProblemData) -> _Ladder:
    """The config-independent setup of ``p``: Q checked, ladder built, once per instance."""
    system = _SETUP.get(p)
    if system is None:
        q_warning = validate_problem(p)
        d = _definite_diagonal(p)
        if d is None:
            logger.debug("subproblem setup: Q + A'A route")
            rungs = (_RangeSpace,)
        else:
            rungs = (partial(_Eigenbasis, d=d), partial(_RangeSpace, d=d), _RangeSpace)
        system = _SETUP[p] = _Ladder(p, q_warning, rungs)
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


class _Ladder:
    """The subproblem's rungs for one instance, climbed by one rule.

    For a definite diagonal Q = D, min(d) > 2e-10 (1 + max|d|), the rungs are
    the eigenbasis of K = A D^-1 A' (``_Eigenbasis``), then the range space on
    base D, then the range space on base Q + A'A (``_RangeSpace``); any other Q
    has the Q + A'A rung alone. With v = rho (b - s) - lam_hat, rhs = A'v - c
    and the bound 1e-10 (1 + ||rhs||), a rung makes its first pass and x is
    accepted if its residual meets the bound. On a miss the rung refines once,
    on the residual split as rhs is, g = -c - Q x and w = v - rho A x, and on a
    second miss the solve escalates to the next rung. A rung that cannot serve,
    a K whose spectrum does not certify or a Q + A'A that is not definite, is
    skipped. After the last rung, a minimum-norm lstsq solve on the formed H
    handles the singular-but-consistent case, and a miss there raises
    ``SubproblemUnboundedError``. So a diagonal-Q solve raises only where the
    Q + A'A rung and lstsq raise too.

    ``builds`` makes each rung from the instance; the first is built with the
    ladder, the others in their own slot on first need, and kept. Two threads
    that escalate at once may each build a rung, but never into another's slot.
    ``q_warning`` is validate_problem's verdict on Q. Nothing here or in a rung
    refers to the instance, so a cached entry never keeps its weak key alive;
    :meth:`solve` takes the instance as an argument instead.
    """

    def __init__(self, p: ProblemData, q_warning: str | None, builds: tuple):
        self.q_warning, self.builds = q_warning, builds
        self.rungs = [builds[0](p)] + [None] * (len(builds) - 1)

    def _rung(self, p: ProblemData, i: int) -> _Eigenbasis | _RangeSpace:
        if self.rungs[i] is None:
            self.rungs[i] = self.builds[i](p)
        return self.rungs[i]

    def solve(self, p, lam_hat, rho, s) -> tuple[np.ndarray, float, _Products]:
        """(x, grad_norm, products at x); ``lam_hat`` and ``s`` are stacked."""
        v = rho * (p.b - s) - lam_hat
        rhs = _a_operators(p)[1] @ v - p.c
        # BLAS nrm2 scales as it sums, so a rho-sized rhs cannot make the bound inf
        bound = 1e-10 * (1.0 + _nrm2(rhs))
        for i in range(len(self.rungs)):
            rung = self._rung(p, i)
            why = rung.unfit
            if why is None:
                x = rung.first(p, v, rho)
                # the check's Q x and A x also serve a refinement and the caller
                grad_norm, prod = _residual_norm(p, x, rho, rhs)
                if grad_norm <= bound:
                    return x, grad_norm, prod
                logger.debug("subproblem refines: residual %.3e > bound %.3e", grad_norm, bound)
                # split as rhs is: the base solve of a rho-sized residual cancels badly
                x = rung.refine(p, x, -p.c - prod.qx, v - rho * prod.ax, rho)
                grad_norm, prod = _residual_norm(p, x, rho, rhs)
                if grad_norm <= bound:
                    return x, grad_norm, prod
                why = f"refined residual {grad_norm:.3e} > bound {bound:.3e}"
            to = self._rung(p, i + 1).name if i + 1 < len(self.rungs) else "lstsq"
            logger.debug("subproblem escalates from %s to %s: %s", rung.name, to, why)
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


class _Eigenbasis:
    """The ladder's eigenbasis rung for a definite diagonal Q = D: one
    eigendecomposition of the m x m K = A D^-1 A' = U diag(lam) U'.

    By the push-through identity, (D + rho A'A)^-1 A' = D^-1 A'(I + rho K)^-1,
    and by Woodbury's, H(rho)^-1 = D^-1 - rho D^-1 A'(I + rho K)^-1 A D^-1
    (Golub and Van Loan, Matrix Computations, 4th ed., 2.1.4). So the solution
    of H x = g + A'w is

        x = g / d + D^-1 A' U [(U'w - rho h) / (1 + rho lam)],  h = U'A (g / d).

    Only the eigenpairs above K's rounding band are kept: the others span
    null(A'), which D^-1 A' maps to zero. K = B B' with B = A D^-1/2, and they
    are kept only if they certify B's rank (``_certified_gram``, the rule
    ``left_null`` follows); ``U`` is then m x r with r = rank(A), else None and
    the rung is ``unfit``. The quotient is divided through by k = max(rho, 1),
    so that rho lam cannot overflow; with the rho-sized w = v, the rho-sized
    parts of its numerator cancel as rho grows, as Tikhonov's filter factors do.
    The first pass's h is fixed once (``h_c``).
    """

    name = "the eigenbasis"

    def __init__(self, p: ProblemData, d: np.ndarray):
        self.d, self.unfit = d, None
        self.U = self.lam = self.x_c = self.h_c = None
        A, At = _a_operators(p)
        with np.errstate(over="ignore"):  # an overflow shows in the band
            Bt = At / np.sqrt(d)[:, None]  # B' = D^-1/2 A'; a COO copy for a CSR A'
            K = Bt.T @ Bt
        if p.a_csr is not None:
            K = K.toarray()
        spectrum, figures = _certified_gram(K, p.n, lambda N: np.linalg.norm(Bt @ N), eigh)
        if spectrum is None:
            logger.debug("subproblem setup: base-D SVD route; %s", figures)
            self.unfit = "K's spectrum does not certify"
            return
        w, V, k = spectrum
        self.U, self.lam = V[:, k:].copy(), w[k:].copy()  # V and w go with K
        logger.debug("subproblem setup: eigenbasis route, r = %d; %s", self.lam.size, figures)
        self.x_c = -p.c / d
        self.h_c = self.U.T @ (A @ self.x_c)

    def _push(self, p: ProblemData, w, h, rho: float) -> np.ndarray:
        """D^-1 A' U [(U'w - rho h) / (1 + rho lam)], the quotient divided by max(rho, 1)."""
        k = max(rho, 1.0)
        y = (self.U.T @ w / k - (rho / k) * h) / (1.0 / k + (rho / k) * self.lam)
        return (_a_operators(p)[1] @ (self.U @ y)) / self.d

    def first(self, p: ProblemData, v, rho: float) -> np.ndarray:
        return self.x_c + self._push(p, v, self.h_c, rho)

    def refine(self, p: ProblemData, x, g, w, rho: float) -> np.ndarray:
        x_g = g / self.d
        return x + x_g + self._push(p, w, self.U.T @ (_a_operators(p)[0] @ x_g), rho)


class _RangeSpace:
    """The ladder's range-space rung: the factors of H(rho) = Q + rho A'A that
    do not depend on rho.

    It keeps the n x m V below (4.9 MB at the 20x20 grid), an m x m U and, on
    base Q + A'A, the n x n R. H(rho) = B + (rho - a) A'A with the base
    B = Q + a A'A = R'R: the offset is a = 1, or a = 0 and R = D^1/2 for a
    definite diagonal Q = D (``d``). With the thin SVD R^-T A' = W diag(sig) U',
    V = R^-1 W and den = (1 - a sig^2) + rho sig^2, positive for every rho > 0,

        H(rho)^-1 = B^-1 + V diag((a - rho) sig^2 / den) V',
        H(rho)^-1 A'v = V (sig U'v / den),

    Tikhonov's filter factors for a = 0. The second form carries the rho-sized
    part of the right-hand side, so rho cancels in it exactly. sig <= 1 for
    a = 1; for a = 0 it is unbounded, so the quotients are divided through by
    max(rho, 1), where rho sig^2 could overflow. ``factor`` is R' for a = 1, or
    None, and the rung ``unfit``, when B is not definite, that is when null(Q)
    and null(A) meet and every H(rho) is singular.
    """

    def __init__(self, p: ProblemData, d: np.ndarray | None = None):
        self.name = "Q + A'A" if d is None else "base D"
        self.d, self.unfit, self.factor, self.V = d, None, None, None
        if d is None:
            A, At = _a_operators(p)
            G = At @ A  # O(nnz) work from the CSR pair, whose sums on the grids are exact
            if p.a_csr is not None:
                G = G.toarray()
            _add_q(p, G)  # symmetric, so G.T is the F-ordered B that cho_factor overwrites with R'
            try:
                self.factor = cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
            except LinAlgError:
                self.unfit = "Q + A'A is not definite"
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

    def _push(self, w, h, rho: float) -> np.ndarray:
        """V (shrink h + sig U'w / den), with h = V'g: the rho A'A part of H^-1 (g + A'w)."""
        # k = 1 on base Q + A'A, where each quotient keeps its bits
        k = 1.0 if self.d is None else max(rho, 1.0)
        den = self.one_minus_sig2 / k + (rho / k) * self.sig2
        shrink = ((self.offset - rho) / k) * self.sig2 / den
        return self.V @ (shrink * h + self.sig * (self.Ut @ w / k) / den)

    def first(self, p: ProblemData, v, rho: float) -> np.ndarray:
        return self.x_c + self._push(v, self.h_c, rho)

    def refine(self, p: ProblemData, x, g, w, rho: float) -> np.ndarray:
        return x + self._base_solve(g) + self._push(w, self.V.T @ g, rho)


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
    # after the oracle, so the temporaries of its left null basis (an m x m Gram
    # eigh, or an SVD on its fallback route) are freed before the ladder's first
    # rung is built, not stacked on them
    system = _setup(p)

    m1 = p.m1
    control = cfg.mode is Mode.INFEASIBILITY_CONTROL
    # standard mode's shift is the same zero pair every iteration; its arrays are read-only
    shift = HierarchicalShift.zero(p.m1, p.m2)
    s = np.concatenate((shift.s1, shift.s2))
    lam_hat = np.zeros(p.m)
    u = cfg.u0
    rho = cfg.rho0
    k = 0
    while True:
        if not np.isfinite(rho):
            raise OverflowError(f"iteration {k + 1}: penalty rho overflowed to {rho}")
        if control:
            shift = approximate_shift(p, sigma_at(cfg.sigma_schedule, k))
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


def _stop_status(state: IterationState, cfg: SolverConfig) -> Status | None:
    """The terminal status that ``state`` ends a run in, or None to go on: the
    stopping rule of :func:`solve`, which the test suite's replays also apply."""
    if state.record.E <= cfg.kkt_tol:
        return Status.CONVERGED
    if state.rho > cfg.rho_cap or not np.isfinite(state.rho):
        return Status.DIVERGENCE_SUSPECTED
    if state.record.k >= cfg.max_iter:
        return Status.MAX_ITER
    return None


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
    for state in iterate(p, cfg):
        records.append(state.record)
        logger.debug(
            "k=%d E=%.3e rho=%.3e u=%.3e", state.record.k, state.record.E, state.rho, state.u
        )
        status = _stop_status(state, cfg)
        if status is not None:
            break
    logger.info(
        "%s after %d iterations (E=%.3e)", status.value, state.record.k, state.record.E
    )
    return SolveReport(
        status=status,
        x_final=state.x,
        trace=tuple(records),
        shift_final=state.shift,
        objective_final=objective_value(p, state.x),
    )
