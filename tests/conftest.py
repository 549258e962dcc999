"""Shared generators, exact-replay helpers, and independent oracles for the suite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import null_space

import hieralm.alm
from hieralm import (
    IterationState,
    ProblemData,
    SigmaPair,
    SolverConfig,
    iterate,
)

# every run made through run_with_states lands here; the bookkeeping acceptance
# test replays the whole bank
TRACE_BANK: list[tuple[SolverConfig, list[IterationState]]] = []


def _record_calls(monkeypatch, name: str, arg: int) -> list:
    """Records the shape of argument ``arg`` of each call the solver makes to
    hieralm.alm's ``name``, which still runs."""
    calls = []
    original = getattr(hieralm.alm, name)

    def counting(*args, **kwargs):
        calls.append(args[arg].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(hieralm.alm, name, counting)
    return calls


@pytest.fixture
def factor_calls(monkeypatch):
    """The shape of each matrix the solver gives cho_factor."""
    return _record_calls(monkeypatch, "cho_factor", 0)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of each matrix the solver gives svd, one per range-space setup."""
    return _record_calls(monkeypatch, "svd", 0)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of each matrix the solver gives eigh, one per eigenbasis setup."""
    return _record_calls(monkeypatch, "eigh", 0)


@pytest.fixture
def trisolve_calls(monkeypatch):
    """The shape of each right-hand side the solver gives cho_solve."""
    return _record_calls(monkeypatch, "cho_solve", 1)


def make_problem(Q, c, A1=None, b1=None, A2=None, b2=None) -> ProblemData:
    """Build a ProblemData from lists; omitted blocks are empty."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]

    def block(A, b):
        if A is None:
            return np.zeros((0, n)), np.zeros(0)
        return np.asarray(A, dtype=float), np.asarray(b, dtype=float)

    A1, b1 = block(A1, b1)
    A2, b2 = block(A2, b2)
    return ProblemData(Q=np.asarray(Q, dtype=float), c=c, A1=A1, b1=b1, A2=A2, b2=b2)


def random_problem(
    rng: np.random.Generator,
    *,
    n: int | None = None,
    m1: int | None = None,
    m2: int | None = None,
    feasible: bool = False,
    definite: bool = True,
    allow_empty: bool = True,
) -> ProblemData:
    """Dense random instance with entries uniform in [-2, 2]."""
    if n is None:
        n = int(rng.integers(1, 7))
    lo = 0 if allow_empty else 1
    if m1 is None:
        m1 = int(rng.integers(lo, 5))
    if m2 is None:
        m2 = int(rng.integers(lo, 5))
    A1 = rng.uniform(-2.0, 2.0, (m1, n))
    A2 = rng.uniform(-2.0, 2.0, (m2, n))
    if feasible:
        x0 = rng.uniform(-2.0, 2.0, n)
        b1, b2 = A1 @ x0, A2 @ x0
    else:
        b1 = rng.uniform(-2.0, 2.0, m1)
        b2 = rng.uniform(-2.0, 2.0, m2)
    M = rng.uniform(-2.0, 2.0, (n, n))
    Q = M.T @ M
    if definite:
        Q = Q + 0.1 * np.eye(n)
    c = rng.uniform(-2.0, 2.0, n)
    return ProblemData(Q=Q, c=c, A1=A1, b1=b1, A2=A2, b2=b2)


def reference_battery() -> list[ProblemData]:
    """The instances of the criterion-4 battery (random_problem, seed 3) that have
    both blocks, an A of full column rank and k = m - rank(A) >= 2: 61 instances
    with n <= 6, 28 of them with a rank-deficient A1, in which s1 != 0."""
    rng = np.random.default_rng(3)
    battery = [random_problem(rng, definite=False) for _ in range(200)]
    return [
        p
        for p in battery
        if p.m1 and p.m2 and np.linalg.matrix_rank(p.A) == p.n and p.m - p.n >= 2
    ]


class TwoStage(NamedTuple):
    """Shifts, minimum-norm minimizers and rank of the two least-squares stages."""

    s1: np.ndarray
    s2: np.ndarray
    x_dag: np.ndarray
    x_ddag: np.ndarray
    rank1: int


def two_stage_reference(p: ProblemData) -> TwoStage:
    """Exact shift by two nested least squares, independent of the solver's engine.

    Stage 1 takes the minimum-norm least-squares solution x_dag of A1 x = b1.
    Stage 2 minimizes ||b2 - A2 x|| over x_dag + null(A1), parametrized by an
    orthonormal null-space basis Z, and returns the minimum-norm reduced point.
    """
    if p.m1 == 0:
        x_dag, rank1 = np.zeros(p.n), 0
    else:
        x_dag, _, rank1, _ = np.linalg.lstsq(p.A1, p.b1, rcond=None)
    x_ddag = x_dag
    if p.m2 > 0 and rank1 < p.n:
        Z = np.eye(p.n) if p.m1 == 0 else null_space(p.A1)
        if Z.shape[1]:
            z, *_ = np.linalg.lstsq(p.A2 @ Z, p.b2 - p.A2 @ x_dag, rcond=None)
            x_ddag = x_dag + Z @ z
    return TwoStage(
        p.b1 - p.A1 @ x_dag, p.b2 - p.A2 @ x_ddag, x_dag, x_ddag, int(rank1)
    )


def stacked_weighted_shift(p: ProblemData, sigma: SigmaPair) -> tuple[np.ndarray, np.ndarray]:
    """Weighted shift by one minimum-norm lstsq on the sqrt(sigma)-scaled blocks."""
    w1, w2 = np.sqrt(sigma.sigma1), np.sqrt(sigma.sigma2)
    x_bar = np.zeros(p.n)
    if p.m > 0:
        x_bar, *_ = np.linalg.lstsq(
            np.vstack([w1 * p.A1, w2 * p.A2]),
            np.concatenate([w1 * p.b1, w2 * p.b2]),
            rcond=None,
        )
    return p.b1 - p.A1 @ x_bar, p.b2 - p.A2 @ x_bar


def boxed_oracle_problem(rng: np.random.Generator) -> ProblemData:
    """Small instance whose two-stage minimizers stay inside the [-4, 4] cube.

    Rejection-sampled so that A1 is well conditioned on its row space, b1 is a
    grid-aligned image point (plus, half the time when A1 is row-rank-deficient,
    a range-orthogonal component that no x can remove), and both minimum-norm
    stage minimizers of :func:`two_stage_reference` land well inside the
    exhaustive-search box.
    """
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        A1 = rng.uniform(-2.0, 2.0, (m1, n))
        sv = np.linalg.svd(A1, compute_uv=False)
        pos = sv[sv > 1e-10]
        if pos.size and pos.min() < 0.5:
            continue
        A2 = rng.uniform(-2.0, 2.0, (m2, n))
        b2 = rng.uniform(-2.0, 2.0, m2)
        x0 = rng.integers(-40, 41, n) * 0.05
        b1 = A1 @ x0
        rank = pos.size
        if rank < m1 and rng.random() < 0.5:
            U = np.linalg.svd(A1, full_matrices=True)[0]
            b1 = b1 + U[:, rank:] @ (U[:, rank:].T @ rng.uniform(-2.0, 2.0, m1))
        p = make_problem(np.eye(n), np.zeros(n), A1, b1, A2, b2)
        ref = two_stage_reference(p)
        if np.abs(ref.x_dag).max() <= 4.0 and np.abs(ref.x_ddag).max() <= 4.0:
            return p
    raise RuntimeError("rejection sampling failed to produce a boxed instance")


def exhaustive_stage_values(p: ProblemData, step: float = 0.05, radius: float = 5.0):
    """Best achievable residual norms over a full grid of the [-radius, radius] cube.

    Returns (best1, best2_near) where best1 is the smallest high-priority
    residual norm over the whole grid and best2_near the smallest low-priority
    residual norm among points within 1e-6 of the stage-1 optimum.
    """
    half = round(radius / step)
    axis = np.arange(-half, half + 1) * step
    if p.n == 1:
        slabs = [axis[:, None]]
    elif p.n == 2:
        g = np.meshgrid(axis, axis, indexing="ij")
        slabs = [np.column_stack([a.ravel() for a in g])]
    elif p.n == 3:
        g = np.meshgrid(axis, axis, indexing="ij")
        base = np.column_stack([a.ravel() for a in g])
        slabs = (
            np.column_stack([np.full(len(base), v), base]) for v in axis
        )
    else:
        raise ValueError("exhaustive search only supports n <= 3")

    # two passes so the stage-2 scan can use the global stage-1 optimum
    slabs = list(slabs) if not isinstance(slabs, list) else slabs
    best1 = np.inf
    for X in slabs:
        best1 = min(best1, float(np.linalg.norm(X @ p.A1.T - p.b1, axis=1).min()))
    best2 = np.inf
    for X in slabs:
        v1 = np.linalg.norm(X @ p.A1.T - p.b1, axis=1)
        near = v1 <= best1 + 1e-6
        if near.any():
            best2 = min(best2, float(np.linalg.norm(X[near] @ p.A2.T - p.b2, axis=1).min()))
    return best1, best2


def run_with_states(p: ProblemData, cfg: SolverConfig | None = None) -> list[IterationState]:
    """Drive the iteration generator under the solver's stopping rule.

    Keeps every full IterationState, so tests can replay multiplier and penalty
    bookkeeping bitwise. Each run is banked in TRACE_BANK and checked on the
    spot; the bookkeeping acceptance test sweeps the accumulated bank again.
    """
    if cfg is None:
        cfg = SolverConfig()
    states: list[IterationState] = []
    for state in iterate(p, cfg):
        states.append(state)
        if hieralm.alm._stop_status(state, cfg) is not None:
            break
    TRACE_BANK.append((cfg, states))
    assert_exact_bookkeeping(cfg, states)
    return states


def assert_exact_bookkeeping(cfg: SolverConfig, states: list[IterationState]) -> None:
    """Replay multiplier, infeasibility, and penalty updates; all must match bitwise."""
    assert states, "empty trace"
    prev1 = np.zeros(states[0].lambda1.shape[0])
    prev2 = np.zeros(states[0].lambda2.shape[0])
    prev_u = cfg.u0
    prev_rho = cfg.rho0
    for st in states:
        assert st.rho_used == prev_rho
        assert np.array_equal(st.lambda1, prev1 + st.rho_used * st.s1)
        assert np.array_equal(st.lambda2, prev2 + st.rho_used * st.s2)
        assert np.array_equal(st.lambda1_hat, np.clip(st.lambda1, cfg.box1_lo, cfg.box1_hi))
        assert np.array_equal(st.lambda2_hat, np.clip(st.lambda2, cfg.box2_lo, cfg.box2_hi))
        assert np.all(st.lambda1_hat >= np.asarray(cfg.box1_lo, dtype=float))
        assert np.all(st.lambda1_hat <= np.asarray(cfg.box1_hi, dtype=float))
        assert np.all(st.lambda2_hat >= np.asarray(cfg.box2_lo, dtype=float))
        assert np.all(st.lambda2_hat <= np.asarray(cfg.box2_hi, dtype=float))
        u = float(np.linalg.norm(st.s1) + np.linalg.norm(st.s2))
        assert st.u == u
        assert st.rho == (prev_rho if u <= cfg.tau * prev_u else cfg.gamma * prev_rho)
        assert st.rho == st.rho_used or st.rho == cfg.gamma * st.rho_used
        rec = st.record
        assert rec.rho == st.rho
        assert rec.norm_s1 == float(np.linalg.norm(st.s1))
        assert rec.norm_s2 == float(np.linalg.norm(st.s2))
        # the multipliers grow with rho, so their norms are BLAS nrm2, which cannot overflow
        assert rec.norm_lambda1 == float(scipy.linalg.norm(st.lambda1))
        assert rec.norm_lambda2 == float(scipy.linalg.norm(st.lambda2))
        prev1, prev2 = st.lambda1_hat, st.lambda2_hat
        prev_u, prev_rho = u, st.rho
    ks = [st.record.k for st in states]
    assert ks == list(range(1, len(states) + 1))


def kkt_minimizer(p: ProblemData, s1=None, s2=None):
    """Independent minimizer of the shifted equality-constrained QP.

    Solves the stationarity-plus-feasibility system in one bordered
    minimum-norm least squares; the x block is unique whenever Q is positive
    definite on the null space of the stacked constraints.
    """
    n, m1, m2 = p.n, p.m1, p.m2
    t1 = p.b1 if s1 is None else p.b1 - np.asarray(s1, dtype=float)
    t2 = p.b2 if s2 is None else p.b2 - np.asarray(s2, dtype=float)
    K = np.zeros((n + m1 + m2, n + m1 + m2))
    K[:n, :n] = p.Q
    K[:n, n:n + m1] = p.A1.T
    K[:n, n + m1:] = p.A2.T
    K[n:n + m1, :n] = p.A1
    K[n + m1:, :n] = p.A2
    rhs = np.concatenate([-p.c, t1, t2])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n], sol[n:n + m1], sol[n + m1:]
