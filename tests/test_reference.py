"""Subproblem solves checked against a 50-digit mpmath solve of the same system."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem, random_problem
from hieralm import HierarchicalShift, SubproblemUnboundedError, solve_subproblem

RHOS = (1e-3, 1.0, 625.0, 1e8, 1e14)


def _mp(a: np.ndarray) -> mpmath.matrix:
    # float64 entries convert exactly; a vector becomes a column
    return mpmath.matrix(a.tolist())


def _reference_check(p, l1, l2, rho, shift) -> None:
    """Solve H x = rhs at 50 digits and hold the float solve to it.

    H = Q + rho (A1'A1 + A2'A2) and rhs are formed exactly from the float inputs.
    The solver's residual, evaluated at 50 digits, must meet its own bound
    1e-10 (1 + ||rhs||), whichever path it took. Where cond(H) <= 1e6 the
    solution must also agree with the reference to 1e-8 relative.
    """
    with mpmath.workdps(50):
        r = mpmath.mpf(rho)
        H = _mp(p.Q)
        rhs = -_mp(p.c)
        for A, b, lam, s in ((p.A1, p.b1, l1, shift.s1), (p.A2, p.b2, l2, shift.s2)):
            if A.shape[0]:
                At = _mp(A.T)
                H += r * (At * _mp(A))
                rhs += At * (r * (_mp(b) - _mp(s)) - _mp(lam))
        H_float = np.array(H.tolist(), dtype=float)
        try:
            x, _ = solve_subproblem(p, l1, l2, rho, shift)
        except SubproblemUnboundedError:
            # only a singular H may be declared inconsistent
            assert np.linalg.matrix_rank(H_float) < p.n
            return
        residual = mpmath.norm(H * _mp(x) - rhs)
        bound = 1e-10 * (1 + mpmath.norm(rhs))
        assert residual <= bound, f"rho={rho}: residual {residual} > {bound}"
        if np.linalg.cond(H_float) <= 1e6:
            x_ref = mpmath.lu_solve(H, rhs)
            err = mpmath.norm(_mp(x) - x_ref) / mpmath.norm(x_ref)
            assert err <= 1e-8, f"rho={rho}: solution off by {err} relative"


def _instance(case: str, rng: np.random.Generator):
    if case == "zero-Q-full-column-rank":
        n, m1, m2 = 4, 3, 2
        Q = np.zeros((n, n))
    elif case == "tall-A":
        n, m1, m2 = 3, 4, 3
        M = rng.uniform(-2.0, 2.0, (n, n))
        Q = M.T @ M
    else:  # "duplicated-row"
        n, m1, m2 = 6, 4, 2
        M = rng.uniform(-2.0, 2.0, (n - 2, n))
        Q = M.T @ M  # semidefinite, rank n - 2
    A1 = rng.uniform(-2.0, 2.0, (m1, n))
    A2 = rng.uniform(-2.0, 2.0, (m2, n))
    if case == "duplicated-row":
        A1[2] = A1[0]
    p = make_problem(
        Q=Q,
        c=rng.uniform(-2.0, 2.0, n),
        A1=A1,
        b1=rng.uniform(-2.0, 2.0, m1),
        A2=A2,
        b2=rng.uniform(-2.0, 2.0, m2),
    )
    assert p.n <= 8
    return p


def _random_inputs(p, rng):
    shift = HierarchicalShift(rng.uniform(-1.0, 1.0, p.m1), rng.uniform(-1.0, 1.0, p.m2))
    return rng.uniform(-1.0, 1.0, p.m1), rng.uniform(-1.0, 1.0, p.m2), shift


class TestSubproblemReference:
    @pytest.mark.parametrize("case", ["zero-Q-full-column-rank", "tall-A", "duplicated-row"])
    @pytest.mark.parametrize("rho", RHOS)
    def test_structured_instances(self, case, rho):
        rng = np.random.default_rng(61)
        for _ in range(3):
            p = _instance(case, rng)
            if case == "zero-Q-full-column-rank":
                assert np.linalg.matrix_rank(p.A) == p.n
            if case == "tall-A":
                assert p.m > p.n
            l1, l2, shift = _random_inputs(p, rng)
            _reference_check(p, l1, l2, rho, shift)

    def test_cases_reach_both_conditioning_regimes(self):
        # the battery must hold some solves to the 1e-8 agreement and leave
        # others to the residual bound alone
        rng = np.random.default_rng(61)
        conds = []
        for case in ("zero-Q-full-column-rank", "tall-A", "duplicated-row"):
            p = _instance(case, rng)
            G = p.A.T @ p.A
            conds += [np.linalg.cond(p.Q + rho * G) for rho in RHOS]
        assert min(conds) <= 1e6 < max(conds)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from(RHOS))
    def test_random_instances(self, seed, rho):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, definite=bool(rng.integers(2)))
        l1, l2, shift = _random_inputs(p, rng)
        _reference_check(p, l1, l2, rho, shift)
