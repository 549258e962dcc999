"""Outer loop: config, subproblem solves, update rules, stopping, and reports."""

from __future__ import annotations

import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies

import hieralm.alm
import hieralm.problem

from conftest import (
    assert_exact_bookkeeping,
    kkt_minimizer,
    make_problem,
    random_problem,
    run_with_states,
)
from hieralm import (
    GridSpec,
    HierarchicalShift,
    Mode,
    ProblemData,
    SolverConfig,
    Status,
    SubproblemUnboundedError,
    build_instance,
    constraint_residuals,
    hierarchical_shift,
    iterate,
    kkt_residual,
    objective_value,
    solve,
    solve_subproblem,
    update_penalty,
)


def _with_q(p: ProblemData, Q) -> ProblemData:
    return ProblemData(Q=Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)


def _tridiagonal_q(p: ProblemData) -> ProblemData:
    """``p`` with Q = I + (off-diagonals 1/4), definite and not diagonal, so it is factored."""
    return _with_q(p, np.eye(p.n) + 0.25 * (np.eye(p.n, k=1) + np.eye(p.n, k=-1)))


def _diagonal_q_problems() -> list[ProblemData]:
    """Instances whose Q has no nonzero entry off its diagonal; a solve applies it as d * x.

    A grid instance; a diagonal with zero entries; one with subnormal entries and
    m1 = 0; one with -0.0 off-diagonal cells and m2 = 0; and diag(1, 0) with no
    constraints, where Q + A'A does not factor and every solve takes lstsq.
    """
    rng = np.random.default_rng(60)
    negative_zeros = np.diag([1.0, 2.0, 3.0])
    negative_zeros[0, 2] = negative_zeros[2, 0] = -0.0
    return [
        build_instance(GridSpec(4, 4, kappa=0.5))[0],
        _with_q(random_problem(rng, n=4, m1=2, m2=2), np.diag([2.0, 0.0, 3.0, 0.0])),
        _with_q(random_problem(rng, n=4, m1=0, m2=3), np.diag([1.0, 5e-324, 2.0, 1e-310])),
        _with_q(random_problem(rng, n=3, m1=2, m2=0), negative_zeros),
        make_problem(Q=np.diag([1.0, 0.0]), c=[-1.0, 0.0]),
    ]


def _sparse_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """An m x n matrix with two nonzeros, uniform in [-2, 2], in each row."""
    A = np.zeros((m, n))
    for row in A:
        row[rng.choice(n, 2, replace=False)] = rng.uniform(-2.0, 2.0, 2)
    return A


def _with_sparse_a(rng: np.random.Generator, n: int, m1: int, m2: int) -> ProblemData:
    """random_problem's Q, c and b with _sparse_rows' A, sparse by the COO rule for n >= 8."""
    p = random_problem(rng, n=n, m1=m1, m2=m2)
    A1, A2 = _sparse_rows(rng, m1, n), _sparse_rows(rng, m2, n)
    return ProblemData(Q=p.Q, c=p.c, A1=A1, b1=p.b1, A2=A2, b2=p.b2)


def _forced_dense(p: ProblemData) -> ProblemData:
    """The same arrays in a new instance whose A products take the dense path."""
    q = ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
    vars(q)["a_csr"] = None  # fills the cached_property before its first read
    return q


def _sparse_a_problems() -> list[ProblemData]:
    """Instances whose A is sparse by the COO rule; a solve applies it through CSR copies.

    A grid instance; random sparse A with both blocks, with m1 = 0 and with
    m2 = 0; and one whose A holds a -0.0 cell, which counts as zero.
    """
    rng = np.random.default_rng(61)
    negative_zero = _with_sparse_a(rng, 10, 3, 2)
    A1 = negative_zero.A1.copy()
    A1[0, np.flatnonzero(A1[0] == 0.0)[0]] = -0.0
    return [
        build_instance(GridSpec(3, 3, kappa=0.5))[0],
        _with_sparse_a(rng, 10, 3, 2),
        _with_sparse_a(rng, 10, 0, 4),
        _with_sparse_a(rng, 10, 4, 0),
        ProblemData(
            Q=negative_zero.Q, c=negative_zero.c, A1=A1, b1=negative_zero.b1,
            A2=negative_zero.A2, b2=negative_zero.b2,
        ),
    ]


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.tau, cfg.gamma) == (0.1, 5.0)
        assert (cfg.rho0, cfg.u0) == (1.0, 1e3)
        assert (cfg.box1_lo, cfg.box1_hi) == (-1e6, 1e6)
        assert (cfg.box2_lo, cfg.box2_hi) == (-1e6, 1e6)
        assert (cfg.kkt_tol, cfg.max_iter, cfg.rho_cap) == (1e-6, 50, 1e14)
        assert cfg.mode is Mode.INFEASIBILITY_CONTROL

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.0},
            {"gamma": 1.0},
            {"rho0": 0.0},
            {"u0": -1.0},
            {"kkt_tol": 0.0},
            {"max_iter": 0},
            {"rho_cap": 0.0},
            {"tau": float("nan")},
            {"box2_lo": 2.0, "box2_hi": 1.0},
            {"box1_lo": np.array([0.0, 2.0]), "box1_hi": np.array([1.0, 1.0])},
            {"box1_lo": 2.0, "box1_hi": 1.0},
            {"mode": "infeasibility-control"},
            {"rho0": float("inf")},
            {"gamma": float("inf")},
            {"gamma": float("inf"), "rho_cap": float("inf")},
            {"gamma": 10**400},  # stored as inf; kept as an int it would compare below np.inf
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": True}, "max_iter must be an integer, got True"),
            ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
            ({"max_iter": np.float64(3.0)}, f"max_iter must be an integer, got {np.float64(3)!r}"),
            ({"box1_hi": True}, "box1_hi must be a real number or a vector, got True"),
        ]
        + [
            ({name: value}, f"{name} must be a real number, got {value!r}")
            for name in ("tau", "gamma", "rho0", "u0", "kkt_tol", "rho_cap")
            for value in (True, False, np.bool_(True), "0.5")
        ]
        # strings, objects, bools and 2-D shapes in a box bound
        + [
            ({name: value}, f"{name} must be a real number or a vector, got {value!r}")
            for name, value in (
                ("box1_lo", {}),
                ("box1_lo", "1"),
                ("box1_hi", [0.0, "1"]),
                ("box2_lo", [-1.0, True]),
                ("box2_lo", [[-1.0]]),
                ("box2_hi", np.array([True, False])),
                ("box2_hi", np.ones((1, 2))),
                ("box1_hi", np.array(["1"])),
            )
        ],
    )
    def test_rejects_mistyped_values(self, kwargs, message):
        # a bool would pass as 0 or 1, and a fractional max_iter as its ceiling
        with pytest.raises(ValueError) as exc:
            SolverConfig(**kwargs)
        assert str(exc.value) == message

    def test_accepts_numpy_scalars(self):
        cfg = SolverConfig(max_iter=np.int64(3), tau=np.float32(0.25), rho0=np.int32(2))
        assert (cfg.max_iter, cfg.tau, cfg.rho0) == (3, 0.25, 2)

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        # a float32 gamma kept as given would make rho a float32, whose 5^11 reads 48828124
        p, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        cfg = SolverConfig(mode=Mode.STANDARD_AL, gamma=np.float32(5.0), max_iter=np.int64(50))
        assert (type(cfg.gamma), type(cfg.max_iter)) == (float, int)
        trace = solve(p, cfg).trace
        assert trace[11].k == 12 and trace[11].rho == 5.0**11
        assert trace == solve(p, SolverConfig(mode=Mode.STANDARD_AL)).trace
        bounds = SolverConfig(box1_lo=np.float32(-1.0), box2_hi=np.int64(2))
        assert (type(bounds.box1_lo), type(bounds.box2_hi)) == (float, float)

    def test_accepts_real_box_bounds(self):
        # scalars of any real type, and 1-D lists, tuples and arrays of them
        SolverConfig(box1_lo=[-1, -2.5], box1_hi=(1, np.float64(2.0)))
        SolverConfig(box2_lo=np.float32(-1.0), box2_hi=np.array([1, 2]))
        SolverConfig(box1_lo=np.array(-1.0), box2_hi=[])

    def test_rejects_box_bounds_of_different_lengths(self):
        # numpy's own broadcast error would name neither the field nor the lengths
        with pytest.raises(ValueError) as exc:
            SolverConfig(box1_lo=[0.0, 0.0], box1_hi=[1.0, 1.0, 1.0])
        assert str(exc.value) == "box1_lo and box1_hi differ in length: 2 and 3"
        with pytest.raises(ValueError) as exc:
            SolverConfig(box2_lo=np.array([-1.0]), box2_hi=np.array([1.0, 1.0]))
        assert str(exc.value) == "box2_lo and box2_hi differ in length: 1 and 2"
        # a scalar against a vector still broadcasts
        SolverConfig(box1_lo=0.0, box1_hi=[1.0, 1.0, 1.0])

    def test_rejects_nan_box_bounds(self):
        nan = float("nan")
        for name in ("box1_lo", "box1_hi", "box2_lo", "box2_hi"):
            for bound in (nan, np.array([0.0, nan])):
                with pytest.raises(ValueError, match="NaN"):
                    SolverConfig(**{name: bound})
        # infinite bounds stay legal
        SolverConfig(box1_lo=-np.inf, box1_hi=np.inf, box2_lo=np.array([-np.inf, 0.0]))
        # the config keeps a read-only copy of a vector bound, so no NaN can be
        # written into it after the check
        cfg = SolverConfig(box1_lo=np.array([-1.0]))
        with pytest.raises(ValueError, match="read-only"):
            cfg.box1_lo[0] = nan

    def test_equal_configs_compare_and_hash_equal(self):
        # vector bounds compare entry by entry, whether given as arrays, lists or tuples
        pairs = [
            (SolverConfig(box1_lo=np.zeros(2)), SolverConfig(box1_lo=np.zeros(2))),
            (SolverConfig(box1_lo=[0.0, -1.0]), SolverConfig(box1_lo=np.array([0.0, -1.0]))),
            (SolverConfig(box2_hi=(1, 2)), SolverConfig(box2_hi=[1.0, 2.0])),
            (SolverConfig(box2_lo=[-0.0, 0.0]), SolverConfig(box2_lo=np.zeros(2))),
            (SolverConfig(box1_lo=np.array(-1.0)), SolverConfig(box1_lo=-1)),
            (SolverConfig(), SolverConfig()),
        ]
        for a, b in pairs:
            assert a == b and not a != b
            assert hash(a) == hash(b)
        # the six pairs are six distinct configs, and a set keeps one of each
        assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
        # the bounds stay read-only arrays
        assert not pairs[0][0].box1_lo.flags.writeable

    def test_unequal_configs_compare_unequal(self):
        base = SolverConfig(box1_lo=np.zeros(2))
        for other in (
            SolverConfig(box1_lo=np.array([0.0, 1e-300])),
            SolverConfig(box1_lo=np.zeros(3)),
            SolverConfig(box1_lo=np.zeros(2), box1_hi=[1.0, 1.0]),
            SolverConfig(box2_lo=np.zeros(2)),
            SolverConfig(box1_lo=np.zeros(2), tau=0.2),
        ):
            assert base != other and not base == other
        # a scalar bound broadcasts to any block, a vector fixes the length, so
        # the two differ even where they would clip alike
        assert SolverConfig(box1_lo=0.0) != SolverConfig(box1_lo=[0.0])
        assert SolverConfig(box1_lo=0.0) != SolverConfig(box1_lo=np.zeros(2))
        assert SolverConfig() != (SolverConfig().tau, SolverConfig().gamma)

    def test_box_bounds_are_copied_when_the_caller_mutates_them(self):
        p = make_problem(
            Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 0.0], [0.0, 1.0]], b1=[1.0, 2.0],
            A2=[[1.0, 1.0]], b2=[0.0],
        )
        lo, hi = np.array([-1e6, -1e6]), [1e6, 1e6]
        cfg = SolverConfig(box1_lo=lo, box1_hi=hi, max_iter=3)
        assert cfg.box1_lo is not lo
        assert cfg.box1_lo.dtype == cfg.box1_hi.dtype == np.float64
        assert not (cfg.box1_lo.flags.writeable or cfg.box1_hi.flags.writeable)
        before = solve(p, cfg)
        # a bound that would move the multipliers, then one that empties the box
        for bound, cell, value in ((lo, 0, 5.0), (hi, 1, -2e6)):
            bound[cell] = value
            after = solve(p, cfg)
            assert after.trace == before.trace
            assert after.x_final.tobytes() == before.x_final.tobytes()
        assert cfg.box1_lo.tolist() == [-1e6, -1e6] and cfg.box1_hi.tolist() == [1e6, 1e6]


class TestUpdateRules:
    def test_penalty_kept_on_sufficient_decrease(self):
        assert update_penalty(0.9, 10.0, 2.0, 0.1, 5.0) == 2.0
        # boundary: exactly tau * u_prev still counts as enough progress
        assert update_penalty(1.0, 10.0, 2.0, 0.1, 5.0) == 2.0

    def test_penalty_grows_on_stall(self):
        assert update_penalty(5.0, 10.0, 2.0, 0.1, 5.0) == 10.0


class TestKktResidual:
    def test_zero_at_exact_solution(self):
        # min 0.5 x'x s.t. x1 = 1: x = (1, 0), lambda = -1
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 0.0]], b1=[1.0])
        E = kkt_residual(
            p,
            np.array([1.0, 0.0]),
            np.array([-1.0]),
            np.zeros(0),
            HierarchicalShift.zero(1, 0),
        )
        assert E <= 1e-12

    def test_frozen_value(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[0.0])
        E = kkt_residual(
            p, np.array([0.5]), np.zeros(1), np.zeros(0), HierarchicalShift.zero(1, 0)
        )
        assert E == pytest.approx(1.0, abs=1e-12)


class TestSolveSubproblem:
    def test_scalar_penalty_balance(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0])
        shift = HierarchicalShift.zero(1, 0)
        x, grad = solve_subproblem(p, np.zeros(1), np.zeros(0), 1.0, shift)
        assert x[0] == pytest.approx(0.5, rel=1e-12)
        x, _ = solve_subproblem(p, np.zeros(1), np.zeros(0), 625.0, shift)
        assert x[0] == pytest.approx(625.0 / 626.0, rel=1e-12)
        assert grad <= 1e-10 * 2.0

    def test_gradient_bound_postcondition(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            p = random_problem(rng)
            shift = hierarchical_shift(p).shift
            l1 = rng.uniform(-1.0, 1.0, p.m1)
            l2 = rng.uniform(-1.0, 1.0, p.m2)
            rho = float(rng.uniform(1.0, 1e4))
            x, grad = solve_subproblem(p, l1, l2, rho, shift)
            H = p.Q + rho * (p.A.T @ p.A)
            v = rho * (p.b - np.concatenate((shift.s1, shift.s2))) - np.concatenate((l1, l2))
            rhs = p.A.T @ v - p.c
            bound = 1e-10 * (1.0 + np.linalg.norm(rhs))
            assert grad <= bound
            # the solver reports the matrix-free residual of the stacked system, in
            # BLAS nrm2; the formed H meets the same bound
            Hx = p.Q @ x + rho * (p.A.T @ (p.A @ x))
            assert scipy.linalg.norm(Hx - rhs) == grad
            assert np.linalg.norm(H @ x - rhs) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=strategies.integers(0, 2**32 - 1), log_rho=strategies.floats(-2.0, 6.0))
    def test_moderately_conditioned_solves_meet_the_bound(self, seed, log_rho):
        # where H is definite and cond(H) <= 1e5, a change in the order in which
        # a product sums must never turn an answer into an error. A backward-stable
        # solve leaves a residual of about eps cond(H) ||rhs||, under the bound
        # 1e-10 (1 + ||rhs||) while cond(H) stays well below 1e-10 / eps = 4.5e5;
        # the bound does not scale with ||H|| ||x||, and draws of this recipe
        # raise SubproblemUnboundedError from cond(H) = 1.7e6 up
        rng = np.random.default_rng(seed)
        n, m1, m2 = int(rng.integers(1, 9)), int(rng.integers(0, 5)), int(rng.integers(0, 5))
        # Q of random rank, at least what A leaves for H to be definite
        rank = int(rng.integers(max(0, n - m1 - m2), n + 1))
        F = rng.standard_normal((n, rank)) * 10.0 ** rng.uniform(-2.0, 2.0, rank)
        Q = F @ F.T
        Q = 0.5 * (Q + Q.T)
        A = rng.standard_normal((m1 + m2, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (m1 + m2, 1))
        rho = 10.0**log_rho
        eig = np.linalg.eigvalsh(Q + rho * (A.T @ A))
        assume(eig[0] > 0.0 and eig[-1] <= 1e5 * eig[0])
        b, lam_hat, s = (rng.uniform(-2.0, 2.0, m1 + m2) for _ in range(3))
        p = ProblemData(
            Q=Q, c=rng.uniform(-2.0, 2.0, n), A1=A[:m1], b1=b[:m1], A2=A[m1:], b2=b[m1:]
        )
        x, grad = solve_subproblem(
            p, lam_hat[:m1], lam_hat[m1:], rho, HierarchicalShift(s[:m1], s[m1:])
        )
        rhs = A.T @ (rho * (b - s) - lam_hat) - p.c
        assert np.isfinite(x).all()
        assert grad <= 1e-10 * (1.0 + np.linalg.norm(rhs))

    def test_singular_but_consistent_takes_minimum_norm(self):
        p = make_problem(Q=np.diag([1.0, 0.0]), c=[-1.0, 0.0])
        x, grad = solve_subproblem(
            p, np.zeros(0), np.zeros(0), 1.0, HierarchicalShift.zero(0, 0)
        )
        assert np.allclose(x, [1.0, 0.0], atol=1e-10)
        assert grad <= 1e-10

    def test_unbounded_direction_raises(self):
        p = make_problem(Q=np.zeros((1, 1)), c=[1.0])
        with pytest.raises(SubproblemUnboundedError, match="unbounded"):
            solve_subproblem(p, np.zeros(0), np.zeros(0), 1.0, HierarchicalShift.zero(0, 0))


class TestRefinement:
    """A rung refines only when its first pass misses the bound, and the solve
    escalates only when the refined pass misses too."""

    @staticmethod
    def _solve_logged(caplog, p, l1, rho):
        """(x, grad, the solve's DEBUG lines), without the setup's line (see
        test_setup_names_its_route)."""
        with caplog.at_level(logging.DEBUG, logger="hieralm.alm"):
            x, grad = solve_subproblem(p, l1, np.zeros(0), rho, HierarchicalShift.zero(p.m1, 0))
        lines = [
            rec.message for rec in caplog.records
            if rec.name == "hieralm.alm" and not rec.message.startswith("subproblem setup: ")
        ]
        caplog.clear()
        return x, grad, lines

    def test_warm_solves_make_no_triangular_solve(self, trisolve_calls):
        grid, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        # the grid's Q = I is the base, applied as -c / d: no triangular solve at
        # all; a Q with entries off its diagonal makes one, the setup's solve with -c
        for p, setup_calls in ((grid, []), (_tridiagonal_q(grid), [(grid.n,)])):
            solve(p)
            assert trisolve_calls == setup_calls
            trisolve_calls.clear()
            for mode in Mode:
                assert len(solve(p, SolverConfig(mode=mode)).trace) >= 5
            assert trisolve_calls == []

    def test_refines_on_a_miss_and_meets_the_bound(self, trisolve_calls, caplog):
        # cond(Q + A'A) ~ 1e8 and a tiny rho: the first pass misses the bound by
        # about 300x, and one refinement pass meets it by a factor of about 1e5
        p = make_problem(Q=[[1.0, 0.5], [0.5, 1.0]], c=[1.0, 1.0], A1=[[1e4, 1.0]], b1=[1.0])
        x, grad, lines = self._solve_logged(caplog, p, np.ones(1), 1e-8)
        assert trisolve_calls == [(2,), (2,)]  # the setup's, then the refinement's
        rhs = -p.c - p.A1.T @ np.ones(1) + 1e-8 * (p.A1.T @ p.b1)
        assert grad <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        assert len(lines) == 1
        assert lines[0].startswith("subproblem refines: residual ")
        assert "> bound " in lines[0]
        # on a diagonal Q the eigenbasis pass misses by about 100x, and its
        # refinement, whose base solve is g / d, meets the bound by about 25x: the
        # solve stays on the eigenbasis, with no other rung and no n x n factor built
        trisolve_calls.clear()
        p = make_problem(
            Q=np.diag([1.0, 1e-3]), c=[1.6, -1.8], A1=[[-8e5, 7e5]], b1=[-0.4]
        )
        x, grad, lines = self._solve_logged(caplog, p, np.array([1.6]), 0.1)
        rhs = -p.c + p.A1.T @ (0.1 * p.b1 - 1.6)
        assert grad <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        assert [line.split(":")[0] for line in lines] == ["subproblem refines"]
        assert trisolve_calls == []
        assert hieralm.alm._SETUP[p].rungs[1:] == [None, None]

    def test_setup_names_its_route(self, caplog):
        # one line per instance, on its first solve, with the figures of the
        # certification where there is one
        grid, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        # a singular value whose square sits 3 bands above zero: kept, but within
        # ten bands of K's round-off, so the spectrum does not certify
        t = np.sqrt(6.0 * np.finfo(float).eps)
        near = make_problem(Q=np.eye(2), c=[1.0, 1.0], A1=[[1.0, 0.0]], b1=[1.0],
                            A2=[[0.0, t]], b2=[1.0])
        expected = (
            (grid, f"subproblem setup: eigenbasis route, r = {grid.m - 1}; Gram candidate k = 1,"),
            (near, "subproblem setup: base-D SVD route; Gram candidate k = 0, "),
            (_tridiagonal_q(grid), "subproblem setup: Q + A'A route"),
        )
        for p, start in expected:
            with caplog.at_level(logging.DEBUG, logger="hieralm.alm"):
                solve(p, SolverConfig(max_iter=3))
                solve(p, SolverConfig(max_iter=3))
            lines = [rec.message for rec in caplog.records if "setup" in rec.message]
            caplog.clear()
            assert len(lines) == 1 and lines[0].startswith(start), lines
        assert hieralm.alm._SETUP[grid].rungs[1:] == [None, None]
        assert hieralm.alm._SETUP[near].rungs[0].U is None
        assert hieralm.alm._SETUP[near].rungs[1].V is not None

    def test_debug_lines_name_the_fallback(self, caplog):
        # refinement still misses, so lstsq on the formed H takes over
        Q = [[1.0, 0.5], [0.5, 1.0]]
        p = make_problem(Q=Q, c=[1.0, 1.0], A1=[[1e6, 1.0]], b1=[1.0])
        _, grad, lines = self._solve_logged(caplog, p, np.zeros(1), 1e-12)
        assert grad <= 1e-10 * (1.0 + np.sqrt(2.0))
        assert [line.split(":")[0] for line in lines] == [
            "subproblem refines",
            "subproblem escalates from Q + A'A to lstsq",
        ]
        assert lines[1].startswith("subproblem escalates from Q + A'A to lstsq: refined residual ")
        # on a diagonal Q both eigenbasis passes miss, so the solve escalates to
        # base D; both of its passes miss too, so it escalates to Q + A'A, whose
        # first pass meets the bound
        p = make_problem(Q=np.diag([1.0, 1e-4]), c=[1.0, 1.0], A1=[[1e6, 1.0]], b1=[1.0])
        _, grad, lines = self._solve_logged(caplog, p, np.zeros(1), 1e-2)
        assert grad <= 1e-10 * (1.0 + np.linalg.norm(-p.c + 1e-2 * (p.A1.T @ p.b1)))
        assert [line.split(":")[0] for line in lines] == [
            "subproblem refines",
            "subproblem escalates from the eigenbasis to base D",
            "subproblem refines",
            "subproblem escalates from base D to Q + A'A",
        ]
        assert lines[1].startswith(
            "subproblem escalates from the eigenbasis to base D: refined residual "
        )
        assert lines[3].startswith(
            "subproblem escalates from base D to Q + A'A: refined residual "
        )
        # Q + A'A singular: no range-space factors, so straight to lstsq
        p = make_problem(Q=np.diag([1.0, 0.0]), c=[-1.0, 0.0])
        assert self._solve_logged(caplog, p, np.zeros(0), 1.0)[2] == [
            "subproblem escalates from Q + A'A to lstsq: Q + A'A is not definite"
        ]
        # a well-conditioned solve logs nothing, on either base
        for Q in (np.eye(2), [[1.0, 0.5], [0.5, 1.0]]):
            p = make_problem(Q=Q, c=[1.0, 1.0], A1=[[1.0, 1.0]], b1=[1.0])
            assert self._solve_logged(caplog, p, np.ones(1), 1.0)[2] == []

    def test_shared_products_match_public_functions(self):
        rng = np.random.default_rng(59)
        # random Q is dense, except that a 1 x 1 Q is diagonal
        problems = [
            random_problem(rng, m1=m1, m2=m2)
            for m1, m2 in ((0, 3), (3, 0), (0, 0), (2, 2), (None, None), (None, None))
        ]
        problems.append(random_problem(rng, m1=0, definite=False))
        # a diagonal Q but for one symmetric off-diagonal pair is applied as a full product
        one_pair = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        one_pair[1, 3] = one_pair[3, 1] = 1e-3
        problems.append(_with_q(problems[0], one_pair))
        diagonal = _diagonal_q_problems()
        sparse = _sparse_a_problems()
        for q in problems + diagonal + sparse:
            for mode in Mode:
                for st in run_with_states(q, SolverConfig(mode=mode, max_iter=25)):
                    E = kkt_residual(q, st.x, st.lambda1, st.lambda2, st.shift)
                    assert st.record.E == E
                    r1, r2 = constraint_residuals(q, st.x, st.shift)
                    assert st.s1.tobytes() == r1.tobytes()
                    assert st.s2.tobytes() == r2.tobytes()
        # the instance, and so every product above, treats Q as d * x exactly where Q is diagonal
        for q in problems + diagonal:
            d = q.q_diagonal
            assert (d is not None) == (q in diagonal or q.n == 1)
            if d is not None:
                assert d.tobytes() == np.diag(q.Q).tobytes()
                assert d.flags.c_contiguous and not d.flags.writeable
        # and applies A through CSR copies exactly where A is sparse; the
        # grid and the empty-A instances are sparse too
        for q in problems + diagonal + sparse:
            expected = q in sparse or q is diagonal[0] or q.m == 0
            assert (q.a_csr is not None) == expected


class TestSparseA:
    """A sparse A is applied through read-only CSR copies that the instance keeps."""

    def test_decision_follows_the_coo_rule(self):
        # m = 2, n = 8: at most _COO_DENSITY * m * n = 4 nonzeros is sparse,
        # and a -0.0 cell counts as zero
        limit = int(hieralm.problem._COO_DENSITY * 2 * 8)
        A = np.zeros((2, 8))
        A[0, :limit] = 1.0
        A[1, -1] = -0.0

        def instance():
            return make_problem(
                Q=np.eye(8), c=np.zeros(8), A1=A[:1], b1=[0.0], A2=A[1:], b2=[0.0]
            )

        assert instance().a_csr is not None
        A[1, -2] = 1.0
        assert instance().a_csr is None

    def test_copies_are_read_only_and_dense_a_takes_none(self):
        for p in _sparse_a_problems():
            copies = p.a_csr
            assert p.a_csr is copies
            assert len(copies) == 2
            for csr, dense in zip(copies, (p.A, p.A.T)):
                assert csr.format == "csr"
                assert csr.shape == dense.shape
                assert np.array_equal(csr.toarray(), dense)
                assert not any(a.flags.writeable for a in (csr.data, csr.indices, csr.indptr))
            assert hieralm.problem._a_operators(p) is copies
        with pytest.raises(ValueError):
            copies[0].data[0] = 1.0
        with pytest.raises(ValueError):
            copies[1].data[0] = 1.0
        dense = random_problem(np.random.default_rng(63), n=4, m1=2, m2=2)
        solve(dense)
        assert dense.a_csr is None
        A, At = hieralm.problem._a_operators(dense)
        assert A is dense.A and At.base is dense.A

    def test_sparse_path_matches_dense_path(self):
        # infeasible instances (m > n): standard mode diverges on all three, control
        # mode converges on the last two; the CSR products add in another order
        # than dgemv, so x moves by round-off
        rng = np.random.default_rng(62)
        for _ in range(3):
            p = _with_sparse_a(rng, 30, 20, 16)
            q = _forced_dense(p)
            assert p.a_csr is not None and q.a_csr is None
            for mode in Mode:
                cfg = SolverConfig(mode=mode)
                a, b = solve(p, cfg), solve(q, cfg)
                assert a.status is b.status
                assert [r.rho for r in a.trace] == [r.rho for r in b.trace]
                scale = np.abs(b.x_final).max()
                assert np.abs(a.x_final - b.x_final).max() <= 1e-12 * scale

    def test_setup_gram_from_csr_matches_dense_on_a_grid(self):
        # every entry of a grid's A is 0 or +-1, so every sum in A'A is exact; the
        # grid's Q = I would be the base, so Q gets entries off its diagonal
        p = _tridiagonal_q(build_instance(GridSpec(4, 4, kappa=0.5))[0])
        q = _forced_dense(p)
        sparse, dense = hieralm.alm._setup(p).rungs[0], hieralm.alm._setup(q).rungs[0]
        assert np.array_equal(sparse.factor[0], dense.factor[0])
        assert np.array_equal(sparse.V, dense.V)


class TestIterateAndSolve:
    def test_unconstrained_converges_immediately(self):
        p = make_problem(Q=np.diag([2.0, 4.0]), c=[2.0, -4.0])
        report = solve(p)
        assert report.status is Status.CONVERGED
        assert len(report.trace) == 1
        assert np.allclose(report.x_final, [-1.0, 1.0], atol=1e-10)
        assert report.objective_final == pytest.approx(-3.0, abs=1e-10)

    def test_feasible_solution_matches_kkt_system(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = random_problem(rng, feasible=True, allow_empty=False)
            report = solve(p)
            assert report.status is Status.CONVERGED
            x_ref, _, _ = kkt_minimizer(p)
            assert np.abs(report.x_final - x_ref).max() <= 1e-4 * (
                1.0 + np.abs(x_ref).max()
            )

    def test_infeasible_solution_matches_shifted_kkt_system(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            p = random_problem(rng, allow_empty=False)
            oracle = hierarchical_shift(p)
            report = solve(p)
            assert report.status is Status.CONVERGED
            x_ref, _, _ = kkt_minimizer(p, oracle.shift.s1, oracle.shift.s2)
            f_ref = objective_value(p, x_ref)
            assert abs(report.objective_final - f_ref) <= 1e-4 * (1.0 + abs(f_ref))

    def test_final_shift_is_zero_only_in_standard_mode(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        controlled = solve(p)
        standard = solve(p, SolverConfig(mode=Mode.STANDARD_AL, max_iter=5, rho_cap=1e30))
        assert np.array_equal(standard.shift_final.s1, np.zeros(1))
        assert np.array_equal(standard.shift_final.s2, np.zeros(1))
        assert controlled.shift_final.s2[0] != 0.0

    def test_max_iter_status(self):
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        report = solve(p, SolverConfig(max_iter=2))
        assert report.status is Status.MAX_ITER
        assert len(report.trace) == 2

    def test_divergence_status_on_standard_mode(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        report = solve(p, SolverConfig(mode=Mode.STANDARD_AL, rho_cap=1e6))
        assert report.status is Status.DIVERGENCE_SUSPECTED
        assert report.trace[-1].rho > 1e6

    @pytest.mark.parametrize("kwargs", [{"gamma": 1e200}, {"rho0": 1e300}])
    def test_penalty_overflow_ends_in_divergence(self, kwargs):
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        cfg = SolverConfig(mode=Mode.STANDARD_AL, rho_cap=np.inf, **kwargs)
        report = solve(p, cfg)
        assert report.status is Status.DIVERGENCE_SUSPECTED
        assert report.trace[-1].rho == np.inf
        assert all(np.isfinite(rec.rho) for rec in report.trace[:-1])
        assert np.isfinite(report.x_final).all()
        assert all(np.isfinite(rec.subproblem_grad_norm) for rec in report.trace)
        # E and the multiplier norms are nrm2 sums of rho-sized but finite vectors
        for rec in report.trace:
            assert np.isfinite([rec.E, rec.norm_lambda1, rec.norm_lambda2]).all()
        gen = iterate(p, cfg)
        states = [next(gen) for _ in report.trace]
        # every solve meets a finite acceptance bound, so the residual check is not vacuous
        l1, l2 = np.zeros(p.m1), np.zeros(p.m2)
        for st in states:
            rhs = (
                -p.c
                - p.A1.T @ l1
                - p.A2.T @ l2
                + st.rho_used * (p.A1.T @ (p.b1 - st.shift.s1) + p.A2.T @ (p.b2 - st.shift.s2))
            )
            bound = 1e-10 * (1.0 + scipy.linalg.norm(rhs))
            assert np.isfinite(bound)
            assert st.record.subproblem_grad_norm <= bound
            l1, l2 = st.lambda1_hat, st.lambda2_hat
        # a huge penalty leaves the least-squares residual of the stacked constraints
        floor = float(np.linalg.norm(p.left_null.T @ p.b))
        for st in states:
            if st.rho_used >= 1e100:
                s = np.concatenate((st.s1, st.s2))
                assert np.linalg.norm(s) <= floor * (1.0 + 1e-6)
        # the loop refuses to solve with the overflowed penalty
        k = len(report.trace) + 1
        with pytest.raises(OverflowError, match=f"iteration {k}: penalty rho overflowed"):
            next(gen)

    @pytest.mark.parametrize("kwargs", [{"gamma": 1e200}, {"rho0": 1e300}])
    def test_replay_stops_where_solve_does(self, kwargs):
        # run_with_states applies solve's stopping rule, so it stops at the
        # overflowed penalty too and never asks iterate for the next state
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        cfg = SolverConfig(mode=Mode.STANDARD_AL, rho_cap=np.inf, **kwargs)
        states = run_with_states(p, cfg)
        assert [st.record for st in states] == list(solve(p, cfg).trace)

    @staticmethod
    def _entry_points(p, cfg):
        # both must reject bad input, iterate on its first next()
        return (lambda: solve(p, cfg), lambda: next(iterate(p, cfg)))

    def test_validation_gate(self):
        A1 = [[1.0, 1.0]]
        problems = [
            make_problem(Q=[[1.0, 2.0], [0.0, 1.0]], c=[0.0, 0.0]),
            make_problem(Q=np.diag([1.0, -1.0]), c=[0.0, 0.0], A1=A1, b1=[1.0]),
        ]
        for p in problems:
            for run in self._entry_points(p, SolverConfig()):
                with pytest.raises(ValueError, match="invalid problem"):
                    run()
        # malformed arrays never reach the loop: the constructor rejects them
        with pytest.raises(ValueError, match="c has non-finite entries"):
            make_problem(Q=np.eye(2), c=[np.nan, 0.0], A1=A1, b1=[1.0])

    def test_box_shape_gate(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 0.0]], b1=[1.0])
        cfg = SolverConfig(box1_lo=np.array([-1.0, -1.0]), box1_hi=1.0)
        for run in self._entry_points(p, cfg):
            with pytest.raises(ValueError, match="box1_lo"):
                run()
        # a length-1 box against m1 = 3 would broadcast silently
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(3, 2), b1=np.ones(3))
        cfg = SolverConfig(box1_lo=np.array([-1.0]), box1_hi=np.array([1.0]))
        for run in self._entry_points(p, cfg):
            with pytest.raises(ValueError, match="box1_lo must be a scalar or length-3"):
                run()

    def test_vector_boxes_accepted_and_saturate(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        cfg = SolverConfig(
            box1_lo=np.array([-0.01]),
            box1_hi=np.array([0.01]),
            box2_lo=-0.01,
            box2_hi=0.01,
            max_iter=6,
        )
        states = run_with_states(p, cfg)
        clipped = any(
            not np.array_equal(st.lambda1, st.lambda1_hat)
            or not np.array_equal(st.lambda2, st.lambda2_hat)
            for st in states
        )
        assert clipped

    def test_one_factorization_per_instance(self, factor_calls, svd_calls, eigh_calls):
        # the grid's Q = I gives a setup of one m x m eigh, with no svd and no
        # factor; a Q with entries off its diagonal is factored once, and given
        # one n x m svd
        grid, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        n, m = grid.n, grid.m
        for p, factored, svds, eighs in (
            (grid, [], [], [(m, m)]),
            (_tridiagonal_q(grid), [(n, n)], [(n, m)], []),
        ):
            factor_calls.clear()
            svd_calls.clear()
            eigh_calls.clear()
            runs = [run_with_states(p, SolverConfig(mode=mode)) for mode in Mode]
            report = solve(p)
            # the factors must serve several penalties
            assert len({st.rho_used for st in runs[0]}) >= 3
            assert factor_calls == factored
            assert svd_calls == svds
            assert eigh_calls == eighs
            assert report.trace == tuple(st.record for st in runs[0])
            # the cached factors give the bits that factors built for a fresh copy give
            fresh = ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
            for states in runs:
                l1, l2 = np.zeros(p.m1), np.zeros(p.m2)
                for st in states:
                    x, grad = solve_subproblem(fresh, l1, l2, st.rho_used, st.shift)
                    assert x.tobytes() == st.x.tobytes()
                    assert grad == st.record.subproblem_grad_norm
                    l1, l2 = st.lambda1_hat, st.lambda2_hat
            assert factor_calls == factored * 2
            assert svd_calls == svds * 2
            assert eigh_calls == eighs * 2

    def test_equal_instances_do_not_share_factors(self, factor_calls, svd_calls, eigh_calls):
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        q = ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
        a, b = solve(p), solve(q)
        assert eigh_calls == [(p.m, p.m)] * 2  # one eigenbasis setup each
        assert svd_calls == factor_calls == []
        assert hieralm.alm._SETUP[p] is not hieralm.alm._SETUP[q]
        assert a.trace == b.trace

    def test_cache_does_not_keep_instance_alive(self):
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        solve(p)
        ref, entry = weakref.ref(p), weakref.ref(hieralm.alm._SETUP[p])
        del p
        gc.collect()
        assert ref() is None
        assert entry() is None  # the factors go with the instance

    def test_cache_does_not_keep_instance_alive_after_an_escalation(self):
        # this solve climbs to Q + A'A (see test_debug_lines_name_the_fallback),
        # so the rungs built on first need must not hold the instance either
        p = make_problem(Q=np.diag([1.0, 1e-4]), c=[1.0, 1.0], A1=[[1e6, 1.0]], b1=[1.0])
        solve_subproblem(p, np.zeros(1), np.zeros(0), 1e-2, HierarchicalShift.zero(1, 0))
        ladder = hieralm.alm._SETUP[p]
        assert len(ladder.rungs) == 3 and None not in ladder.rungs
        ref, entry = weakref.ref(p), weakref.ref(ladder)
        del p, ladder
        gc.collect()
        assert ref() is None
        assert entry() is None

    def test_singular_q_warns_on_every_solve(self, caplog, factor_calls):
        # Q + A'A is definite here, so the singular Q still takes the range-space path
        p = make_problem(Q=np.diag([1.0, 0.0]), c=[-1.0, 0.0], A1=[[0.0, 1.0]], b1=[2.0])
        with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
            for _ in range(2):
                assert solve(p).status is Status.CONVERGED
        warnings = [rec.message for rec in caplog.records if rec.name == "hieralm.problem"]
        assert len(warnings) == 2
        assert warnings[0] == warnings[1]
        assert warnings[0].startswith("Q is singular")
        assert len(factor_calls) == 1

    def test_singular_system_keeps_least_squares_path(self, factor_calls):
        p = make_problem(Q=np.diag([1.0, 0.0]), c=[-1.0, 0.0])
        gen = iterate(p, SolverConfig())
        for _ in range(3):
            st = next(gen)
            assert np.allclose(st.x, [1.0, 0.0], atol=1e-10)
            assert st.record.subproblem_grad_norm <= 1e-10
        # the failed factorization is remembered, not retried
        assert len(factor_calls) == 1

    @pytest.mark.xfail(
        strict=True,
        raises=SubproblemUnboundedError,
        reason="d = 1e-8 I meets the definiteness margin, so every H(rho) is definite, but "
        "the absolute acceptance bound calls it unbounded (ROADMAP item 7)",
    )
    @pytest.mark.parametrize("mode", list(Mode))
    def test_definite_grid_is_not_called_unbounded(self, mode):
        p, _ = build_instance(GridSpec(4, 4, kappa=0.5, q_scale=1e-8, c_scale=1e8))
        solve(p, SolverConfig(mode=mode))

    def test_unbounded_subproblem_carries_iteration(self):
        p = make_problem(
            Q=np.zeros((2, 2)), c=[0.0, 1.0], A1=[[1.0, 0.0]], b1=[0.0]
        )
        with pytest.raises(SubproblemUnboundedError, match="iteration 1") as info:
            solve(p)
        assert info.value.iteration == 1

    def test_converged_trace_ends_under_tolerance(self):
        rng = np.random.default_rng(55)
        p = random_problem(rng, feasible=True, allow_empty=False)
        cfg = SolverConfig(kkt_tol=1e-8)
        states = run_with_states(p, cfg)
        assert states[-1].record.E <= 1e-8
        assert all(st.record.E > 1e-8 for st in states[:-1])

    def test_iterate_is_resumable_past_convergence(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        gen = iterate(p, SolverConfig())
        states = [next(gen) for _ in range(30)]
        ks = [st.record.k for st in states]
        assert ks == list(range(1, 31))
        assert_exact_bookkeeping(SolverConfig(), states)

    def test_report_is_consistent(self):
        rng = np.random.default_rng(56)
        for p in [random_problem(rng, allow_empty=False)] + _diagonal_q_problems():
            for mode in Mode:
                report = solve(p, SolverConfig(mode=mode))
                assert report.objective_final == objective_value(p, report.x_final)
                assert report.trace[-1].k == len(report.trace)
                assert report.shift_final.s1.shape == (p.m1,)

    def test_modes_agree_on_feasible_instance(self):
        rng = np.random.default_rng(57)
        p = random_problem(rng, feasible=True, allow_empty=False)
        a = run_with_states(p, SolverConfig())
        b = run_with_states(p, SolverConfig(mode=Mode.STANDARD_AL))
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert abs(sa.record.E - sb.record.E) <= 1e-8
            assert sa.record.rho == sb.record.rho
