"""Diagonal Q: the eigenbasis rung, the ladder above it, the O(n) check of Q.

``hieralm.alm._Ladder`` gives the rungs of a definite diagonal Q and the rule
that climbs them. Here ladders without the eigenbasis rung (``_reference``)
are built directly on the same instance and run for reference.
"""

from __future__ import annotations

import dataclasses
import logging
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import hieralm.alm
import hieralm.problem
from conftest import make_problem, random_problem
from hieralm import (
    GridSpec,
    HierarchicalShift,
    Mode,
    ProblemData,
    SolverConfig,
    Status,
    SubproblemUnboundedError,
    build_instance,
    iterate,
    solve,
    solve_subproblem,
    validate_problem,
)
from test_reference import _mp


def _full_q(p: ProblemData) -> ProblemData:
    """The same arrays in a new instance that treats Q as a full matrix throughout.

    Its check of Q takes the Cholesky test, its setup factors Q + A'A, and its
    Q products are Q @ x, which for a diagonal Q have the bits of d * x.
    """
    q = ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
    vars(q)["q_diagonal"] = None  # fills the cached_property before its first read
    return q


def _draw(rng: np.random.Generator, log_d: tuple, log_row: tuple, scalar: bool):
    """A diagonal-Q subproblem, n <= 8: (p, stacked lam_hat, stacked shift).

    d is 10^U(log_d) per entry, or one such draw times I when ``scalar``; each
    constraint row is standard normal scaled by 10^U(log_row).
    """
    n, m1, m2 = int(rng.integers(1, 9)), int(rng.integers(0, 5)), int(rng.integers(0, 5))
    d = 10.0 ** rng.uniform(*log_d, 1 if scalar else n) * np.ones(n)
    A = rng.standard_normal((m1 + m2, n)) * 10.0 ** rng.uniform(*log_row, (m1 + m2, 1))
    b, lam_hat, s = (rng.uniform(-2.0, 2.0, m1 + m2) for _ in range(3))
    p = ProblemData(
        Q=np.diag(d), c=rng.uniform(-2.0, 2.0, n), A1=A[:m1], b1=b[:m1], A2=A[m1:], b2=b[m1:]
    )
    return p, lam_hat, s


def _reference(p: ProblemData, d: np.ndarray | None = None) -> hieralm.alm._Ladder:
    """The ladder of base D then Q + A'A for a diagonal ``d``, or of Q + A'A alone."""
    rungs = (hieralm.alm._RangeSpace,)
    if d is not None:
        rungs = (partial(hieralm.alm._RangeSpace, d=d), *rungs)
    return hieralm.alm._Ladder(p, None, rungs)


def _answers(system, p, lam_hat, rho, s) -> bool:
    try:
        system.solve(p, lam_hat, rho, s)
    except SubproblemUnboundedError:
        return False
    return True


class TestReference:
    """Diagonal-Q solves against a 50-digit solve of the same system."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_rho=st.floats(-2.0, 14.0),
        scalar=st.booleans(),
    )
    def test_answers_meet_the_bound_at_50_digits(self, seed, log_rho, scalar):
        # d spans 1e+-8 and the rows 1e+-6; an instance whose d spreads too wide for
        # validate_problem's margin takes the dense setup, the others base D.
        # The solver checks its bound in float64, so the 50-digit residual may
        # exceed the bound by that check's own rounding error, the componentwise
        # (n + m + 4) eps (|Q||x| + rho |A'|(|A||x|) + |A'||v| + |c|); on this
        # recipe the Q + A'A rung needs that slack as often as base D does
        p, lam_hat, s = _draw(np.random.default_rng(seed), (-8.0, 8.0), (-6.0, 6.0), scalar)
        rho = 10.0**log_rho
        with mpmath.workdps(50):
            H, rhs = _mp(p.Q), -_mp(p.c)
            if p.m:
                At, r = _mp(p.A.T), mpmath.mpf(rho)
                H += r * (At * _mp(p.A))
                rhs += At * (r * (_mp(p.b) - _mp(s)) - _mp(lam_hat))
            try:
                x, _ = solve_subproblem(
                    p, lam_hat[: p.m1], lam_hat[p.m1 :], rho, HierarchicalShift(s[: p.m1], s[p.m1 :])
                )
            except SubproblemUnboundedError:
                # only where the Q + A'A rung and lstsq raise on the same instance too
                assert not _answers(_reference(p), p, lam_hat, rho, s)
                return
            residual = mpmath.norm(H * _mp(x) - rhs)
            bound = 1e-10 * (1 + mpmath.norm(rhs))
            absA, v = np.abs(p.A), np.abs(rho * (p.b - s)) + np.abs(lam_hat)
            rounding = (p.n + p.m + 4) * np.finfo(float).eps * scipy.linalg.norm(
                np.abs(np.diag(p.Q) * x) + rho * (absA.T @ (absA @ np.abs(x))) + absA.T @ v
                + np.abs(p.c)
            )
            assert residual <= bound + rounding, f"residual {residual} > {bound} + {rounding}"
            if np.linalg.cond(np.array(H.tolist(), dtype=float)) <= 1e6:
                x_ref = mpmath.lu_solve(H, rhs)
                err = mpmath.norm(_mp(x) - x_ref) / mpmath.norm(x_ref)
                assert err <= 1e-8, f"solution off by {err} relative"

    def test_recipe_reaches_base_d_in_both_regimes(self):
        # the battery's recipe must hold some diagonal-Q answers to the 1e-8
        # agreement, leave others to the bound alone, and send some instances to
        # the dense setup
        conds, bases = [], set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            p, _, _ = _draw(rng, (-8.0, 8.0), (-6.0, 6.0), bool(seed % 2))
            base_d = hieralm.alm._setup(p).rungs[0].d is not None
            bases.add(base_d)
            if base_d:
                rho = 10.0 ** rng.uniform(-2.0, 14.0)
                conds.append(np.linalg.cond(p.Q + rho * (p.A.T @ p.A)))
        assert bases == {True, False}
        assert min(conds) <= 1e6 < max(conds)


class TestVerdicts:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_solve_raises_where_the_dense_chain_answers(self, seed):
        # ill-conditioned on purpose: 2,000 solves per seed, half with d per entry and
        # half with q I, where cond(H) runs past 1e16. The reference is the
        # ladder of base D, then Q + A'A, then lstsq
        rng = np.random.default_rng(seed)
        answered = chain_answered = certified = escalated = 0
        for i in range(2000):
            p, lam_hat, s = _draw(rng, (-4.0, 4.0), (-6.0, 6.0), scalar=bool(i % 2))
            rho = 10.0 ** rng.uniform(-2.0, 10.0)
            system = hieralm.alm._setup(p)
            eigenbasis = system.rungs[0]
            assert eigenbasis.d is not None  # d within 1e+-4 always meets the margin
            ours = _answers(system, p, lam_hat, rho, s)
            chain = _answers(_reference(p, eigenbasis.d), p, lam_hat, rho, s)
            assert ours or not chain, f"draw {i}: the base-D ladder answers, the eigenbasis raises"
            answered += ours
            chain_answered += chain
            certified += eigenbasis.U is not None
            escalated += eigenbasis.U is not None and system.rungs[1] is not None
        # both ways up to base D are exercised: a spectrum that does not certify,
        # and a certified eigenbasis whose refined pass misses
        assert 0 < certified < 2000
        assert 0 < escalated < certified
        assert answered >= chain_answered


class TestThroughSolve:
    @pytest.mark.parametrize("m1, m2", [(0, 3), (3, 0), (0, 0)])
    def test_empty_blocks_match_the_dense_path(self, m1, m2, factor_calls):
        rng = np.random.default_rng(70 + 3 * m1 + m2)
        base = random_problem(rng, n=5, m1=m1, m2=m2)
        p = ProblemData(
            Q=np.diag(rng.uniform(0.5, 2.0, 5)), c=base.c, A1=base.A1, b1=base.b1,
            A2=base.A2, b2=base.b2,
        )
        q = _full_q(p)
        for mode in Mode:
            cfg = SolverConfig(mode=mode, max_iter=25)
            a, b = solve(p, cfg), solve(q, cfg)
            assert a.status is b.status
            assert [r.rho for r in a.trace] == [r.rho for r in b.trace]
            scale = max(np.abs(b.x_final).max(), 1.0)
            assert np.abs(a.x_final - b.x_final).max() <= 1e-12 * scale
        assert hieralm.alm._SETUP[p].rungs[0].d is not None
        assert factor_calls == [(5, 5)]  # the forced-dense copy's alone

    def test_singular_diagonal_takes_the_dense_path(self, caplog, factor_calls):
        # Q + A'A is definite, so the dense setup solves it, with today's warning
        p = make_problem(Q=np.diag([1.0, 0.0, 2.0]), c=[-1.0, 0.0, 1.0], A1=[[0.0, 1.0, 0.0]], b1=[2.0])
        with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
            assert solve(p).status is Status.CONVERGED
        warnings = [rec.message for rec in caplog.records if rec.name == "hieralm.problem"]
        assert warnings == ["Q is singular (min eigenvalue 0.000e+00)"]
        assert hieralm.alm._SETUP[p].rungs[0].d is None
        assert factor_calls == [(3, 3)]

    @pytest.mark.parametrize(
        "t, base_d, warns",
        [
            (np.nextafter(2e-10, np.inf), True, False),
            (2e-10, False, False),
            (1.5e-10, False, False),
            (np.nextafter(1e-10, np.inf), False, False),
            (1e-10, False, True),
        ],
    )
    def test_the_band_below_the_margin_takes_the_dense_path(
        self, caplog, factor_calls, t, base_d, warns
    ):
        # scale = 1 + max|d| = 2; min(d) = t scale. In (1e-10, 2e-10] scale the
        # Cholesky test of Q fails but nothing is reported, and the dense setup
        # runs. The row leaves the small entry alone, so base D meets the bound
        d_min = t * 2.0
        p = make_problem(Q=np.diag([1.0, d_min]), c=[1.0, -1e-9], A1=[[1.0, 0.0]], b1=[1.0])
        with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
            report = solve(p)
        assert report.status is Status.CONVERGED
        assert bool(caplog.records) is warns
        assert (hieralm.alm._SETUP[p].rungs[0].d is not None) is base_d
        assert factor_calls == ([] if base_d else [(2, 2)])

    def test_penalty_near_the_largest_double(self):
        # K = A D^-1 A' has an eigenvalue of about 3e4 here, so rho lam is far
        # beyond the double range; the pass divides through by rho and overflows
        # nowhere
        p = make_problem(
            Q=1e-4 * np.eye(3), c=[1.0, -1.0, 0.5], A1=[[1.0, 1.0, 0.0]], b1=[0.5],
            A2=[[0.0, 1.0, 1.0]], b2=[-0.25],
        )
        system = hieralm.alm._setup(p)
        eigenbasis = system.rungs[0]
        assert eigenbasis.U is not None and eigenbasis.lam.max() > 1e4
        rho = np.finfo(float).max / 8
        lam_hat, s = np.zeros(2), np.zeros(2)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x, grad, _ = system.solve(p, lam_hat, rho, s)
        rhs = p.A.T @ (rho * p.b) - p.c
        assert np.isfinite(x).all()
        assert grad <= 1e-10 * (1.0 + scipy.linalg.norm(rhs))
        assert system.rungs[1:] == [None, None]
        # at this penalty x is the minimizer under A x = b, to round-off
        kkt = np.block([[p.Q, p.A.T], [p.A, np.zeros((2, 2))]])
        x_ref = np.linalg.solve(kkt, np.concatenate((-p.c, p.b)))[:3]
        assert np.abs(x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()

    def test_penalty_overflow_raises_no_floating_point_error(self):
        # q = 1e-3 puts K's eigenvalues in the thousands, so rho lam overflows long
        # before rho
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5, q_scale=1e-3))
        cfg = SolverConfig(mode=Mode.STANDARD_AL, rho_cap=np.inf, rho0=1e300)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            states = []
            gen = iterate(p, cfg)
            while not states or np.isfinite(states[-1].rho):
                states.append(next(gen))
        ladder = hieralm.alm._SETUP[p]
        setup = ladder.rungs[0]
        assert setup.U is not None and setup.lam.max() > 1e3 and ladder.rungs[1:] == [None, None]
        assert states[-1].rho_used > 1e307
        for st_ in states:
            assert np.isfinite(st_.x).all()
            assert np.isfinite(st_.record.subproblem_grad_norm)
            assert np.isfinite([st_.record.E, st_.record.norm_lambda1]).all()


class TestCheckOfQ:
    """validate_problem's O(n) verdict on a diagonal Q against its Cholesky test."""

    @staticmethod
    def _verdict(p: ProblemData):
        """(outcome, return value or message, logged lines) of validate_problem(p)."""
        lines = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("hieralm.problem")
        logger.addHandler(handler)
        try:
            result = ("ok", validate_problem(p))
        except ValueError as exc:
            result = ("error", str(exc))
        finally:
            logger.removeHandler(handler)
        return (*result, lines)

    def _assert_same_verdict(self, d) -> str:
        p = make_problem(Q=np.diag(d), c=np.zeros(len(d)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hieralm.problem, "cholesky", lambda *a, **k: pytest.fail("Q was factored"))
            ours = self._verdict(p)
        assert ours == self._verdict(_full_q(p))
        return ours[0] if ours[0] == "error" or ours[1] is None else "warning"

    def test_thresholds_match_bit_for_bit(self):
        # scale = 1 + max|d| = 2; each threshold, and the doubles either side of it
        outcomes = []
        for t in (2e-10, 1e-10, -1e-8):
            edge = t * 2.0
            for d_min in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                outcomes.append(self._assert_same_verdict([1.0, d_min, 0.5]))
        assert outcomes == ["ok"] * 3 + ["warning"] * 2 + ["ok", "error"] + ["warning"] * 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        d=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(-1e120, 1e120, allow_nan=False, allow_subnormal=True),
                st.floats(-1e-6, 1e-6, allow_nan=False, allow_subnormal=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_diagonals_match_bit_for_bit(self, d):
        self._assert_same_verdict(d)


class TestGrids:
    def test_no_factor_and_no_n_by_n_array(self, factor_calls, svd_calls, monkeypatch):
        p, _ = build_instance(GridSpec(5, 5, kappa=0.5))
        monkeypatch.setattr(
            hieralm.problem, "cholesky", lambda *a, **k: pytest.fail("Q was factored")
        )
        for mode in Mode:
            solve(p, SolverConfig(mode=mode))
        assert factor_calls == svd_calls == []
        ladder = hieralm.alm._SETUP[p]
        assert ladder.rungs[1:] == [None, None]  # no escalation, so no range-space rung
        setup = ladder.rungs[0]
        # the grid is connected: rank(A) = m - 1, and U is all that grows with m^2
        assert setup.U.shape == (p.m, p.m - 1) and setup.lam.shape == (p.m - 1,)
        arrays = [v for v in vars(setup).values() if isinstance(v, np.ndarray)]
        assert p.n < p.m**2
        assert max(a.size for a in arrays) == setup.U.size <= p.m**2


    @pytest.mark.parametrize("size", [10, 20])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_eigenbasis_matches_the_range_space_chain(self, size, kappa):
        # the reference is the ladder from base D, set up directly on an equal
        # instance: one thin SVD of A'/sqrt(d) and its n x m factor
        for mode in Mode:
            p, _ = build_instance(GridSpec(size, size, kappa=kappa))
            q, _ = build_instance(GridSpec(size, size, kappa=kappa))
            hieralm.alm._SETUP[q] = _reference(q, q.q_diagonal)
            cfg = SolverConfig(mode=mode)
            a, b = solve(p, cfg), solve(q, cfg)
            assert hieralm.alm._SETUP[p].rungs[1:] == [None, None]
            assert a.status is b.status
            assert [r.rho for r in a.trace] == [r.rho for r in b.trace]
            err = np.abs(a.x_final - b.x_final).max() / np.abs(b.x_final).max()
            assert err <= 1e-13, err
            for name in ("norm_lambda1", "norm_lambda2"):
                ours = np.array([getattr(r, name) for r in a.trace])
                ref = np.array([getattr(r, name) for r in b.trace])
                assert (np.abs(ours - ref) <= 5e-12 * ref).all(), name


def _outcome(p: ProblemData, cfg: SolverConfig):
    """A solve's status, trace and x_final as bytes, or the error it raised."""
    try:
        report = solve(p, cfg)
    except SubproblemUnboundedError as exc:
        return "raised", str(exc)
    trace = np.array([dataclasses.astuple(rec) for rec in report.trace])
    return report.status, trace.tobytes(), report.x_final.tobytes()


class TestStoredDiagonal:
    """A diagonal Q is stored as its diagonal d; no solve builds the dense p.Q."""

    @pytest.mark.parametrize("c, answers", [([1.0, 0.0], True), ([1.0, 1.0], False)])
    def test_lstsq_fallback_builds_no_dense_q(self, caplog, c, answers):
        # Q + A'A = diag(1, 0) does not factor, so every solve takes lstsq; it
        # answers where c lies in range(Q) and raises where it does not
        p = make_problem(Q=np.diag([1.0, 0.0]), c=c)
        with caplog.at_level(logging.DEBUG, logger="hieralm.alm"):
            if answers:
                assert solve(p).status is Status.CONVERGED
            else:
                with pytest.raises(SubproblemUnboundedError):
                    solve(p)
        assert any("escalates from Q + A'A to lstsq" in rec.message for rec in caplog.records)
        assert "Q" not in vars(p)

    def test_base_d_switch_builds_no_dense_q(self, caplog):
        # the eigenbasis and base D miss here, so the Q + A'A rung is built; at
        # rho = 1 lstsq finds the system inconsistent, though H is definite
        p = make_problem(Q=np.eye(2), c=[1.0, 1.0], A1=[[1e8, 1.0]], b1=[1.0])
        with caplog.at_level(logging.DEBUG, logger="hieralm.alm"):
            for mode in Mode:
                assert solve(p, SolverConfig(mode=mode)).status is Status.CONVERGED
            with pytest.raises(SubproblemUnboundedError):
                solve_subproblem(p, np.ones(1), np.zeros(0), 1.0, HierarchicalShift.zero(1, 0))
        messages = [rec.message for rec in caplog.records]
        assert any("escalates from the eigenbasis to base D" in m for m in messages)
        assert any("escalates from base D to Q + A'A" in m for m in messages)
        assert any("escalates from Q + A'A to lstsq" in m for m in messages)
        assert hieralm.alm._SETUP[p].rungs[2].factor is not None
        assert "Q" not in vars(p)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.lists(
            st.one_of(st.just(-0.0), st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0**e)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_diagonal_and_its_matrix_solve_alike(self, seed, d):
        rng = np.random.default_rng(seed)
        n = len(d)
        m1, m2 = (int(m) for m in rng.integers(0, 4, 2))
        arrays = dict(
            c=rng.uniform(-2.0, 2.0, n),
            A1=rng.uniform(-2.0, 2.0, (m1, n)),
            b1=rng.uniform(-2.0, 2.0, m1),
            A2=rng.uniform(-2.0, 2.0, (m2, n)),
            b2=rng.uniform(-2.0, 2.0, m2),
        )
        p, q = ProblemData(Q=np.array(d), **arrays), ProblemData(Q=np.diag(d), **arrays)
        for mode in Mode:
            cfg = SolverConfig(mode=mode, max_iter=20)
            assert _outcome(p, cfg) == _outcome(q, cfg)
        assert "Q" not in vars(p) and "Q" not in vars(q)
        assert p.q_diagonal.tobytes() == q.q_diagonal.tobytes() == np.array(d).tobytes()
        # a -0.0 off the diagonal keeps Q dense, and q_diagonal still reads its diagonal
        if n >= 2:
            Q = np.diag(d)
            Q[0, 1] = Q[1, 0] = -0.0
            r = ProblemData(Q=Q, **arrays)
            assert r.Q.tobytes() == Q.tobytes()
            assert r.q_diagonal.tobytes() == np.array(d).tobytes()
