"""Weight schedule and sigma-weighted approximate shifts."""

from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem, random_problem, stacked_weighted_shift
from hieralm import (
    SigmaPair,
    SigmaSchedule,
    approximate_shift,
    approximate_shift_sequence,
    hierarchical_shift,
    sigma_at,
)
from hieralm.control import _solve_rt

EPS = np.finfo(float).eps


class TestSigmaPair:
    def test_ratio(self):
        assert SigmaPair(100.0, 4.0).eta == 25.0

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0)])
    def test_rejects_bad_weights(self, pair):
        with pytest.raises(ValueError, match="positive and finite"):
            SigmaPair(*pair)


class TestSigmaSchedule:
    def test_defaults(self):
        s = SigmaSchedule()
        assert (s.sigma1_0, s.sigma1_factor) == (1.0, 10.0)
        assert (s.sigma2_0, s.sigma2_factor) == (1.0, 1.1)
        assert s.eta_cap == 1e12

    def test_requires_growth_ordering(self):
        with pytest.raises(ValueError, match="sigma1_factor > sigma2_factor"):
            SigmaSchedule(sigma1_factor=1.1, sigma2_factor=1.1)
        with pytest.raises(ValueError, match="sigma1_factor > sigma2_factor"):
            SigmaSchedule(sigma2_factor=0.5, sigma1_factor=0.9)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="sigma1_0"):
            SigmaSchedule(sigma1_0=0.0)
        for cap in (0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=r"^eta_cap must be finite and >= 1, got "):
                SigmaSchedule(eta_cap=cap)

    @pytest.mark.parametrize(
        "name", ["sigma1_0", "sigma1_factor", "sigma2_0", "sigma2_factor", "eta_cap"]
    )
    def test_rejects_bool_scalars(self, name):
        # True would otherwise pass as 1.0
        for value in (True, np.bool_(True)):
            with pytest.raises(ValueError) as exc:
                SigmaSchedule(**{name: value})
            assert str(exc.value) == f"{name} must be a real number, got {value!r}"

    def test_largest_finite_eta_cap_keeps_sigma2_positive(self):
        # sigma2 >= sigma1 / eta_cap > 0 where the cap binds; without a finite
        # cap the scaled sigma2 underflows to 0 from about k = 352
        sched = SigmaSchedule(eta_cap=np.finfo(float).max)
        assert all(sigma_at(sched, k).sigma2 > 0 for k in (352, 400, 10_000))


class TestSigmaAt:
    def test_start_and_growth(self):
        sched = SigmaSchedule()
        assert sigma_at(sched, 0) == SigmaPair(1.0, 1.0)
        assert sigma_at(sched, 2) == SigmaPair(100.0, 1.1**2)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sigma_at(SigmaSchedule(), -1)

    def test_scale_cap_boundary_is_exact(self):
        # k = 12 sits exactly on the 1e12 scale cap with the default schedule
        pair = sigma_at(SigmaSchedule(), 12)
        assert pair.sigma1 == 1e12
        assert pair.sigma2 == 1.1**12

    def test_ratio_cap_binds_and_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hieralm.control"):
            pair = sigma_at(SigmaSchedule(), 13)
        assert pair == SigmaPair(1e12, 1.0)
        assert any("eta cap" in rec.message for rec in caplog.records)
        # only the first binding k warns
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hieralm.control"):
            assert sigma_at(SigmaSchedule(), 14) == SigmaPair(1e12, 1.0)
        assert not caplog.records
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        with caplog.at_level(logging.WARNING, logger="hieralm.control"):
            approximate_shift_sequence(p, SigmaSchedule(), 26)
        assert ["eta cap" in rec.message for rec in caplog.records] == [True]

    def test_huge_index_does_not_overflow(self):
        assert sigma_at(SigmaSchedule(), 5000) == SigmaPair(1e12, 1.0)

    def test_joint_downscale_preserves_ratio(self):
        sched = SigmaSchedule(sigma1_0=2.0)
        pair = sigma_at(sched, 12)  # raw sigma1 would be 2e12
        assert pair.sigma1 == 1e12
        assert pair.sigma2 == pytest.approx(1.1**12 / 2.0, rel=1e-12)
        raw_eta = 2.0 * 10.0**12 / 1.1**12
        assert pair.eta == pytest.approx(raw_eta, rel=1e-12)


class TestApproximateShift:
    def conflict_problem(self):
        return make_problem(
            Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0]
        )

    def test_balanced_weights_split_the_difference(self):
        shift = approximate_shift(self.conflict_problem(), SigmaPair(1.0, 1.0))
        assert shift.s1[0] == pytest.approx(0.5, abs=1e-12)
        assert shift.s2[0] == pytest.approx(-0.5, abs=1e-12)

    def test_large_ratio_approaches_exact_shift(self):
        shift = approximate_shift(self.conflict_problem(), SigmaPair(1e6, 1.0))
        assert abs(shift.s1[0]) <= 2e-6
        assert shift.s2[0] == pytest.approx(-1.0, abs=2e-6)

    def test_feasible_instance_needs_no_shift(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_problem(rng, feasible=True, allow_empty=False)
            shift = approximate_shift(p, SigmaPair(1000.0, 1.0))
            norm = np.linalg.norm(np.concatenate([shift.s1, shift.s2]))
            assert norm <= 1e-8 * (1.0 + np.linalg.norm(p.b))

    def test_agrees_with_regularized_normal_equations(self):
        rng = np.random.default_rng(42)
        sigma = SigmaPair(100.0, 1.21)
        for _ in range(20):
            p = random_problem(rng, allow_empty=False)
            shift = approximate_shift(p, sigma)
            H = (
                sigma.sigma1 * p.A1.T @ p.A1
                + sigma.sigma2 * p.A2.T @ p.A2
                + 1e-12 * np.eye(p.n)
            )
            rhs = sigma.sigma1 * p.A1.T @ p.b1 + sigma.sigma2 * p.A2.T @ p.b2
            x_ref = np.linalg.solve(H, rhs)
            assert np.abs(p.b1 - p.A1 @ x_ref - shift.s1).max() <= 1e-6
            assert np.abs(p.b2 - p.A2 @ x_ref - shift.s2).max() <= 1e-6

    def test_matches_stacked_lstsq_along_schedule(self):
        # the criterion-4 battery of the acceptance suite, at every default weight
        rng = np.random.default_rng(3)
        pairs = [sigma_at(SigmaSchedule(), k) for k in range(26)]
        for _ in range(200):
            p = random_problem(rng, definite=False)
            tol = 1e-8 * (1.0 + np.linalg.norm(p.b))
            for sigma in pairs:
                shift = approximate_shift(p, sigma)
                s1, s2 = stacked_weighted_shift(p, sigma)
                assert np.abs(shift.s1 - s1).max(initial=0.0) <= tol
                assert np.abs(shift.s2 - s2).max(initial=0.0) <= tol

    def test_unconstrained_problem(self):
        p = make_problem(Q=np.eye(2), c=[1.0, 1.0])
        shift = approximate_shift(p, SigmaPair(1.0, 1.0))
        assert shift.s1.shape == (0,)
        assert shift.s2.shape == (0,)

    def test_single_block_only(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A2=[[2.0]], b2=[3.0])
        shift = approximate_shift(p, SigmaPair(10.0, 1.0))
        assert shift.s1.shape == (0,)
        assert abs(shift.s2[0]) <= 1e-12

    def test_rejects_non_finite_data(self):
        # no shift exists for non-finite data, and no ProblemData can hold it
        problems = [
            lambda: make_problem(Q=np.eye(1), c=[0.0], A1=[[np.inf]], b1=[1.0]),
            lambda: make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.ones((2, 2)), b1=[np.nan, 1.0]),
            lambda: make_problem(
                Q=np.eye(2), c=[0.0, 0.0], A1=[[np.nan, 1.0], [1.0, 1.0]], b1=[1.0, 1.0]
            ),
        ]
        for build in problems:
            with pytest.raises(ValueError, match="has non-finite entries"):
                build()


class TestForwardSubstitution:
    """approximate_shift's numpy R^-T t against LAPACK's triangular solve."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.integers(1, 40), extra=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_within_backward_error(self, k, extra, seed):
        # R as approximate_shift forms it: the QR of a tall matrix with scaled rows
        rng = np.random.default_rng(seed)
        rows = k + extra
        R = np.linalg.qr(rng.standard_normal((rows, k)) * rng.uniform(0.1, 10.0, (rows, 1)))[1]
        t = rng.standard_normal(k) * 10.0 ** rng.uniform(-3.0, 3.0)
        expected = scipy.linalg.solve_triangular(R, t, trans="T")
        y = _solve_rt(R, t.copy())
        if k == 1:
            assert y.tobytes() == expected.tobytes()
        # both are backward stable: each solves R' + E with |E| <= k eps |R'|
        bound = 2 * k * EPS * np.linalg.norm(np.abs(R.T) @ np.abs(y))
        assert np.linalg.norm(R.T @ (y - expected)) <= bound
        assert np.linalg.norm(R.T @ y - t) <= bound


class TestShiftSequence:
    def test_rejects_empty_sequence(self):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0])
        with pytest.raises(ValueError, match="count"):
            approximate_shift_sequence(p, SigmaSchedule(), 0)

    def test_matches_pointwise_calls(self):
        p = make_problem(
            Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0]
        )
        sched = SigmaSchedule()
        shifts = approximate_shift_sequence(p, sched, 5)
        assert len(shifts) == 5
        for k, shift in enumerate(shifts):
            ref = approximate_shift(p, sigma_at(sched, k))
            assert np.array_equal(shift.s1, ref.s1)
            assert np.array_equal(shift.s2, ref.s2)

    def test_strict_monotone_norms_on_conflict(self):
        # conflicting scalar blocks: s1 = 1/(1+eta), s2 = -eta/(1+eta)
        p = make_problem(
            Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0]
        )
        shifts = approximate_shift_sequence(p, SigmaSchedule(), 13)
        n1 = [abs(s.s1[0]) for s in shifts]
        n2 = [abs(s.s2[0]) for s in shifts]
        assert all(b < a for a, b in zip(n1, n1[1:]))
        assert all(b > a for a, b in zip(n2, n2[1:]))
        assert n2[-1] < 1.0  # never overshoots the exact low-priority shift

    def test_converges_to_exact_shift_along_schedule(self):
        rng = np.random.default_rng(43)
        p = random_problem(rng, allow_empty=False)
        exact = hierarchical_shift(p).shift
        last = approximate_shift_sequence(p, SigmaSchedule(), 26)[-1]
        err = np.linalg.norm(
            np.concatenate([last.s1 - exact.s1, last.s2 - exact.s2])
        )
        assert err <= 1e-5 * (1.0 + np.linalg.norm(np.concatenate([exact.s1, exact.s2])))
