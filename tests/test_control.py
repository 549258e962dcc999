"""Weight schedule and sigma-weighted approximate shifts."""

from __future__ import annotations

import gc
import logging
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hieralm.control
from conftest import make_problem, random_problem, reference_battery, stacked_weighted_shift
from hieralm import (
    GridSpec,
    ProblemData,
    SigmaPair,
    SigmaSchedule,
    approximate_shift,
    approximate_shift_sequence,
    build_instance,
    hierarchical_shift,
    sigma_at,
)

EPS = np.finfo(float).eps
# the shifts' cutoff on the column norms of N2, restated
NULL_TOL = np.sqrt(EPS)


class TestSigmaPair:
    def test_ratio(self):
        assert SigmaPair(100.0, 4.0).eta == 25.0

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0)])
    def test_rejects_bad_weights(self, pair):
        with pytest.raises(ValueError, match="positive and finite"):
            SigmaPair(*pair)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1", None])
    def test_rejects_weights_that_are_not_real(self, value):
        # True would otherwise pass as 1.0
        for name, pair in (("sigma1", (value, 1.0)), ("sigma2", (1.0, value))):
            with pytest.raises(ValueError) as exc:
                SigmaPair(*pair)
            assert str(exc.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("pair", [(1e300, 1e-10), (1e-300, 1e300)])
    def test_rejects_a_ratio_beyond_the_normal_range(self, pair):
        with pytest.raises(ValueError, match="sigma1 / sigma2 must be a normal number"):
            SigmaPair(*pair)

    def test_weights_are_stored_as_python_floats(self):
        pair = SigmaPair(np.float32(2.0), 1)
        assert (type(pair.sigma1), type(pair.sigma2)) == (float, float)
        assert pair == SigmaPair(2.0, 1.0)


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

    def test_numpy_scalar_factor_does_not_overflow(self):
        # a float64 factor kept as given would overflow in numpy with a RuntimeWarning;
        # a float's power raises the OverflowError that the schedule catches
        sched = SigmaSchedule(sigma1_factor=np.float64(10.0), eta_cap=np.int64(10**12))
        assert (type(sched.sigma1_factor), type(sched.eta_cap)) == (float, float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert sigma_at(sched, 400) == sigma_at(SigmaSchedule(), 400) == SigmaPair(1e12, 1.0)

    def test_rejects_a_starting_ratio_below_the_normal_range(self):
        # eta is least at k = 0; sigma_at would reject this one at the first
        # controlled iteration, with the same message
        with pytest.raises(ValueError) as exc:
            SigmaSchedule(sigma1_0=1e-300, sigma2_0=1e300)
        assert str(exc.value) == "sigma1 / sigma2 must be a normal number, got 0.0"
        # the least normal ratio is accepted, and so is a ratio past the double
        # range, which the cap brings back to eta_cap at k = 0
        tiny = np.finfo(float).tiny
        assert sigma_at(SigmaSchedule(sigma1_0=tiny, sigma2_0=1.0), 0).eta == tiny
        assert sigma_at(SigmaSchedule(sigma1_0=1e300, sigma2_0=1e-10), 0).eta == 1e12

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

    @pytest.mark.parametrize("k", [2.5, True, np.float64(3.0), "1"])
    def test_rejects_an_index_that_is_not_an_integer(self, k):
        # 2.5 would give the weights at k = 2.5, and True those at k = 1
        with pytest.raises(ValueError) as exc:
            sigma_at(SigmaSchedule(), k)
        assert str(exc.value) == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("count", [2.5, True, np.float64(3.0), "1"])
    def test_sequence_rejects_a_count_that_is_not_an_integer(self, count):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0])
        with pytest.raises(ValueError) as exc:
            approximate_shift_sequence(p, SigmaSchedule(), count)
        assert str(exc.value) == f"count must be an integer, got {count!r}"
        assert len(approximate_shift_sequence(p, SigmaSchedule(), np.int64(2))) == 2

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

    def test_weights_skip_the_type_checks_but_keep_the_value_checks(self):
        # sigma_at computes its weights as Python floats, whose type SigmaPair
        # does not check again; the pair is the one SigmaPair builds
        sched = SigmaSchedule()
        for k in (0, 5, 12, 13, 400):
            pair = sigma_at(sched, k)
            assert (type(pair.sigma1), type(pair.sigma2)) == (float, float)
            assert pair == SigmaPair(pair.sigma1, pair.sigma2)
        # a sigma2 that overflows to inf before the ratio cap: SigmaPair's message
        sched = SigmaSchedule(sigma1_0=1e-290, sigma2_0=1e17, sigma2_factor=9.99)
        assert sigma_at(sched, 290).sigma2 == pytest.approx(7.48155e306, rel=1e-6)
        with pytest.raises(ValueError) as exc:
            sigma_at(sched, 300)
        assert str(exc.value) == "sigma2 must be positive and finite, got inf"

    def test_huge_index_does_not_overflow(self):
        assert sigma_at(SigmaSchedule(), 5000) == SigmaPair(1e12, 1.0)

    @pytest.mark.parametrize(
        "k", [10**308, int(np.finfo(float).max) + 1, 10**400], ids=["1e308", "max+1", "1e400"]
    )
    def test_an_index_beyond_the_double_range_gets_the_capped_pair(self, k):
        assert sigma_at(SigmaSchedule(), k) == SigmaPair(1e12, 1.0)
        # both powers overflow in log space, so the joint downscale would
        # form inf - inf; sigma2 / sigma1 is below every double there too
        sched = SigmaSchedule(sigma1_0=2.2250738585072014e-308, sigma2_factor=9.99)
        assert sigma_at(sched, k) == SigmaPair(1e12, 1.0)

    def test_a_power_that_overflows_alone_is_taken_in_log_space(self):
        # 10.0**309 overflows, 1e-300 * 10**309 does not: sigma1 keeps growing
        # tenfold through k = 309 and 310, not jumping to inf and the scale cap
        sched = SigmaSchedule(sigma1_0=1e-300)
        pairs = [sigma_at(sched, k) for k in (308, 309, 310)]
        for pair, want in zip(pairs, (1e8, 1e9, 1e10)):
            assert pair.sigma1 == pytest.approx(want, rel=1e-12)
        assert pairs[0].sigma2 <= pairs[1].sigma2 <= pairs[2].sigma2
        # past the scale cap, a sigma2 beyond the double range is inf, which
        # SigmaPair rejects with its message, not an OverflowError
        sched = SigmaSchedule(sigma1_0=2.2250738585072014e-308, sigma2_factor=9.99)
        with pytest.raises(ValueError) as exc:
            sigma_at(sched, 309)
        assert str(exc.value) == "sigma2 must be positive and finite, got inf"

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

    def test_extreme_ratios_give_the_limit_shifts(self):
        # A1's repeated row puts a column of N in null(A1'); with no N2 part it
        # takes no s2 filter, which at eta = 1e300 would overflow
        p = make_problem(
            Q=np.eye(1), c=[0.0], A1=[[1.0], [1.0]], b1=[1.0, 2.0], A2=[[1.0]], b2=[0.0]
        )
        top = approximate_shift(p, SigmaPair(1e300, 1.0))
        assert top.s1 == pytest.approx([-0.5, 0.5], rel=4 * EPS, abs=0.0)
        assert top.s2 == pytest.approx([-1.5], rel=4 * EPS, abs=0.0)
        # the priorities reversed: A2 x = b2 holds, so x = 0
        bottom = approximate_shift(p, SigmaPair(1.0, 1e300))
        assert bottom.s1 == pytest.approx([1.0, 2.0], rel=4 * EPS, abs=0.0)
        assert abs(bottom.s2[0]) <= 1e-299

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

    def test_coordinates_are_computed_once_per_instance(self):
        # both shifts read N's coordinates from one read-only entry per live
        # instance, with the bits of computing them afresh; N is copied only
        # where a column lies in null(A1'), as the repeated row's does
        grid = build_instance(GridSpec(4, 4, kappa=0.5))[0]
        repeated = make_problem(
            Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 0.0], [1.0, 0.0]], b1=[1.0, 2.0],
            A2=[[0.0, 1.0]], b2=[1.0],
        )
        for p, copied in ((grid, False), (repeated, True)):
            first = hieralm.control._cs_coordinates(p)
            approximate_shift(p, SigmaPair(10.0, 1.0))
            hierarchical_shift(p)
            assert hieralm.control._cs_coordinates(p) is first
            assert not any(a.flags.writeable for a in first)
            assert np.shares_memory(first[0], p.left_null) is not copied
            N = p.left_null.copy()
            N1, N2 = N[: p.m1], N[p.m1 :]
            N2[:, np.einsum("ij,ij->j", N2, N2) <= NULL_TOL**2] = 0.0
            fresh = (N1, N2, np.einsum("ij,ij->j", N1, N1), np.einsum("ij,ij->j", N2, N2), N.T @ p.b)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(first, fresh))
        # the entry does not keep its instance alive
        ref = weakref.ref(grid)
        del grid, p, first
        gc.collect()
        assert ref() is None


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


def _mp_weighted_shift(p: ProblemData, sigma: SigmaPair) -> np.ndarray:
    """The stacked residual of the weighted least squares, from its normal
    equations at 50 digits; A must have full column rank."""
    with mpmath.workdps(50):
        A, b = mpmath.matrix(p.A.tolist()), mpmath.matrix(p.b.tolist())
        W = mpmath.diag([mpmath.mpf(sigma.sigma1)] * p.m1 + [mpmath.mpf(sigma.sigma2)] * p.m2)
        r = b - A * mpmath.lu_solve(A.T * W * A, A.T * W * b)
        return np.array(r.tolist(), dtype=float).ravel()


class TestFiftyDigitReference:
    def test_weighted_shift_along_schedule(self):
        battery = reference_battery()
        assert sum(np.linalg.matrix_rank(p.A1) < p.m1 for p in battery) >= 20
        for p in battery:
            tol = 1e-12 * (1.0 + np.linalg.norm(p.b))
            for k in (0, 3, 6, 9, 12, 20):
                sigma = sigma_at(SigmaSchedule(), k)
                shift = approximate_shift(p, sigma)
                err = np.abs(np.concatenate([shift.s1, shift.s2]) - _mp_weighted_shift(p, sigma))
                assert err.max() <= tol, (k, err.max())


def _stacked_shifts(p: ProblemData) -> list[np.ndarray]:
    """The weighted shift at three steps of the default schedule (the last
    under the eta cap) and the exact shift, each stacked as (s1, s2)."""
    shifts = [approximate_shift(p, sigma_at(SigmaSchedule(), k)) for k in (0, 6, 20)]
    shifts.append(hierarchical_shift(p).shift)
    return [np.concatenate([s.s1, s.s2]) for s in shifts]


def _rounding_scale(p: ProblemData) -> float:
    """max(m, n) eps / theta^2 for the least column norm theta of N2 above the
    cutoff. A rounding error of N or of t = N'b is about max(m, n) eps; the
    exact shift divides a column of N by theta^2 (s2 = N2 (t / a2)), and the
    weighted shift by at most that."""
    theta = np.linalg.svd(p.left_null[p.m1 :], compute_uv=False)
    theta = theta[theta > NULL_TOL]
    return max(p.m, p.n) * EPS / (theta.min() ** 2 if theta.size else 1.0)


def _with_b(p: ProblemData, b1, b2) -> ProblemData:
    return ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=b1, A2=p.A2, b2=b2)


class TestMetamorphic:
    """Both shifts depend on b only through its part outside range(A), linearly,
    and they follow a reordering of the rows within a block."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adding_a_range_vector_to_b_changes_no_shift(self, seed):
        # tolerance: 16 rounding scales of ||b|| + ||A|| ||y||, the size of N'(A y)
        # and of the rounding of b + A y
        rng = np.random.default_rng(seed)
        p = random_problem(rng, definite=False, allow_empty=False)
        y = rng.uniform(-10.0, 10.0, p.n)
        q = _with_b(p, p.b1 + p.A1 @ y, p.b2 + p.A2 @ y)
        scale = np.linalg.norm(p.b) + np.linalg.norm(p.A, 2) * np.linalg.norm(y)
        tol = 16 * _rounding_scale(p) * scale
        for a, b in zip(_stacked_shifts(p), _stacked_shifts(q)):
            assert np.abs(a - b).max() <= tol

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_rows_within_a_block_permutes_both_shifts(self, seed):
        # tolerance: 16 rounding scales of ||b||; the permuted instance has its
        # own basis N, which rounds differently
        rng = np.random.default_rng(seed)
        p = random_problem(rng, definite=False, allow_empty=False)
        perm1, perm2 = rng.permutation(p.m1), rng.permutation(p.m2)
        q = ProblemData(
            Q=p.Q, c=p.c, A1=p.A1[perm1], b1=p.b1[perm1], A2=p.A2[perm2], b2=p.b2[perm2]
        )
        perm = np.concatenate([perm1, p.m1 + perm2])
        tol = 16 * _rounding_scale(p) * (1.0 + np.linalg.norm(p.b))
        for a, b in zip(_stacked_shifts(p), _stacked_shifts(q)):
            assert np.abs(a[perm] - b).max() <= tol

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-30, 30),
        mantissa=st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1.0),
    )
    def test_scaling_b_scales_both_shifts(self, seed, exponent, mantissa):
        # bit for bit by a power of two: N depends on A alone, and every step
        # from b to the shifts is linear; by any other factor, to 4 rounding
        # scales of |alpha| ||b||
        rng = np.random.default_rng(seed)
        p = random_problem(rng, definite=False, allow_empty=False)
        power = 2.0**exponent
        base = _stacked_shifts(p)
        for a, b in zip(base, _stacked_shifts(_with_b(p, power * p.b1, power * p.b2))):
            assert np.array_equal(power * a, b)
        alpha = mantissa * power
        tol = 4 * _rounding_scale(p) * abs(alpha) * (1.0 + np.linalg.norm(p.b))
        for a, b in zip(base, _stacked_shifts(_with_b(p, alpha * p.b1, alpha * p.b2))):
            assert np.abs(alpha * a - b).max() <= tol
