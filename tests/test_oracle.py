"""Exact hierarchical shift: hand-checked cases, structure, and reference checks."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from conftest import (
    boxed_oracle_problem,
    exhaustive_stage_values,
    make_problem,
    random_problem,
    reference_battery,
    two_stage_reference,
)
from hieralm import hierarchical_shift

EPS = np.finfo(float).eps
# hierarchical_shift's cutoff on the singular values of N2, restated
NULL_TOL = np.sqrt(EPS)


class TestStage1:
    """The high-priority shift s1 and the rank of A1."""

    def test_consistent_system_has_zero_shift(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(2), b1=[1.0, 2.0])
        res = hierarchical_shift(p)
        assert np.allclose(res.shift.s1, 0.0, atol=1e-12)
        assert res.shift.s2.shape == (0,)
        assert res.rank1 == 2

    def test_conflicting_rows_average(self):
        # two copies of the same scalar equation with targets 1 and 2
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0], [1.0]], b1=[1.0, 2.0])
        res = hierarchical_shift(p)
        assert res.shift.s1 == pytest.approx([-0.5, 0.5], abs=1e-12)
        assert res.rank1 == 1

    def test_empty_block(self):
        p = make_problem(Q=np.eye(3), c=[0.0, 0.0, 0.0])
        res = hierarchical_shift(p)
        assert res.shift.s1.shape == (0,)
        assert res.shift.s2.shape == (0,)
        assert res.rank1 == 0

    def test_duplicated_row_rank(self):
        p = make_problem(
            Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 0.0], [2.0, 0.0]], b1=[1.0, 2.0]
        )
        assert hierarchical_shift(p).rank1 == 1

    def test_shift_is_orthogonal_to_range(self):
        # stage-1 optimality: s1 is the component of b1 outside range(A1)
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_problem(rng, m1=int(rng.integers(1, 6)), m2=1)
            s1 = hierarchical_shift(p).shift.s1
            scale = 1.0 + np.linalg.norm(p.b1)
            assert np.abs(p.A1.T @ s1).max() <= 1e-10 * scale
            x, *_ = np.linalg.lstsq(p.A1, p.b1 - s1, rcond=None)
            assert np.linalg.norm(p.A1 @ x - (p.b1 - s1)) <= 1e-10 * scale


class TestStage2:
    """The low-priority shift s2 over the stage-1 optimal set."""

    def test_optimizes_over_stage1_set(self):
        # stage 1 pins x[0] = 0, stage 2 averages the two targets for x[1]
        p = make_problem(
            Q=np.eye(2),
            c=[0.0, 0.0],
            A1=[[1.0, 0.0]],
            b1=[0.0],
            A2=[[0.0, 1.0], [0.0, 1.0]],
            b2=[1.0, 3.0],
        )
        res = hierarchical_shift(p)
        assert res.shift.s1 == pytest.approx([0.0], abs=1e-12)
        assert res.shift.s2 == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_empty_low_block(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(2), b1=[1.0, 2.0])
        assert hierarchical_shift(p).shift.s2.shape == (0,)

    def test_full_rank_stage1_leaves_no_freedom(self):
        p = make_problem(
            Q=np.eye(2),
            c=[0.0, 0.0],
            A1=np.eye(2),
            b1=[1.0, 2.0],
            A2=[[1.0, 1.0]],
            b2=[0.0],
        )
        res = hierarchical_shift(p)
        assert res.shift.s1 == pytest.approx([0.0, 0.0], abs=1e-12)
        assert res.shift.s2[0] == pytest.approx(-3.0, abs=1e-12)

    def test_never_degrades_stage1(self):
        # some x attains both shifts at once: A x = b - s
        rng = np.random.default_rng(32)
        for _ in range(30):
            p = random_problem(rng, allow_empty=False)
            shift = hierarchical_shift(p).shift
            target = p.b - np.concatenate([shift.s1, shift.s2])
            x, *_ = np.linalg.lstsq(p.A, target, rcond=None)
            assert np.linalg.norm(p.A @ x - target) <= 1e-10 * (1.0 + np.linalg.norm(p.b))

    def test_at_least_as_good_as_stage1_point(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            p = random_problem(rng, allow_empty=False)
            s2 = hierarchical_shift(p).shift.s2
            at_dag = np.linalg.norm(p.b2 - p.A2 @ two_stage_reference(p).x_dag)
            assert np.linalg.norm(s2) <= at_dag + 1e-10 * (1.0 + at_dag)


def _assert_matches_reference(p):
    res = hierarchical_shift(p)
    ref = two_stage_reference(p)
    tol = 1e-10 * (1.0 + np.linalg.norm(p.b))
    assert res.shift.s1.shape == (p.m1,) and res.shift.s2.shape == (p.m2,)
    assert np.abs(res.shift.s1 - ref.s1).max(initial=0.0) <= tol
    assert np.abs(res.shift.s2 - ref.s2).max(initial=0.0) <= tol
    assert res.rank1 == ref.rank1


class TestHierarchicalShift:
    def test_conflicting_scalar_blocks(self):
        # both blocks constrain the same scalar; the high-priority one wins exactly
        p = make_problem(
            Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0], A2=[[1.0]], b2=[0.0]
        )
        res = hierarchical_shift(p)
        assert res.shift.s1 == pytest.approx([0.0], abs=1e-12)
        assert res.shift.s2 == pytest.approx([-1.0], abs=1e-12)
        assert res.stage1_value == pytest.approx(0.0, abs=1e-12)
        assert res.stage2_value == pytest.approx(0.5, abs=1e-12)

    def test_values_match_shift_norms(self):
        p = random_problem(np.random.default_rng(34), allow_empty=False)
        res = hierarchical_shift(p)
        assert res.stage1_value == pytest.approx(0.5 * np.linalg.norm(res.shift.s1) ** 2)
        assert res.stage2_value == pytest.approx(0.5 * np.linalg.norm(res.shift.s2) ** 2)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            p = random_problem(rng, allow_empty=False)
            perm1 = rng.permutation(p.m1)
            perm2 = rng.permutation(p.m2)
            q = make_problem(
                Q=p.Q, c=p.c, A1=p.A1[perm1], b1=p.b1[perm1], A2=p.A2[perm2], b2=p.b2[perm2]
            )
            a, b = hierarchical_shift(p).shift, hierarchical_shift(q).shift
            assert np.abs(a.s1[perm1] - b.s1).max() <= 1e-8
            assert np.abs(a.s2[perm2] - b.s2).max() <= 1e-8

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            p = boxed_oracle_problem(rng)
            res = hierarchical_shift(p)
            best1, best2 = exhaustive_stage_values(p)
            assert best1 >= np.linalg.norm(res.shift.s1) - 1e-6
            assert best2 >= np.linalg.norm(res.shift.s2) - 1e-3

    def test_matches_two_stage_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            _assert_matches_reference(random_problem(rng, definite=False))

    def test_high_priority_block_inconsistent_alone(self):
        # null(A1') is nontrivial, so N2 is rank-deficient and s1 != 0: a tall A1,
        # and a repeated row with m2 >= k so the SVD of N2 reports the zero
        rng = np.random.default_rng(38)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m1, m2 = int(rng.integers(n + 1, 7)), int(rng.integers(1, 4))
            p = random_problem(rng, n=n, m1=m1, m2=m2)
            rows = rng.uniform(-2.0, 2.0, (2, 3))
            q = make_problem(
                Q=np.eye(3),
                c=np.zeros(3),
                A1=np.vstack([rows, 1.5 * rows[:1]]),
                b1=rng.uniform(-2.0, 2.0, 3),
                A2=rng.uniform(-2.0, 2.0, (4, 3)),
                b2=rng.uniform(-2.0, 2.0, 4),
            )
            for case in (p, q):
                _assert_matches_reference(case)
                assert np.linalg.norm(hierarchical_shift(case).shift.s1) > 1e-6

    @pytest.mark.parametrize("m1, m2", [(0, 3), (3, 0), (0, 0)])
    def test_single_or_no_block(self, m1, m2):
        rng = np.random.default_rng(39)
        for _ in range(20):
            _assert_matches_reference(random_problem(rng, n=2, m1=m1, m2=m2))

    def test_full_row_rank_has_no_inconsistency(self):
        # k = m - rank(A) = 0: every b is attainable, so both shifts vanish
        rng = np.random.default_rng(40)
        for _ in range(20):
            p = random_problem(rng, n=6, m1=int(rng.integers(1, 4)), m2=int(rng.integers(1, 4)))
            assert p.left_null.shape == (p.m, 0)
            _assert_matches_reference(p)
            res = hierarchical_shift(p)
            assert not res.shift.s1.any() and not res.shift.s2.any()

    def test_rank1_matches_matrix_rank(self):
        # the criterion-4 battery of the acceptance suite
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_problem(rng, definite=False)
            assert hierarchical_shift(p).rank1 == np.linalg.matrix_rank(p.A1)


def _n2_cutoff_problem(ratio: float):
    """Q = I2, A1 = [[1, 0], [1, d]], A2 = [[0, 1]], b1 = (1, 2), b2 = 0, with d set so
    that N2's single singular value d / sqrt(2 + d^2) is ratio times the cutoff."""
    t = ratio * NULL_TOL
    d = t * np.sqrt(2.0 / (1.0 - t * t))
    return make_problem(
        Q=np.eye(2),
        c=[0.0, 0.0],
        A1=[[1.0, 0.0], [1.0, d]],
        b1=[1.0, 2.0],
        A2=[[0.0, 1.0]],
        b2=[0.0],
    )


def _mp_two_stage(p, rank1: int):
    """50-digit two-stage shift with A1 truncated to its leading ``rank1`` singular
    triplets: s1 = b1 - A1r x0 for the minimum-norm stage-1 point x0, then the least
    s2 = b2 - A2 x over x in x0 + null(A1r)."""
    with mpmath.workdps(50):
        U, S, Vt = mpmath.svd_r(mpmath.matrix(p.A1.tolist()), full_matrices=True)
        b1, b2 = mpmath.matrix(p.b1.tolist()), mpmath.matrix(p.b2.tolist())
        A2 = mpmath.matrix(p.A2.tolist())
        x0 = mpmath.matrix(p.n, 1)
        s1 = b1.copy()
        for i in range(rank1):
            coef = (U[:, i].T * b1)[0]
            x0 += Vt[i, :].T * (coef / S[i])
            s1 -= U[:, i] * coef
        s2 = b2 - A2 * x0
        if rank1 < p.n:
            M = A2 * Vt[rank1:, :].T
            s2 -= M * mpmath.lu_solve(M.T * M, M.T * s2)
        return tuple(np.array(v.tolist(), dtype=float).ravel() for v in (s1, s2))


class TestN2Cutoff:
    """The sqrt(eps) rank rule on N2, 100x above and 100x below the cutoff."""

    def test_construction_straddles_the_cutoff(self):
        for ratio in (100.0, 0.01):
            p = _n2_cutoff_problem(ratio)
            with mpmath.workdps(50):
                U, S, _ = mpmath.svd_r(mpmath.matrix(p.A.tolist()), full_matrices=True)
                assert S[1] > 0.5 and len(S) == 2  # rank(A) = 2, so k = 1
                theta = abs(U[2, 2])  # N2, the A2 row of null(A')
                d = mpmath.mpf(p.A1[1, 1])
                assert abs(theta - d / mpmath.sqrt(2 + d * d)) <= mpmath.mpf(10) ** -45
            assert float(theta) / NULL_TOL == pytest.approx(ratio), ratio

    def test_above_cutoff_keeps_full_rank(self):
        p = _n2_cutoff_problem(100.0)
        res = hierarchical_shift(p)
        s1, s2 = _mp_two_stage(p, rank1=2)
        assert res.rank1 == 2
        assert not res.shift.s1.any()
        assert np.abs(s1).max() <= 1e-40
        # N2 = theta carries an absolute error about eps, so s2 = (N'b) / theta
        # carries a relative error about eps / theta
        theta = 100.0 * NULL_TOL
        assert res.shift.s2 == pytest.approx(s2, rel=8 * EPS / theta, abs=0.0)
        assert s2[0] == pytest.approx(-1.0 / p.A1[1, 1], rel=1e-12)

    def test_below_cutoff_drops_a_rank(self):
        p = _n2_cutoff_problem(0.01)
        res = hierarchical_shift(p)
        s1, s2 = _mp_two_stage(p, rank1=1)
        assert res.rank1 == 1
        assert np.abs(res.shift.s1 - s1).max() <= 4 * EPS
        assert s1 == pytest.approx([-0.5, 0.5], abs=1e-18)
        assert not res.shift.s2.any()
        assert np.abs(s2).max() <= 1e-40


class TestFiftyDigitReference:
    def test_matches_two_stage_reference(self):
        battery = reference_battery()
        inconsistent = 0
        for p in battery:
            rank1 = int(np.linalg.matrix_rank(p.A1))
            s1, s2 = _mp_two_stage(p, rank1)
            res = hierarchical_shift(p)
            assert res.rank1 == rank1
            tol = 1e-12 * (1.0 + np.linalg.norm(p.b))
            assert np.abs(res.shift.s1 - s1).max() <= tol
            assert np.abs(res.shift.s2 - s2).max() <= tol
            inconsistent += bool(np.linalg.norm(s1) > 1e-3)
        # s1 != 0 wherever A1 is rank-deficient
        assert inconsistent == sum(np.linalg.matrix_rank(p.A1) < p.m1 for p in battery) >= 20
