"""Problem container, validation, objective/residual helpers, and file round trips."""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import hieralm.problem
from conftest import boxed_oracle_problem, make_problem, random_problem
from hieralm import (
    GridSpec,
    HierarchicalShift,
    ProblemData,
    ProblemFormatError,
    build_instance,
    constraint_residuals,
    grid_incidence,
    load_problem,
    objective_value,
    problem_document,
    save_problem,
    validate_problem,
)
from test_alm import _diagonal_q_problems, _sparse_a_problems


EPS = np.finfo(float).eps


def _near_dependent_rows(ratio: float):
    """A1 (3 x 6) whose rows 0 and 2 differ by d in their last entry, A2 (2 x 6)
    with a copy of row 1. A2's copy makes A exactly rank-deficient; the smallest
    nonzero singular value is then d / sqrt(2), set to ratio times the cutoff
    max(m, n) * eps * s_max. The last column is zero elsewhere, so d is stored exactly.
    """
    rng = np.random.default_rng(11)
    A = np.zeros((5, 6))
    A[:, :5] = rng.uniform(-2.0, 2.0, (5, 5))
    A[2, :5] = A[0, :5]
    A[4] = A[1]
    s_max = np.linalg.svd(A, compute_uv=False)[0]
    A[2, 5] = ratio * 6 * EPS * s_max * np.sqrt(2.0)
    return A[:3], A[3:]


def _left_null_cases() -> dict:
    """(A1, A2) pairs covering each shape of R = qr(A')'s R and each rank regime,
    one whose A A' overflows, and two graph incidences that the Gram route certifies."""
    rng = np.random.default_rng(5)
    tall = rng.uniform(-2.0, 2.0, (4, 2))  # m > n: R is 2 x 4, trapezoidal
    wide = rng.uniform(-2.0, 2.0, (3, 5))  # m < n: full row rank, k = 0
    dup = rng.uniform(-2.0, 2.0, (4, 4))
    dup[2] = dup[0]
    col = rng.uniform(-2.0, 2.0, (3, 1))
    grid = build_instance(GridSpec(3, 3))[0]  # connected: k = 1
    # a 3x3 grid beside a 2x4 grid: two components, a repeated zero eigenvalue
    two = block_diag(grid_incidence(3, 3)[0], grid_incidence(2, 4)[0])
    return {
        "tall": (tall[:3], tall[3:]),
        "wide": (wide[:2], wide[2:]),
        "no-rows": (np.zeros((0, 2)), np.zeros((0, 2))),
        "m1=0": (np.zeros((0, 2)), tall),
        "m2=0": (tall, np.zeros((0, 2))),
        "n=1": (col[:2], col[2:]),
        "duplicated-row": (dup[:3], dup[3:]),
        "scaled-1e8": (1e8 * tall[:3], 1e8 * tall[3:]),
        "scaled-1e-8": (1e-8 * tall[:3], 1e-8 * tall[3:]),
        "scaled-1e200": (1e200 * tall[:3], 1e200 * tall[3:]),  # A A' overflows
        "near-dependent-above": _near_dependent_rows(100.0),
        "near-dependent-below": _near_dependent_rows(0.01),
        "grid-3x3": (grid.A1, grid.A2),
        "two-grids": (two[:12], two[12:]),
    }


def _mp_left_null(A: np.ndarray):
    """Rank by left_null's rule on 50-digit singular values of the float data A,
    those singular values, and the projector onto null(A') at that rank."""
    m, n = A.shape
    with mpmath.workdps(50):
        U, S, _ = mpmath.svd_r(mpmath.matrix(A.tolist()), full_matrices=True)
        s = [float(v) for v in S]
        tol = mpmath.mpf(max(m, n)) * EPS * S[0]
        rank = sum(1 for v in S if v > tol)
        Z = U[:, rank:]
        P = np.array((Z * Z.T).tolist(), dtype=float) if rank < m else np.zeros((m, m))
    return rank, s, P


class TestProblemData:
    def test_dimensions_and_stacking(self):
        p = make_problem(
            Q=np.eye(3),
            c=[1.0, 2.0, 3.0],
            A1=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            b1=[1.0, 2.0],
            A2=[[0.0, 0.0, 1.0]],
            b2=[3.0],
        )
        assert (p.n, p.m1, p.m2, p.m) == (3, 2, 1, 3)
        assert p.A.shape == (3, 3)
        assert np.array_equal(p.A[:2], p.A1)
        assert np.array_equal(p.A[2:], p.A2)
        assert np.array_equal(p.b, [1.0, 2.0, 3.0])
        # stored once: the blocks are read-only row views of the stacked arrays
        assert p.A is p.A and p.b is p.b
        for block, whole in ((p.A1, p.A), (p.A2, p.A), (p.b1, p.b), (p.b2, p.b)):
            assert np.shares_memory(block, whole)
            with pytest.raises(ValueError):
                block.flags.writeable = True
        for whole in (p.A, p.b):
            assert not whole.flags.writeable
            with pytest.raises(ValueError):
                whole[0] = 0.0

    def test_arrays_are_copied_and_read_only(self):
        Q = np.eye(2)
        p = make_problem(Q=Q, c=[0.0, 0.0])
        Q[0, 0] = 99.0
        assert p.Q[0, 0] == 1.0
        with pytest.raises(ValueError):
            p.Q[0, 0] = 5.0
        with pytest.raises(ValueError):
            p.c[0] = 5.0

    def test_diagonal_q_is_stored_as_its_diagonal(self):
        d = np.array([1.0, -0.0, 0.0, 2.5])
        for given in (d.copy(), np.diag(d), np.diag(d).tolist()):
            p = make_problem(Q=given, c=np.zeros(4))
            if isinstance(given, np.ndarray):
                given[0] = 99.0  # the instance holds a copy
            assert "Q" not in vars(p)
            assert p.q_diagonal.tobytes() == d.tobytes()
            assert p.q_diagonal.flags.c_contiguous and not p.q_diagonal.flags.writeable
            # p.Q is built on its first read, read-only, and kept
            Q = p.Q
            assert Q.shape == (4, 4) and Q.tobytes() == np.diag(d).tobytes()
            assert not Q.flags.writeable and p.Q is Q
        # a -0.0 off the diagonal keeps Q dense; a d of the wrong length or non-finite is refused
        negative_zero = np.diag(d)
        negative_zero[0, 1] = -0.0
        assert "Q" in vars(make_problem(Q=negative_zero, c=np.zeros(4)))
        with pytest.raises(ValueError, match=r"Q has shape \(3,\), expected \(4,\)"):
            make_problem(Q=np.ones(3), c=np.zeros(4))
        with pytest.raises(ValueError, match="Q has non-finite entries"):
            make_problem(Q=[1.0, np.nan], c=np.zeros(2))
        with pytest.raises(AttributeError, match="no attribute 'P'"):
            make_problem(Q=d, c=np.zeros(4)).P

    def test_instances_compare_by_identity(self):
        p = random_problem(np.random.default_rng(59))
        copy = ProblemData(Q=p.Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
        assert hash(p) == hash(p)
        assert (p == copy) is False
        assert p == p
        assert len({p, copy}) == 2

    def test_files_oracle_and_sweep_do_not_load_scipy(self, tmp_path):
        # importing hieralm, writing and reading a grid file, and running the
        # oracle and the shift sweep on it take numpy alone: a fresh interpreter
        # that does all of them must not load any SciPy module
        src = str(Path(hieralm.problem.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = str(tmp_path / "grid.json")
        code = f"""
import contextlib, io, sys
import hieralm.cli
commands = (
    ["gen-grid", "--rows", "4", "--cols", "4", "--kappa", "0.5", "--out", {path!r}],
    ["oracle", "--problem", {path!r}],
    ["shift-sweep", "--problem", {path!r}],
)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hieralm.cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_repr_does_not_build_a_stored_diagonal(self):
        # a stored diagonal shows as the 1-D Q it is built from; the generated
        # repr would have built the n x n Q
        n = 3000
        p = make_problem(Q=np.full(n, 2.0), c=np.zeros(n), A1=np.ones((1, n)), b1=[1.0])
        text = repr(p)
        assert "Q" not in vars(p)
        assert text == (
            f"ProblemData(Q={p.q_diagonal!r}, c={p.c!r}, A1={p.A1!r}, b1={p.b1!r}, "
            f"A2={p.A2!r}, b2={p.b2!r})"
        )
        # a dense Q keeps the generated repr's text
        dense = make_problem(Q=[[2.0, 1.0], [1.0, 2.0]], c=[0.0, 1.0], A2=[[1.0, 0.0]], b2=[3.0])
        assert repr(dense) == (
            f"ProblemData(Q={dense.Q!r}, c={dense.c!r}, A1={dense.A1!r}, b1={dense.b1!r}, "
            f"A2={dense.A2!r}, b2={dense.b2!r})"
        )

    def test_empty_blocks_get_column_count(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0])
        assert p.A1.shape == (0, 2)
        assert p.A2.shape == (0, 2)
        assert p.m == 0
        assert p.A.shape == (0, 2)
        assert p.b.shape == (0,)
        # one empty block keeps its (0, n) shape beside the other; an empty
        # input of any column count is normalized
        rows = [[1.0, 2.0]]
        for kwargs, (m1, m2) in (
            ({"A1": np.zeros((0, 5)), "b1": [], "A2": rows, "b2": [1.0]}, (0, 1)),
            ({"A1": rows, "b1": [1.0], "A2": np.zeros((0, 0)), "b2": []}, (1, 0)),
        ):
            p = ProblemData(Q=np.eye(2), c=[0.0, 0.0], **kwargs)
            assert (p.m1, p.m2, p.m) == (m1, m2, 1)
            assert (p.A1.shape, p.A2.shape) == ((m1, 2), (m2, 2))
            assert (p.b1.shape, p.b2.shape) == ((m1,), (m2,))
            assert np.array_equal(p.A, rows) and np.array_equal(p.b, [1.0])

    def test_left_null_basis(self):
        # every case against 50-digit singular values and projector of the same data
        for case, (A1, A2) in _left_null_cases().items():
            n = A1.shape[1]
            b1, b2 = np.zeros(len(A1)), np.zeros(len(A2))
            p = make_problem(Q=np.eye(n), c=np.zeros(n), A1=A1, b1=b1, A2=A2, b2=b2)
            N = p.left_null
            assert N.flags.c_contiguous and not N.flags.writeable, case
            assert p.left_null is N, case
            if p.m == 0:
                assert N.shape == (0, 0), case
                continue
            rank, s, P = _mp_left_null(p.A)
            m, k = p.m, p.m - rank
            tol = max(m, n) * EPS * s[0]
            # no singular value sits within a factor 10 of the cutoff, so the
            # rank decision is not decided by rounding
            assert all(not tol / 10 <= v <= 10 * tol for v in s), (case, s, tol)
            assert N.shape == (m, k), case
            assert np.abs(N.T @ N - np.eye(k)).max(initial=0.0) <= 1e-13, case
            # Wedin: the null space of the float data moves by eps * s_max over
            # the gap to the smallest kept singular value
            err = np.abs(N @ N.T - P).max()
            assert err <= 8 * max(m, n) * EPS * s[0] / s[rank - 1], (case, err)
        assert "left_null" not in {f.name for f in dataclasses.fields(p)}

    def test_left_null_cases_straddle_the_cutoff(self):
        # the near-dependent rows put one singular value 100x above and 100x
        # below max(m, n) * eps * s_max, and the rank follows
        cases = _left_null_cases()
        for case, ratio, rank in (
            ("near-dependent-above", 100.0, 4),
            ("near-dependent-below", 0.01, 3),
        ):
            A = np.vstack(cases[case])
            got, s, _ = _mp_left_null(A)
            assert got == rank, case
            # s[3] is the near-dependent pair's; max(m, n) = 6
            assert s[3] / (6 * EPS * s[0]) == pytest.approx(ratio), case
            assert s[4] <= 1e-30, case  # the exact copy in A2

    def test_left_null_logs_its_route(self, caplog):
        def route(A1, A2):
            n = A1.shape[1]
            p = make_problem(
                Q=np.eye(n), c=np.zeros(n), A1=A1, b1=np.zeros(len(A1)), A2=A2, b2=np.zeros(len(A2))
            )
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hieralm.problem"):
                p.left_null
                p.left_null  # cached: no second line
            (line,) = [r.getMessage() for r in caplog.records if "left_null" in r.getMessage()]
            return line

        p, _ = build_instance(GridSpec(20, 20, kappa=0.5))
        assert route(p.A1, p.A2).startswith("left_null: gram route, k = 1;")
        cases = _left_null_cases()
        # the 50-digit test above covers the Gram route through these two
        assert route(*cases["grid-3x3"]).startswith("left_null: gram route, k = 1;")
        assert route(*cases["two-grids"]).startswith("left_null: gram route, k = 2;")
        # the near-dependent pair sits 100x above the cutoff, which G cannot resolve:
        # its candidate keeps that pair's direction and fails ||A'N|| <= cutoff / 10
        line = route(*cases["near-dependent-above"])
        assert line.startswith("left_null: qr-svd route, k = 1; Gram candidate k = 2,"), line
        # a singular value whose square sits 3 bands above zero, with the band
        # 2 eps ||A||_F^2: kept on both routes, but within ten bands of G's round-off
        t = np.sqrt(3 * 2 * EPS)
        line = route(np.array([[1.0, 0.0]]), np.array([[0.0, t]]))
        assert line.startswith("left_null: qr-svd route, k = 0; Gram candidate k = 0,"), line
        # so does a Gram that overflows, with no floating-point warning
        line = route(*cases["scaled-1e200"])
        assert line == "left_null: qr-svd route, k = 2; Gram rounding band inf is not a normal number"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        graph=st.booleans(),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
    )
    def test_certified_gram_basis_matches_the_svd_route(self, seed, graph, scale):
        # a random graph's incidence, or dense rows with exact duplicates; rows
        # permuted, the whole scaled
        rng = np.random.default_rng(seed)
        if graph:
            nodes, edges = int(rng.integers(2, 13)), int(rng.integers(1, 41))
            A = np.zeros((nodes, edges))
            for j in range(edges):
                head, tail = rng.choice(nodes, 2, replace=False)
                A[head, j], A[tail, j] = 1.0, -1.0
        else:
            n = int(rng.integers(1, 41))
            base = rng.standard_normal((int(rng.integers(1, min(n, 12) + 1)), n))
            A = np.vstack((base, base[rng.integers(0, len(base), int(rng.integers(1, 9)))]))
        A = scale * A[rng.permutation(len(A))]
        N, _ = hieralm.problem._gram_left_null(A)
        if N is None:
            return
        ref = hieralm.problem._svd_left_null(A)
        assert N.shape == ref.shape
        m, n = A.shape
        s = np.linalg.svd(A, compute_uv=False)
        rank = m - ref.shape[1]
        err = np.abs(N @ N.T - ref @ ref.T).max()
        assert err <= 8 * max(m, n) * EPS * s[0] / s[rank - 1], err

    def test_rejects_wrong_rank_arrays(self):
        # a 1-D Q is its diagonal
        with pytest.raises(ValueError, match=r"Q must be 1-D \(its diagonal\) or 2-D, got ndim=3"):
            ProblemData(
                Q=np.ones((2, 2, 2)),
                c=np.zeros(2),
                A1=np.zeros((0, 2)),
                b1=np.zeros(0),
                A2=np.zeros((0, 2)),
                b2=np.zeros(0),
            )
        with pytest.raises(ValueError, match="c must be 1-D"):
            make_problem(Q=np.eye(2), c=np.eye(2))

    def test_rejects_every_non_finite_array(self):
        arrays = {
            "Q": np.eye(2),
            "c": np.zeros(2),
            "A1": np.ones((1, 2)),
            "b1": np.ones(1),
            "A2": np.ones((2, 2)),
            "b2": np.ones(2),
        }
        for name, clean in arrays.items():
            for value in (np.nan, np.inf, -np.inf):
                bad = clean.copy()
                bad.flat[-1] = value
                with pytest.raises(ValueError) as exc:
                    ProblemData(**{**arrays, name: bad})
                assert str(exc.value) == f"{name} has non-finite entries", (name, value)


class TestValidateProblem:
    def test_clean_instance(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
            assert validate_problem(random_problem(np.random.default_rng(0))) is None
        assert not caplog.records

    def test_dimension_mismatches(self):
        with pytest.raises(ValueError) as exc:
            make_problem(
                Q=np.eye(3),
                c=[0.0, 0.0],
                A1=[[1.0, 0.0], [0.0, 1.0]],
                b1=[1.0],
            )
        assert "Q has shape (3, 3)" in str(exc.value)
        assert "b1 has length 1" in str(exc.value)

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="A1 has 3 columns, expected 2"):
            make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=[[1.0, 2.0, 3.0]], b1=[1.0])

    def test_empty_decision_vector(self):
        with pytest.raises(ValueError, match=r"^empty decision vector \(n = 0\)$"):
            make_problem(Q=np.zeros((0, 0)), c=[])

    def test_non_finite_entries(self):
        with pytest.raises(ValueError, match="c has non-finite"):
            make_problem(Q=np.eye(1), c=[np.nan])

    def test_asymmetric_q(self):
        p = make_problem(Q=[[1.0, 2.0], [0.0, 1.0]], c=[0.0, 0.0])
        with pytest.raises(ValueError, match="invalid problem: Q is not symmetric"):
            validate_problem(p)

    def test_indefinite_q(self):
        p = make_problem(Q=[[1.0, 0.0], [0.0, -1.0]], c=[0.0, 0.0])
        with pytest.raises(ValueError, match="invalid problem: Q is not positive semidefinite"):
            validate_problem(p)

    def test_singular_q_is_only_a_warning(self, caplog):
        p = make_problem(Q=[[1.0, 0.0], [0.0, 0.0]], c=[0.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
            validate_problem(p)
        assert [rec.levelno for rec in caplog.records] == [logging.WARNING]
        assert "singular" in caplog.records[0].message

    def test_semidefiniteness_findings_match_eigenvalue_rule(self, caplog):
        def eigenvalue_rule(Q):
            # the definition: thresholds on the smallest eigenvalue of sym(Q)
            scale = 1.0 + float(np.linalg.norm(Q, np.inf))
            lam_min = float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min())
            if lam_min < -1e-8 * scale:
                return [f"Q is not positive semidefinite (min eigenvalue {lam_min:.3e})"], []
            if lam_min <= 1e-10 * scale:
                return [], [f"Q is singular (min eigenvalue {lam_min:.3e})"]
            return [], []

        rng = np.random.default_rng(58)
        relative = (3e-10, 2.5e-10, 2e-10, 1.5e-10, 1e-10, 5e-11, 0.0, -5e-9, -1e-8, -2e-8)
        flagged = 0
        for n in (1, 2, 7, 40):
            rest = rng.uniform(1.0, 2.0, n - 1)
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            for rotate in (False, True):

                def build(lam_min):
                    d = np.concatenate([[lam_min], rest])
                    if not rotate:
                        return np.diag(d)
                    Q = (V * d) @ V.T
                    return 0.5 * (Q + Q.T)

                # lam_min = t * scale, taking the scale of the lam_min = 0 matrix
                scale = 1.0 + float(np.linalg.norm(build(0.0), np.inf))
                for t in relative:
                    Q = build(t * scale)
                    p = make_problem(Q=Q, c=np.zeros(n))
                    errors, warnings = eigenvalue_rule(Q)
                    caplog.clear()
                    with caplog.at_level(logging.WARNING, logger="hieralm.problem"):
                        if errors:
                            with pytest.raises(ValueError) as exc:
                                validate_problem(p)
                            assert str(exc.value) == "invalid problem: " + "; ".join(errors)
                        else:
                            validate_problem(p)
                    assert [rec.message for rec in caplog.records] == warnings, (n, rotate, t)
                    flagged += bool(errors or warnings)
        assert 0 < flagged < 80


class TestObjectiveAndResiduals:
    def test_frozen_value(self):
        p = make_problem(Q=[[2.0, 0.0], [0.0, 2.0]], c=[1.0, -1.0])
        assert objective_value(p, np.array([3.0, 4.0])) == pytest.approx(24.0)

    def test_zero_point(self):
        p = random_problem(np.random.default_rng(1))
        assert objective_value(p, np.zeros(p.n)) == 0.0

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_problem(rng)
            x = rng.uniform(-2.0, 2.0, p.n)
            naive = 0.5 * sum(
                x[i] * p.Q[i, j] * x[j] for i in range(p.n) for j in range(p.n)
            ) + sum(p.c[i] * x[i] for i in range(p.n))
            assert objective_value(p, x) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_rejects_wrong_shape(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0])
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            objective_value(p, np.zeros(3))

    def test_plain_residuals(self):
        p = make_problem(
            Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(2), b1=[1.0, 2.0], A2=[[1.0, 1.0]], b2=[0.0]
        )
        r1, r2 = constraint_residuals(p, np.array([3.0, 4.0]))
        assert np.array_equal(r1, [2.0, 2.0])
        assert np.array_equal(r2, [7.0])

    def test_shifted_residuals(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(2), b1=[1.0, 2.0])
        shift = HierarchicalShift(np.array([1.0, -1.0]), np.zeros(0))
        r1, _ = constraint_residuals(p, np.array([3.0, 4.0]), shift)
        assert np.array_equal(r1, [3.0, 1.0])

    def test_rejects_mismatched_shift(self):
        p = make_problem(Q=np.eye(2), c=[0.0, 0.0], A1=np.eye(2), b1=[1.0, 2.0])
        bad = HierarchicalShift(np.zeros(1), np.zeros(0))
        with pytest.raises(ValueError, match="block sizes"):
            constraint_residuals(p, np.zeros(2), bad)


class TestShiftContainer:
    def test_zero_shift(self):
        s = HierarchicalShift.zero(3, 2)
        assert np.array_equal(s.s1, np.zeros(3))
        assert np.array_equal(s.s2, np.zeros(2))

    def test_vectors_read_only(self):
        s = HierarchicalShift.zero(2, 0)
        with pytest.raises(ValueError):
            s.s1[0] = 1.0


class TestFileRoundTrip:
    def test_dense_round_trip_is_bit_exact(self, tmp_path):
        p = random_problem(np.random.default_rng(5), allow_empty=False)
        path = tmp_path / "instance.json"
        save_problem(p, path)
        q = load_problem(path)
        for name in ("Q", "c", "A1", "b1", "A2", "b2"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name

    def test_sparse_round_trip(self, tmp_path):
        p, meta = build_instance(GridSpec(4, 4, kappa=0.25))
        # a negative zero among the implicit zeros must still come back as -0.0
        A1 = p.A1.copy()
        A1[0, np.flatnonzero(A1[0] == 0)[0]] = -0.0
        p = dataclasses.replace(p, A1=A1)
        path = tmp_path / "grid.json"
        save_problem(p, path, meta=meta)
        text = path.read_text()
        assert '"coo"' in text
        q = load_problem(path)
        for name in ("Q", "c", "A1", "b1", "A2", "b2"):
            assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name

    def test_meta_is_stored_but_not_required(self, tmp_path):
        p = make_problem(Q=np.eye(1), c=[0.5], A1=[[1.0]], b1=[2.0])
        doc = problem_document(p, meta={"origin": "unit-test"})
        assert doc["meta"] == {"origin": "unit-test"}
        path = tmp_path / "inst.json"
        save_problem(p, path, meta={"origin": "unit-test"})
        assert load_problem(path).b1[0] == 2.0

    def test_document_rejects_non_finite(self):
        # no document can hold a non-finite value: no ProblemData holds one
        with pytest.raises(ValueError, match="c has non-finite entries"):
            make_problem(Q=np.eye(1), c=[np.inf])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), sparse=st.booleans())
    def test_any_values_round_trip_bit_exact(self, tmp_path_factory, data, sparse):
        # n >= 17 gives every matrix more than 256 cells, so a few nonzeros are
        # written as coo; n <= 3 keeps them dense
        n = data.draw(st.integers(17, 20) if sparse else st.integers(1, 3))
        m1, m2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        extremes = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(extremes),
            st.integers(-(2**60), 2**60).map(float),
        )

        def matrix(rows):
            if not sparse:
                return vector(rows * n).reshape(rows, n)
            out = np.zeros((rows, n))
            cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, n - 1), cell)
            for i, j, v in data.draw(st.lists(cells, max_size=8 if rows else 0)):
                out[i, j] = v
            return out

        def vector(length):
            return np.array(data.draw(st.lists(cell, min_size=length, max_size=length)))

        p = ProblemData(
            Q=matrix(n), c=vector(n), A1=matrix(m1), b1=vector(m1), A2=matrix(m2), b2=vector(m2)
        )
        path = tmp_path_factory.mktemp("round") / "instance.json"
        save_problem(p, path)
        assert ('"coo"' in path.read_text()) == sparse
        q = load_problem(path)
        for name in ("Q", "c", "A1", "b1", "A2", "b2"):
            a, b = getattr(p, name), getattr(q, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_zero_row_blocks_round_trip(self, tmp_path):
        p = make_problem(Q=np.eye(2), c=[1.0, 2.0])
        path = tmp_path / "empty.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.A1.shape == (0, 2)
        assert q.m2 == 0

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(72)
        d = np.array([2.0, -0.0, 0.0, 5e-324] + [1.5] * 13)
        negative_zero = np.diag(d)
        negative_zero[0, 16] = negative_zero[16, 0] = -0.0
        instances = (
            [random_problem(rng) for _ in range(10)]
            + [boxed_oracle_problem(rng) for _ in range(5)]
            + _diagonal_q_problems()
            + _sparse_a_problems()
            + [build_instance(GridSpec(r, c, kappa=0.5))[0] for r, c in ((2, 1), (4, 4), (20, 20))]
            + [make_problem(Q=Q, c=np.ones(17)) for Q in (d, np.diag(d), negative_zero)]
        )
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        for i, p in enumerate(instances):
            save_problem(p, first)
            save_problem(load_problem(first), second)
            assert first.read_bytes() == second.read_bytes(), i

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 40])
    def test_stored_diagonal_encodes_as_its_matrix(self, n):
        # n = 16 is the last dense encoding, 256 cells; n = 17 the first coo one
        d = np.random.default_rng(n).uniform(-2.0, 2.0, n)
        d[::3] = 0.0
        d[1::4] = -0.0
        p = make_problem(Q=d, c=np.zeros(n))
        expected = json.dumps(hieralm.problem._encode_matrix(np.diag(d)))
        assert json.dumps(problem_document(p)["Q"]) == expected
        assert ("Q" in vars(p)) == (n * n <= 256)  # a coo encoding forms no n x n array

    @pytest.mark.parametrize(
        "rows, cols, values", [([], [], []), ([0, 5, 999_999], [0, 5, 999_999], [2.0, -0.0, 3.0])]
    )
    def test_diagonal_coo_q_loads_as_its_diagonal(self, tmp_path, rows, cols, values):
        # n = 10^6: the dense Q would need 8 TB, the diagonal needs 8 MB
        n = 1_000_000
        p = load_problem(_write_doc(tmp_path, _unconstrained_with_coo_q(n, rows, cols, values)))
        expected = np.zeros(n)
        expected[rows] = values
        assert p.q_diagonal.tobytes() == expected.tobytes()
        assert json.dumps(problem_document(p)["Q"]) == json.dumps(_coo(rows, cols, values))
        assert "Q" not in vars(p)


def _write_doc(tmp_path, mutate):
    p = make_problem(
        Q=np.eye(2), c=[0.0, 1.0], A1=[[1.0, 0.0]], b1=[1.0], A2=[[0.0, 1.0]], b2=[2.0]
    )
    doc = problem_document(p)
    mutate(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


def _coo(rows, cols, values):
    return {"coo": {"rows": rows, "cols": cols, "values": values}}


def _unconstrained_with_coo_q(n, rows=(), cols=(), values=()):
    """A mutation declaring n, with n zeros in c, a COO Q of these entries and no constraints."""
    Q = _coo(list(rows), list(cols), list(values))
    return lambda d: d.update(n=n, m1=0, m2=0, c=[0] * n, Q=Q, A1=[], b1=[], A2=[], b2=[])


# one entry off the diagonal, so that a COO Q is dense
OFF_DIAGONAL = ([0], [1], [1.0])


# one fault per file; the message names the first offending entry
SINGLE_FAULTS = {
    "int-beyond-double": ("c", [10**400, 1.0], "c[0]: non-finite value"),
    "negative-int-beyond-double": ("c", [0.0, -(10**400)], "c[1]: non-finite value"),
    "dense-int-beyond-double": ("A1", [[1.0, 10**400]], "A1[0][1]: non-finite value"),
    "dense-null": ("A1", [[1.0, None]], "A1[0][1]: expected a number, got NoneType"),
    "dense-bool": ("A2", [[0.0, True]], "A2[0][1]: expected a number, got bool"),
    "coo-bool-row": (
        "Q", _coo([0, True], [0, 1], [1.0, 1.0]), "Q.coo.rows[1]: expected an integer index"
    ),
    "coo-float-index": (
        "Q", _coo([0, 1], [0, 1.0], [1.0, 1.0]), "Q.coo.cols[1]: expected an integer index"
    ),
    "coo-negative-index": (
        "Q", _coo([-1, 1], [0, 1], [1.0, 1.0]), "Q.coo.rows[0]: index -1 out of range [0, 2)"
    ),
    "coo-index-beyond-int64": (
        "Q",
        _coo([0, 1], [0, 10**30], [1.0, 1.0]),
        f"Q.coo.cols[1]: index {10**30} out of range [0, 2)",
    ),
    # (1, 1) repeats at position 2, before (0, 1) repeats at position 3
    "coo-duplicate-second-occurrence": (
        "Q", _coo([0, 1, 1, 0], [1, 1, 1, 1], [1.0, 2.0, 3.0, 4.0]),
        "Q.coo: duplicate entry at (1, 1)",
    ),
    "coo-string-value": (
        "Q", _coo([0, 1], [0, 1], [1.0, "x"]), "Q.coo.values[1]: expected a number, got str"
    ),
    "coo-int-beyond-double": (
        "Q", _coo([0, 1], [0, 1], [10**400, 1.0]), "Q.coo.values[0]: non-finite value"
    ),
}


class TestLoadErrors:
    @pytest.mark.parametrize("field, value, message", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS)
    def test_single_fault_names_entry(self, tmp_path, field, value, message):
        path = _write_doc(tmp_path, lambda d: d.update({field: value}))
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "declared, message",
        [
            ({"n": 10**12, "Q": _coo([], [], [])}, "c: has length 1, declared 1000000000000"),
            (
                {"m1": 10**12, "A1": _coo([], [], []), "b1": []},
                "b1: has length 0, declared 1000000000000",
            ),
        ],
        ids=["n", "m1"],
    )
    def test_oversized_dimension_is_bounded_by_its_vector(self, tmp_path, declared, message):
        # the vector's length is checked before the COO matrix is allocated from the
        # declared size, which would raise "array is too big" for n and MemoryError for m1
        doc = problem_document(make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0]))
        doc.update(declared)
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        assert str(exc.value) == message

    def test_coo_beyond_physical_memory_is_refused(self, tmp_path):
        # c confirms n = 10^6, but the dense Q needs 8 TB; the check runs before any allocation
        n = 1_000_000
        path = _write_doc(tmp_path, _unconstrained_with_coo_q(n, *OFF_DIAGONAL))
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        message = str(exc.value)
        assert message.startswith(
            "Q: a dense 1000000x1000000 matrix needs 8000000000000 bytes, more than this "
            "machine's "
        )
        assert message.endswith(" bytes of memory") and "\n" not in message

    def test_coo_allocation_failure_is_a_format_error(self, tmp_path, monkeypatch):
        # where the OS does not report its memory, a failed allocation is the same error
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                raise MemoryError("Unable to allocate")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(hieralm.problem, "_physical_memory", lambda: None)
        monkeypatch.setattr(np, "zeros", failing_zeros)
        n = 2_000
        path = _write_doc(tmp_path, _unconstrained_with_coo_q(n, *OFF_DIAGONAL))
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        assert str(exc.value) == (
            "Q: a dense 2000x2000 matrix needs 32000000 bytes, which could not be allocated"
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError, match="cannot read"):
            load_problem(tmp_path / "nope.json")

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "hieralm-problem", "n": }')
        with pytest.raises(ProblemFormatError, match="line 1 column"):
            load_problem(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ProblemFormatError, match="top level"):
            load_problem(path)

    def test_wrong_format_name(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(format="other"))
        with pytest.raises(ProblemFormatError, match="not a hieralm-problem file"):
            load_problem(path)

    def test_missing_dimension(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.pop("n"))
        with pytest.raises(ProblemFormatError, match="missing field 'n'"):
            load_problem(path)

    def test_missing_matrix(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.pop("Q"))
        with pytest.raises(ProblemFormatError, match="missing field 'Q'"):
            load_problem(path)

    def test_negative_dimension(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(m1=-1))
        with pytest.raises(ProblemFormatError, match="nonnegative integer"):
            load_problem(path)

    def test_boolean_dimension(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(m1=True))
        with pytest.raises(ProblemFormatError, match="nonnegative integer"):
            load_problem(path)

    def test_empty_decision_vector(self, tmp_path):
        empty = {"n": 0, "m1": 0, "m2": 0, "Q": [], "c": [], "A1": [], "b1": [], "A2": [], "b2": []}
        path = _write_doc(tmp_path, lambda d: d.update(empty))
        with pytest.raises(ProblemFormatError, match=r"broken\.json: empty decision vector"):
            load_problem(path)

    def test_row_count_mismatch(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(A1=[[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ProblemFormatError, match="A1: has 2 rows, declared 1"):
            load_problem(path)

    def test_column_count_mismatch(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(A1=[[1.0]]))
        with pytest.raises(ProblemFormatError, match=r"A1\[0\]: has 1 entries"):
            load_problem(path)

    def test_vector_length_mismatch(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(b2=[1.0, 2.0]))
        with pytest.raises(ProblemFormatError, match="b2: has length 2"):
            load_problem(path)

    def test_string_cell(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(c=[0.0, "x"]))
        with pytest.raises(ProblemFormatError, match=r"c\[1\]: expected a number"):
            load_problem(path)

    def test_boolean_cell(self, tmp_path):
        path = _write_doc(tmp_path, lambda d: d.update(b1=[True]))
        with pytest.raises(ProblemFormatError, match=r"b1\[0\]: expected a number"):
            load_problem(path)

    def test_overflowing_literal(self, tmp_path):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0])
        doc = problem_document(p)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"b1": [1.0]', '"b1": [1e999]'))
        with pytest.raises(ProblemFormatError, match="non-finite"):
            load_problem(path)

    def test_infinity_literal(self, tmp_path):
        p = make_problem(Q=np.eye(1), c=[0.0], A1=[[1.0]], b1=[1.0])
        doc = problem_document(p)
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace('"b1": [1.0]', '"b1": [Infinity]'))
        with pytest.raises(ProblemFormatError, match="non-finite literal"):
            load_problem(path)

    def test_coo_requires_exact_keys(self, tmp_path):
        path = _write_doc(
            tmp_path, lambda d: d.update(Q={"coo": {"rows": [0], "cols": [0]}})
        )
        with pytest.raises(ProblemFormatError, match="expected keys rows, cols, values"):
            load_problem(path)

    def test_coo_length_mismatch(self, tmp_path):
        path = _write_doc(
            tmp_path,
            lambda d: d.update(Q={"coo": {"rows": [0, 1], "cols": [0], "values": [1.0]}}),
        )
        with pytest.raises(ProblemFormatError, match="differ in length"):
            load_problem(path)

    def test_coo_duplicate_entry(self, tmp_path):
        path = _write_doc(
            tmp_path,
            lambda d: d.update(
                Q={"coo": {"rows": [0, 0], "cols": [0, 0], "values": [1.0, 2.0]}}
            ),
        )
        with pytest.raises(ProblemFormatError, match="duplicate entry"):
            load_problem(path)

    def test_coo_index_out_of_range(self, tmp_path):
        path = _write_doc(
            tmp_path, lambda d: d.update(Q={"coo": {"rows": [5], "cols": [0], "values": [1.0]}})
        )
        with pytest.raises(ProblemFormatError, match="out of range"):
            load_problem(path)

    def test_coo_decodes_correctly(self, tmp_path):
        path = _write_doc(
            tmp_path,
            lambda d: d.update(
                Q={"coo": {"rows": [0, 1], "cols": [0, 1], "values": [3, 4.0]}}
            ),
        )
        q = load_problem(path)
        assert np.array_equal(q.Q, [[3.0, 0.0], [0.0, 4.0]])
