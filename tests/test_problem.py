"""Problem container, validation, objective/residual helpers, and file round trips."""

from __future__ import annotations

import dataclasses
import hashlib
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

import hieralm.alm
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


def _path(nodes: int) -> np.ndarray:
    """The incidence of a path: arc j runs from node j to node j + 1."""
    A = np.zeros((nodes, nodes - 1))
    A[np.arange(nodes - 1), np.arange(nodes - 1)] = 1.0
    A[np.arange(1, nodes), np.arange(nodes - 1)] = -1.0
    return A


def _left_null_cases() -> dict:
    """(A1, A2) pairs covering each shape of R = qr(A')'s R and each rank regime,
    one whose A A' overflows, three graph incidences that take the incidence
    route, and two of them doubled, which take the qr-svd route."""
    rng = np.random.default_rng(5)
    tall = rng.uniform(-2.0, 2.0, (4, 2))  # m > n: R is 2 x 4, trapezoidal
    wide = rng.uniform(-2.0, 2.0, (3, 5))  # m < n: full row rank, k = 0
    dup = rng.uniform(-2.0, 2.0, (4, 4))
    dup[2] = dup[0]
    col = rng.uniform(-2.0, 2.0, (3, 1))
    grid = build_instance(GridSpec(3, 3))[0]  # connected: k = 1
    # a 3x3 grid beside a 2x4 grid: two components, a repeated zero eigenvalue
    two = block_diag(grid_incidence(3, 3)[0], grid_incidence(2, 4)[0])
    # a 2x3 grid and a 3-node path among 3 zero rows, shuffled: five components
    lone = block_diag(grid_incidence(2, 3)[0], _path(3), np.zeros((3, 1)))[rng.permutation(12)]
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
        "isolated-rows": (lone[:4], lone[4:]),
        # doubled, they are no incidence matrices and take the qr-svd route
        "grid-3x3-doubled": (2 * grid.A1, 2 * grid.A2),
        "two-grids-doubled": (2 * two[:12], 2 * two[12:]),
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


def _left_null_line(caplog, A1: np.ndarray, A2: np.ndarray) -> str:
    """The DEBUG line that building left_null logs for the blocks A1 and A2."""
    n = A1.shape[1]
    p = make_problem(
        Q=np.ones(n), c=np.zeros(n), A1=A1, b1=np.zeros(len(A1)), A2=A2, b2=np.zeros(len(A2))
    )
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hieralm.problem"):
        p.left_null
    (line,) = [r.getMessage() for r in caplog.records if "left_null" in r.getMessage()]
    return line


def _kept_margin(line: str) -> float:
    """The least kept singular value / cutoff, as a qr-svd line words it."""
    return float(line.split("least kept singular value / cutoff = ")[1])


def _grid(size: int, seed: int = 0) -> ProblemData:
    """The size x size grid at kappa 0.5, kept as triplets; seeds 1-3 permute its
    rows within each block and its columns as the benchmark does, and give it dense."""
    p, _ = build_instance(GridSpec(size, size, kappa=0.5))
    if seed == 0:
        return p
    rng = np.random.default_rng(seed)
    r1, r2, col = rng.permutation(p.m1), rng.permutation(p.m2), rng.permutation(p.n)
    return ProblemData(
        Q=p.q_diagonal[col], c=p.c[col], A1=p.A1[np.ix_(r1, col)], b1=p.b1[r1],
        A2=p.A2[np.ix_(r2, col)], b2=p.b2[r2],
    )


def _sparse_matrix(seed: int, scale: float) -> np.ndarray:
    """A random m x n matrix, m <= 30 and n <= 60, with at most a quarter of its
    cells nonzero, standard normal times ``scale``: sparse by the COO rule."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 31)), int(rng.integers(1, 61))
    A = np.zeros((m, n))
    cells = rng.choice(m * n, int(rng.integers(1, m * n // 4 + 2)) - 1, replace=False)
    A.flat[cells] = scale * rng.standard_normal(cells.size)
    return A


def _with_triplets(p: ProblemData) -> ProblemData:
    """``p``'s data, with A handed in as the triplets of its blocks."""
    scanned = hieralm.problem._scanned
    return ProblemData(
        Q=p.Q, c=p.c, A1=scanned(p.A1), b1=p.b1, A2=scanned(p.A2), b2=p.b2
    )


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
        # that does all of them must not load any SciPy module. The grid takes
        # the incidence route; the same grid with its values doubled, saved as
        # COO, takes the qr-svd route
        src = str(Path(hieralm.problem.__file__).resolve().parents[1])
        env = {
            **os.environ, "HIERALM_LOG": "debug",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        path, doubled = str(tmp_path / "grid.json"), str(tmp_path / "doubled.json")
        p, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        doc = problem_document(p)
        for name, (lo, hi) in (("A1", (0, p.m1)), ("A2", (p.m1, p.m))):
            block = p._a_triplets.block(lo, hi)
            doc[name] = hieralm.problem._encode_coo(block.rows, block.cols, 2.0 * block.values)
        Path(doubled).write_text(json.dumps(doc))
        code = f"""
import contextlib, io, sys
import hieralm.cli
commands = (
    ["gen-grid", "--rows", "4", "--cols", "4", "--kappa", "0.5", "--out", {path!r}],
    ["oracle", "--problem", {path!r}],
    ["shift-sweep", "--problem", {path!r}],
    ["oracle", "--problem", {doubled!r}],
    ["shift-sweep", "--problem", {doubled!r}],
)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hieralm.cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60, capture_output=True,
            text=True,
        )
        routes = [line.split(",")[0] for line in run.stderr.splitlines() if "left_null:" in line]
        assert routes == 2 * ["DEBUG hieralm.problem: left_null: incidence route"] + 2 * [
            "DEBUG hieralm.problem: left_null: qr-svd route"
        ], run.stderr

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
        assert route(p.A1, p.A2).startswith("left_null: incidence route, k = 1;")
        # a graph's values doubled make no incidence matrix: the qr-svd route
        assert route(2 * p.A1, 2 * p.A2).startswith("left_null: qr-svd route, k = 1; cutoff ")
        cases = _left_null_cases()
        # the 50-digit test above covers both routes through these
        assert route(*cases["grid-3x3"]).startswith("left_null: incidence route, k = 1;")
        assert route(*cases["two-grids"]).startswith("left_null: incidence route, k = 2;")
        assert route(*cases["grid-3x3-doubled"]).startswith("left_null: qr-svd route, k = 1;")
        assert route(*cases["two-grids-doubled"]).startswith("left_null: qr-svd route, k = 2;")
        # the qr-svd line gives the cutoff, and how far above it the least kept
        # singular value lies: the near-dependent pair's, 100 times
        line = route(*cases["near-dependent-above"])
        assert line.startswith("left_null: qr-svd route, k = 1; cutoff "), line
        assert _kept_margin(line) == pytest.approx(100.0, rel=1e-2), line
        # the pair 100 times below the cutoff is dropped, and the least kept
        # value is the next one, far above it
        A = np.vstack(cases["near-dependent-below"])
        s = np.linalg.svd(A, compute_uv=False)
        line = route(*cases["near-dependent-below"])
        assert line.startswith(f"left_null: qr-svd route, k = 2; cutoff {6 * EPS * s[0]:.2e}, ")
        assert _kept_margin(line) == pytest.approx(s[2] / (6 * EPS * s[0]), rel=1e-2), line
        # an A whose A A' would overflow, with no floating-point warning
        line = route(*cases["scaled-1e200"])
        assert line.startswith("left_null: qr-svd route, k = 2; cutoff "), line
        # no rows: no singular value, and a cutoff of zero
        line = route(np.zeros((0, 2)), np.zeros((0, 2)))
        assert line == "left_null: qr-svd route, k = 0; cutoff 0.00e+00, no singular value kept"
        # a subnormal s_max whose cutoff underflows to zero, with no warning
        line = route(np.array([[1e-310]]), np.zeros((0, 1)))
        assert line == (
            "left_null: qr-svd route, k = 0; cutoff 0.00e+00, "
            "least kept singular value / cutoff = inf"
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        graph=st.booleans(),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
    )
    def test_certified_gram_basis_matches_the_svd_route(self, seed, graph, scale):
        # the solver's eigenbasis setup keeps eigh's split of K = A D^-1 A' only
        # where its certificate holds; with D = I, the null space it drops,
        # I - U U', is then that of the qr-svd route. A random graph's
        # incidence, or dense rows with exact duplicates; rows permuted, the
        # whole scaled
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
        m, n = A.shape
        p = make_problem(Q=np.ones(n), c=np.zeros(n), A1=A, b1=np.zeros(m))
        rung = hieralm.alm._Eigenbasis(p, np.ones(n))
        if rung.unfit is not None:
            return
        ref, _ = hieralm.problem._svd_left_null(A)
        s = np.linalg.svd(A, compute_uv=False)
        rank = m - ref.shape[1]
        assert rung.U.shape == (m, rank)
        err = np.abs(np.eye(m) - rung.U @ rung.U.T - ref @ ref.T).max()
        assert err <= 8 * max(m, n) * EPS * s[0] / s[rank - 1], err

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-8, 1.0, 1e8]))
    def test_triplet_route_matches_the_dense_input(self, seed, scale):
        # an instance given A's blocks dense scans them at construction, into
        # the triplets that an instance given them as triplets keeps: the same
        # route, k and N
        A = _sparse_matrix(seed, scale)
        m1 = int(np.random.default_rng(seed).integers(0, A.shape[0] + 1))
        n = A.shape[1]
        dense = make_problem(
            Q=np.ones(n), c=np.zeros(n), A1=A[:m1], b1=np.zeros(m1), A2=A[m1:],
            b2=np.zeros(len(A) - m1),
        )
        sparse = _with_triplets(dense)
        assert "A" not in vars(sparse)
        N, M = sparse.left_null, dense.left_null
        assert N.tobytes() == M.tobytes() and N.shape == M.shape
        # on either route: the qr-svd route makes a dense A for its SVD alone
        assert "A" not in vars(sparse)
        # against the qr-svd route on the dense A, which an A with no entry (a
        # draw of no cells, an incidence matrix with no arc) does not take
        reference, _ = hieralm.problem._svd_left_null(A)
        s = np.linalg.svd(A, compute_uv=False)
        rank = len(A) - N.shape[1]
        assert reference.shape == N.shape
        bound = 8 * max(A.shape) * EPS * s[0] / s[rank - 1] if rank else 0.0
        assert np.abs(N @ N.T - reference @ reference.T).max(initial=0.0) <= bound

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


def _components(seed: int) -> np.ndarray:
    """The incidence of paths of 10 to 40 nodes, a 4x5 grid and 5 zero rows
    (isolated nodes), 160 rows shuffled: one null direction per component."""
    rng = np.random.default_rng(seed)
    parts = [_path(size) for size in (40, 25, 17, 10, 38)]
    parts += [grid_incidence(4, 5)[0], np.zeros((5, 1))]
    A = block_diag(*parts)
    return A[rng.permutation(len(A))]


def _spoiled_grid(fault: str) -> np.ndarray:
    """The 3x3 grid's incidence beside an empty column, with one fault that
    makes it no incidence matrix."""
    A = np.hstack((grid_incidence(3, 3)[0], np.zeros((9, 1))))
    head, tail = np.flatnonzero(A[:, 0] == 1.0)[0], np.flatnonzero(A[:, 0] == -1.0)[0]
    free = [i for i in range(9) if i not in (head, tail)]
    if fault == "value 2.0":
        A[:, 0] *= 2.0  # still one entry of each sign, summing to zero
    elif fault == "stored -0.0":
        A[0, -1] = -0.0
    elif fault == "two +1 entries":
        A[tail, 0] = 1.0
    elif fault == "one entry":
        A[0, -1] = 1.0
    elif fault == "three entries":
        A[free[0], 0] = 1.0
    elif fault == "two arcs in one column":  # four entries, summing to zero
        A[free[:2], 0] = 1.0, -1.0
    return A


class TestIncidenceRoute:
    """A node-arc incidence matrix kept as triplets takes the incidence route:
    N is its row graph's normalized component indicators, with A'N = 0 exactly."""

    @staticmethod
    def _checked_line(caplog, p: ProblemData, k: int) -> str:
        """The line that building p's left_null logs, which names the incidence
        route and k; A'N is exactly zero, N is orthonormal, and its projector
        is the qr-svd route's."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hieralm.problem"):
            N = p.left_null
        (line,) = [r.getMessage() for r in caplog.records if "left_null" in r.getMessage()]
        assert line.startswith(f"left_null: incidence route, k = {k}; s_min bound "), line
        assert N.shape == (p.m, k)
        assert not (N.T @ p.A).any()
        assert np.abs(N.T @ N - np.eye(k)).max() <= 1e-14
        reference, _ = hieralm.problem._svd_left_null(p.A)
        assert np.abs(N @ N.T - reference @ reference.T).max() <= 1e-14
        return line

    @pytest.mark.parametrize(
        "size, seed", [(3, 0), (10, 0), (20, 0), (30, 0), (20, 1), (20, 2), (20, 3), (30, 1)]
    )
    def test_grids_take_the_incidence_route(self, caplog, size, seed):
        # kept as triplets, or given dense with rows and columns permuted as
        # the benchmark's seeds 1-3 do
        p = _grid(size, seed)
        line = self._checked_line(caplog, p, 1)
        # 1/m, and lstsq's cutoff at s_max <= sqrt(2 8): at most 8 arcs meet a node
        bound, cutoff = (float(word) for word in line.split()[-4::3])
        assert bound == pytest.approx(1.0 / p.m, rel=5e-3)
        assert cutoff == pytest.approx(p.n * EPS * 4.0, rel=5e-3)

    @pytest.mark.parametrize("case, k", [("two-grids", 2), ("isolated-rows", 5)])
    def test_components_and_isolated_rows(self, caplog, case, k):
        A1, A2 = _left_null_cases()[case]
        n = A1.shape[1]
        p = make_problem(
            Q=np.ones(n), c=np.zeros(n), A1=A1, b1=np.zeros(len(A1)), A2=A2, b2=np.zeros(len(A2))
        )
        self._checked_line(caplog, p, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_match_the_svd_route(self, seed):
        # multigraphs with isolated nodes and many components, rows shuffled:
        # one indicator per component, in the order of their least rows
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(2, 151))
        A = np.zeros((nodes, int(rng.integers(1, 2 * nodes))))
        for j in range(A.shape[1]):
            A[rng.choice(nodes, 2, replace=False), j] = 1.0, -1.0
        A = A[rng.permutation(nodes)]
        N, _ = hieralm.problem._incidence_left_null(hieralm.problem._scanned(A))
        assert not (N.T @ A).any()
        assert np.abs(N.T @ N - np.eye(N.shape[1])).max() <= 1e-14
        least = [int(np.flatnonzero(column)[0]) for column in N.T]
        assert least == sorted(least)
        reference, _ = hieralm.problem._svd_left_null(A)
        assert np.abs(N @ N.T - reference @ reference.T).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize(
        "fault",
        [
            "value 2.0",
            "stored -0.0",
            "two +1 entries",
            "one entry",
            "three entries",
            "two arcs in one column",
        ],
    )
    def test_any_other_matrix_falls_through_to_the_qr_svd_route(self, caplog, fault):
        A = _spoiled_grid(fault)
        assert hieralm.problem._incidence_left_null(hieralm.problem._scanned(A))[0] is None
        line = _left_null_line(caplog, A[:8], A[8:])
        assert line.startswith("left_null: qr-svd route,"), line

    def test_no_rows_fall_through(self, caplog):
        # m = 0 divides by nothing, and the qr-svd route gives the empty basis
        empty = hieralm.problem._scanned(np.zeros((0, 3)))
        assert hieralm.problem._incidence_left_null(empty)[0] is None
        line = _left_null_line(caplog, np.zeros((0, 3)), np.zeros((0, 3)))
        assert line.startswith("left_null: qr-svd route, k = 0;"), line

    def test_a_cutoff_above_the_bound_falls_through(self, monkeypatch):
        # the 3x3 grid's bound 1/9 against a cutoff of 24 eps' sqrt(2 8), its
        # center meeting 8 arcs: met at eps' = 1e-3, and not at 1e-2
        A = hieralm.problem._scanned(grid_incidence(3, 3)[0])
        monkeypatch.setattr(hieralm.problem, "_EPS", 1e-3)
        N, figures = hieralm.problem._incidence_left_null(A)
        assert N.shape == (9, 1) and figures == "s_min bound 1.11e-01 > cutoff 9.60e-02"
        monkeypatch.setattr(hieralm.problem, "_EPS", 1e-2)
        assert hieralm.problem._incidence_left_null(A)[0] is None


class TestSvdRoute:
    """Any other A takes the qr-svd route: N is the right singular vectors of
    the R factor of A', past lstsq's rank."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_component_and_isolated_row_gives_a_null_direction(self, caplog, seed):
        # five paths, a grid and five zero rows, shuffled, and doubled so that
        # A is no incidence matrix: eleven null directions, whose span is that
        # of the undoubled A's component indicators, within the Wedin bound of
        # test_left_null_basis
        A = _components(seed)
        line = _left_null_line(caplog, 2 * A[:100], 2 * A[100:])
        assert line.startswith("left_null: qr-svd route, k = 11; cutoff "), line
        N, _ = hieralm.problem._svd_left_null(2 * A)
        indicators, _ = hieralm.problem._incidence_left_null(hieralm.problem._scanned(A))
        s = np.linalg.svd(2 * A, compute_uv=False)
        err = np.abs(N @ N.T - indicators @ indicators.T).max()
        assert err <= 8 * max(A.shape) * EPS * s[0] / s[len(A) - 12], err

    def test_a_spread_null_vector_meets_the_wedin_bound(self, caplog):
        # singular values 1 and t, t^2 at 12 rounding bands of the Gram A A',
        # and the null vector (0, 1, 1) / sqrt(2) spread over two rows
        n, bands = 40, 12
        t = np.sqrt(bands * n * EPS / (1.0 - bands * n * EPS))
        A = np.zeros((3, n))
        A[0, 0], A[1, 1], A[2, 1] = 1.0, t / np.sqrt(2.0), -t / np.sqrt(2.0)
        line = _left_null_line(caplog, A[:1], A[1:])
        assert line.startswith("left_null: qr-svd route, k = 1;"), line
        p = make_problem(
            Q=np.ones(n), c=np.zeros(n), A1=A[:1], b1=np.zeros(1), A2=A[1:], b2=np.zeros(2)
        )
        null = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        # the Wedin bound of test_left_null_basis, with s_max = 1 and s_r = t
        err = np.abs(p.left_null @ p.left_null.T - np.outer(null, null)).max()
        assert err <= 8 * n * EPS / t, err


class TestSparseA:
    """A sparse A is kept as triplets however it is handed in, and built dense only when read."""

    def test_grid_is_kept_as_triplets_and_built_once_on_first_read(self):
        p = _grid(20)
        assert not {"A", "A1", "A2"} & set(vars(p))
        A = p._a_triplets
        assert (p.m1, p.m2, p.m, A.shape) == (380, 20, 400, (400, 1520))
        assert np.all(np.diff(A.rows * p.n + A.cols) > 0)  # row-major, no repeat
        for arr in (A.rows, A.cols, A.values):
            assert not arr.flags.writeable
        dense, _ = grid_incidence(20, 20)
        whole = p.A
        assert p.A is whole and not whole.flags.writeable
        assert whole.tobytes() == np.vstack((dense[20:], dense[:20])).tobytes()
        assert p.A1.base is whole and p.A2.base is whole
        assert p.A1.shape == (380, 1520) and p.A2.shape == (20, 1520)
        # A2 first: any of the three builds all of them
        q = _grid(20)
        assert q.A2.base is q.A and q.A1.base is q.A

    def test_a_sparse_a_given_dense_is_kept_as_triplets(self):
        # dense blocks are scanned at construction into the triplets, and the
        # CSR copies, that the same A given as triplets keeps; none of A, A1
        # and A2 is kept. A grid's triplets come straight from build_instance
        def triplet_bytes(p):
            A = p._a_triplets
            return A.shape, [getattr(A, name).tobytes() for name in ("rows", "cols", "values")]

        def csr_bytes(p):
            return [(getattr(csr, name).dtype, getattr(csr, name).tobytes())
                    for csr in p.a_csr for name in ("data", "indices", "indptr")]

        read = _grid(20)
        pairs = [(_grid(20), (read.A1, read.A2))]
        pairs += [(_with_triplets(p), (p.A1, p.A2)) for p in _sparse_a_problems()]
        for i, (given, (A1, A2)) in enumerate(pairs):
            p = ProblemData(
                Q=given.q_diagonal if given.q_diagonal is not None else given.Q, c=given.c,
                A1=A1, b1=given.b1, A2=A2, b2=given.b2,
            )
            assert not {"A", "A1", "A2"} & set(vars(p)), i
            assert triplet_bytes(p) == triplet_bytes(given), i
            assert csr_bytes(p) == csr_bytes(given), i
            assert p.A.tobytes() == np.vstack((A1, A2)).tobytes(), i

    def test_a_dense_a_is_stored_as_given_and_never_scanned(self, monkeypatch):
        # above the COO rule, dense blocks, or a triplet block beside a dense
        # one, are stacked into one array, and no path turns it into triplets
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 12))
        A[0, :6] = 0.0
        A[1, 3] = -0.0
        A1 = hieralm.problem._scanned(A[:2])  # before the patch below

        def no_scan(a):
            raise AssertionError("a dense A was scanned")

        monkeypatch.setattr(hieralm.problem, "_scanned", no_scan)
        for blocks in ((A[:2], A[2:]), (A1, A[2:])):
            p = ProblemData(
                Q=np.ones(12), c=np.zeros(12), A1=blocks[0], b1=np.zeros(2), A2=blocks[1],
                b2=np.zeros(5),
            )
            assert "A" in vars(p) and p._a_triplets is None and p.a_csr is None
            assert p.A.tobytes() == A.tobytes()
            assert p.A1.base is p.A and p.A2.base is p.A
            assert p.left_null.shape == (7, 0)
            want = json.loads(hieralm.problem._problem_text(p))
            assert want["A1"] == A[:2].tolist() and want["A2"] == A[2:].tolist()

    def test_loaded_coo_blocks_stay_triplets(self, tmp_path):
        p, meta = build_instance(GridSpec(5, 6, kappa=0.5))
        path = tmp_path / "grid.json"
        save_problem(p, path, meta=meta)
        q = load_problem(path)
        assert "A" not in vars(q)
        for name in ("rows", "cols", "values"):
            assert getattr(q._a_triplets, name).tobytes() == getattr(p._a_triplets, name).tobytes()
        assert q.A.tobytes() == p.A.tobytes()

    def test_a_coo_file_in_any_order_loads_in_row_major_order(self, tmp_path):
        # entries listed backwards, a +0.0 (not stored, as a dense A would not
        # keep it) and a -0.0 (stored); a dense block beside the coo one
        n = 20
        rows, cols, values = [2, 1, 1, 0, 0], [3, 7, 2, 9, 0], [4.0, 0.0, -0.0, 2.0, -1.0]

        def mutate(doc):
            doc.update(
                n=n, m1=3, m2=1, Q=_coo([], [], []), c=[0.0] * n, b1=[0.0] * 3, b2=[1.0],
                A1=_coo(rows, cols, values), A2=[[1.0] + [0.0] * (n - 1)],
            )

        q = load_problem(_write_doc(tmp_path, mutate))
        assert "A" not in vars(q)
        A = q._a_triplets
        assert A.rows.tolist() == [0, 0, 1, 2, 3] and A.cols.tolist() == [0, 9, 2, 3, 0]
        assert A.values.tobytes() == np.array([-1.0, 2.0, -0.0, 4.0, 1.0]).tobytes()
        expected = np.zeros((4, n))
        expected[A.rows, A.cols] = A.values
        assert q.A.tobytes() == expected.tobytes()

    def test_a_dense_coo_file_is_stored_dense(self, tmp_path):
        # a COO block that is not sparse by the rule gives a dense A
        n = 20
        full = np.arange(1.0, 1.0 + 2 * n).reshape(2, n)
        r, c = np.nonzero(full)

        def mutate(doc):
            doc.update(
                n=n, m1=2, m2=0, Q=_coo([], [], []), c=[0.0] * n, b1=[0.0, 0.0], b2=[], A2=[],
                A1=_coo(r.tolist(), c.tolist(), full[r, c].tolist()),
            )

        q = load_problem(_write_doc(tmp_path, mutate))
        assert "A" in vars(q) and q._a_triplets is None and q.a_csr is None
        assert q.A.tobytes() == full.tobytes()

    def test_a_coo_block_beyond_memory_is_refused_without_allocating(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "grid.json"
        save_problem(_grid(20), path)
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < 380 * 1520, shape
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(hieralm.problem, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(np, "zeros", small_zeros)
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        assert str(exc.value) == (
            "A1: a dense 380x1520 matrix needs 4620800 bytes, "
            "more than this machine's 1048576 bytes of memory"
        )

    def test_a_coo_block_that_cannot_be_allocated_is_refused_at_load(
        self, tmp_path, monkeypatch
    ):
        # where the OS does not report its memory, the COO A is allocated once
        # at load, as the dense block it used to fill, and a failure is refused
        # there, not when the solver first reads p.A
        n = 200
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if np.prod(shape) > 10**4:
                raise MemoryError("Unable to allocate")
            return zeros(shape, *args, **kwargs)

        def mutate(doc):
            doc.update(
                n=n, m1=100, m2=0, Q=_coo([], [], []), c=[0.0] * n, b1=[0.0] * 100, b2=[],
                A1=_coo([0, 99], [3, 7], [1.0, -1.0]), A2=[],
            )

        path = _write_doc(tmp_path, mutate)
        monkeypatch.setattr(hieralm.problem, "_physical_memory", lambda: None)
        assert "A" not in vars(load_problem(path))
        monkeypatch.setattr(np, "zeros", failing_zeros)
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(path)
        assert str(exc.value) == (
            "A1: a dense 100x200 matrix needs 160000 bytes, which could not be allocated"
        )

    def test_csr_copies_have_the_bytes_of_scipy_on_the_dense_a(self, tmp_path):
        from scipy.sparse import csr_array

        path = tmp_path / "sparse.json"
        negative_zero = _sparse_a_problems()[-1]  # given dense, with a -0.0 cell
        save_problem(negative_zero, path)
        instances = [_grid(10), _grid(20), _grid(20, 1), load_problem(path)]
        instances += [_with_triplets(p) for p in _sparse_a_problems()] + _sparse_a_problems()
        for i, p in enumerate(instances):
            copies = p.a_csr  # before A is read, from the triplets
            for csr, ref in zip(copies, (csr_array(p.A), csr_array(p.A.T))):
                for name in ("data", "indices", "indptr"):
                    got, want = getattr(csr, name), getattr(ref, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (i, name)
                    assert not got.flags.writeable
                assert csr.shape == ref.shape

    def test_the_writer_gives_the_dense_writers_bytes(self):
        # today's bytes for the grid file that gen-grid writes; and, on random
        # sparse blocks with -0.0 cells, the bytes of the dense encoder
        p, meta = build_instance(GridSpec(20, 20, kappa=0.5))
        text = hieralm.problem._problem_text(p, meta)
        digest = "7cf4c1aeeb8e0ebbf4ca47a3676635176e7a1ee015922aad871e756c4afae02a"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert not {"A", "A1", "A2"} & set(vars(p))
        rng = np.random.default_rng(7)
        for n, m1, m2 in ((30, 20, 16), (20, 1, 30), (17, 0, 2), (40, 3, 0), (1, 100, 2)):
            A = np.where(rng.random((m1 + m2, n)) < 0.1, rng.standard_normal((m1 + m2, n)), 0.0)
            A[rng.random(A.shape) < 0.02] = -0.0
            p = make_problem(
                Q=np.ones(n), c=np.zeros(n), A1=A[:m1], b1=np.zeros(m1), A2=A[m1:],
                b2=np.zeros(m2),
            )
            doc = problem_document(p)
            doc["A1"], doc["A2"] = map(hieralm.problem._encode_matrix, (A[:m1], A[m1:]))
            want = json.dumps(doc, allow_nan=False) + "\n"
            assert hieralm.problem._problem_text(p) == want
            assert hieralm.problem._problem_text(_with_triplets(p)) == want

    def test_repr_keeps_its_text(self):
        p = _grid(4)
        dense = ProblemData(Q=p.q_diagonal, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2)
        assert repr(p) == repr(dense)
        assert repr(p) == (
            f"ProblemData(Q={p.q_diagonal!r}, c={p.c!r}, A1={p.A1!r}, b1={p.b1!r}, "
            f"A2={p.A2!r}, b2={p.b2!r})"
        )


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
        with pytest.raises(ValueError) as exc:
            constraint_residuals(p, np.zeros((2, 1)))
        assert str(exc.value) == "x has shape (2, 1), expected (2,)"

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

    def test_unserializable_meta_writes_no_file(self, tmp_path):
        # the text is formed before the file opens; a streamed write would leave a truncated one
        p = make_problem(Q=np.eye(1), c=[0.5], A1=[[1.0]], b1=[2.0])
        path = tmp_path / "inst.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_problem(p, path, meta={"origin": object()})
        assert not path.exists()

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
    "vector-not-array": ("c", 5, "c: expected an array"),
    "matrix-not-array": ("A1", 3, "A1: expected an array of rows or a coo object"),
    "row-not-array": ("A1", [5], "A1[0]: expected an array"),
    "coo-extra-key": (
        "Q", {**_coo([0], [0], [1.0]), "shape": [2, 2]},
        "Q: matrix object must hold a single 'coo' entry",
    ),
    "coo-fields-not-arrays": (
        "Q", _coo(0, [0], [1.0]), "Q.coo: rows, cols, values must be arrays"
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

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_physical_memory_is_unknown_where_the_os_does_not_say(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert hieralm.problem._physical_memory() is None

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
