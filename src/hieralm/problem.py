"""Problem container, validation, and file I/O for prioritized equality-constrained QPs.

A problem is

    minimize    0.5 x'Qx + c'x
    subject to  A1 x = b1   (high priority)
                A2 x = b2   (low priority)

with Q symmetric positive semidefinite. The constraint blocks may be jointly
infeasible; shifts (s1, s2) relax them to A_i x = b_i - s_i.

Instance files are JSON objects with fields ``n``, ``m1``, ``m2``, ``Q``, ``c``,
``A1``, ``b1``, ``A2``, ``b2`` and an optional ``meta`` block that loading ignores.
Vectors are arrays of numbers. A matrix is either dense (an array of row arrays) or
sparse, written as ``{"coo": {"rows": [...], "cols": [...], "values": [...]}}`` with
the shape implied by the declared dimensions. All reals use the shortest decimal
representation that round-trips the double exactly; non-finite values are rejected.

Validation happens in two places. :class:`ProblemData` rejects malformed arrays at
construction: an empty decision vector, block shapes that do not match, and
non-finite entries all raise ``ValueError``. It stores a diagonal Q as its
diagonal, which is also what a file's sparse Q with entries on the diagonal
alone loads as. :func:`validate_problem` checks Q itself: it raises for an
asymmetric or indefinite Q and warns for a singular one.

A sparse constraint matrix, one with at most a quarter of its cells nonzero
(the COO rule of the file format), is kept as its COO triplets however it
comes, as COO from a file or a grid or as dense blocks: the CSR copies, the
file writer and the left null basis read them, and the dense A is built and
kept only if something else reads it.

This module runs on numpy alone, except in two places that import SciPy on
first use: validate_problem's Cholesky test of a Q that is not diagonal, and
the CSR copies of a sparse A (``ProblemData.a_csr``), which the solver and
constraint_residuals read. Building, saving and loading an instance never
load SciPy.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

__all__ = [
    "HierarchicalShift",
    "ProblemData",
    "ProblemFormatError",
    "constraint_residuals",
    "load_problem",
    "objective_value",
    "problem_document",
    "save_problem",
    "validate_problem",
]

logger = logging.getLogger(__name__)

FORMAT_NAME = "hieralm-problem"
FORMAT_VERSION = 1

_EPS = np.finfo(float).eps
_SYMMETRY_TOL = 1e-10
_DEFINITE_MARGIN = 2e-10  # validate_problem's, relative to 1 + ||Q||_inf


def _scipy_linalg(name: str):
    """scipy.linalg's function ``name``, behind a wrapper that imports SciPy on
    its first call, so that importing hieralm does not load it. Each wrapper is
    a module attribute that its callers go through, so tests and the
    benchmark's tracer can replace it by name."""

    def call(*args, **kwargs):
        import scipy.linalg

        return getattr(scipy.linalg, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


cholesky = _scipy_linalg("cholesky")  # only a Q that is not diagonal is factored


@dataclass(frozen=True)
class HierarchicalShift:
    """A pair of constraint shifts, one per priority block, copied and made read-only.

    Attributes:
        s1: Shift for the high-priority block, shape (m1,).
        s2: Shift for the low-priority block, shape (m2,).
    """

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "s1", _frozen_copy(self.s1, 1, "s1"))
        object.__setattr__(self, "s2", _frozen_copy(self.s2, 1, "s2"))

    @classmethod
    def zero(cls, m1: int, m2: int) -> "HierarchicalShift":
        """The all-zero shift (the exact shift of a feasible problem)."""
        return cls(np.zeros(m1), np.zeros(m2))


class _Triplets(NamedTuple):
    """A sparse matrix as its stored entries, the ones that the file format
    writes (nonzero or -0.0), in row-major order: the read-only arrays ``rows``,
    ``cols`` and ``values``, and ``shape``. Instance files and grids hand a
    sparse constraint block to :class:`ProblemData` in this form."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def dense(self) -> np.ndarray:
        out = _dense_zeros(*self.shape, "A")
        out[self.rows, self.cols] = self.values
        return out

    def block(self, lo: int, hi: int) -> _Triplets:
        """Rows lo to hi - 1, as triplets of their own."""
        first, last = np.searchsorted(self.rows, (lo, hi))
        return _frozen_triplets(
            self.rows[first:last] - lo, self.cols[first:last], self.values[first:last],
            (hi - lo, self.shape[1]),
        )


def _scanned(a: np.ndarray) -> _Triplets:
    """The triplets of a dense matrix, made read-only."""
    rows, cols = np.nonzero((a != 0) | np.signbit(a))
    return _frozen_triplets(rows, cols, a[rows, cols], a.shape)


def _frozen_triplets(rows, cols, values, shape) -> _Triplets:
    for arr in (rows, cols, values):
        arr.flags.writeable = False
    return _Triplets(rows, cols, values, shape)


def _stacked_triplets(top, bottom) -> _Triplets:
    """The triplets of [top; bottom], either block given as triplets or dense."""
    top, bottom = (b if isinstance(b, _Triplets) else _scanned(b) for b in (top, bottom))
    return _frozen_triplets(
        np.concatenate((top.rows, bottom.rows + top.shape[0])),
        np.concatenate((top.cols, bottom.cols)),
        np.concatenate((top.values, bottom.values)),
        (top.shape[0] + bottom.shape[0], top.shape[1]),
    )


def _is_sparse(blocks) -> bool:
    """nnz(A) <= _COO_DENSITY m n for the A stacked from ``blocks``, each dense
    or triplets: the rule by which instance files store a matrix as COO; a -0.0
    does not count. Each block's entries are counted as it comes, with nothing
    scanned or stacked."""
    m, n = sum(a.shape[0] for a in blocks), blocks[0].shape[1]
    nnz = sum(np.count_nonzero(a.values if isinstance(a, _Triplets) else a) for a in blocks)
    return nnz <= _COO_DENSITY * m * n


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Immutable, well-formed problem data. Arrays are copied and made read-only.

    The decision dimension ``n`` is taken from ``c``; block sizes come from the
    constraint matrices. A block with zero rows is normalized to shape (0, n).
    The blocks are stored once, stacked high priority first: ``A`` (m x n) and
    ``b`` (m,), built straight from the inputs, and ``A1``, ``A2``, ``b1`` and
    ``b2`` are read-only row views of them.

    A's storage is decided once, at construction, by one rule over the
    stacked blocks in whatever form they come: A is sparse when
    nnz(A) <= _COO_DENSITY m n (``_is_sparse``), the rule by which instance
    files store a matrix as COO; a -0.0 does not count. The entries are
    counted in each block as it comes, before anything is scanned. A dense A
    is stored as one array, a triplet block made dense for it, and never
    turned into triplets. A sparse A is stored as one stacked set of read-only
    triplets alone, whether its blocks come as triplets (``_Triplets``, the
    private path by which load_problem hands in a COO block and build_instance
    a grid) or dense, which are scanned once for it: every stored entry, -0.0
    included, in row-major order, 24 bytes each (73 KB at the 20x20 grid).
    ``A``, ``A1`` and ``A2`` are then built on their first read (m n doubles,
    4.9 MB at the 20x20 grid and 196 MB at 50x50) and kept, so ``p.A is p.A``
    and the blocks are views of it. ``a_csr``, ``m``, the file writer, the
    solver's eigenbasis route and ``left_null`` never read it, so the oracle,
    the shift sweep and a grid solve keep no m x n array; ``left_null``
    builds a transient one where A is no node-arc incidence matrix.
    Where the OS does not report its memory, loading a COO block allocates
    its dense form once and drops it, so that a block that cannot be
    allocated is refused at load, as it was when it was filled densely.

    A diagonal Q is stored as its diagonal d, a contiguous read-only (n,)
    array: a 1-D ``Q`` is taken as d, and so is a 2-D n x n ``Q`` whose every
    cell off the diagonal is +0.0, so that np.diag(d) has its bits; any other
    Q, one with a -0.0 off the diagonal among them, is stored as given. For a
    stored diagonal the shape and finiteness checks are O(n), ``q_diagonal``
    returns d, and ``Q`` is built from d on its first read (n^2 doubles,
    18.5 MB at the 20x20 grid and 97 MB at 30x30) and kept, so ``p.Q is p.Q``.
    The solver, validate_problem, the file writer and ``repr`` never read it;
    ``repr`` shows d as the 1-D Q.

    An instance is its own identity: it hashes and compares by ``id``, so two
    instances with equal arrays are different keys. Work derived from the data
    is cached against the instance until it is garbage collected: ``left_null``
    (m k doubles; on the incidence route, which every grid takes, building it
    takes O(nnz + m k) transients, 0.1 MB at the 20x20 grid; on the qr-svd
    route it takes the dense A, transient for a sparse one, its copy in the
    QR, and the R factor's m x m right singular vectors), ``q_diagonal``, ``a_csr``
    (for a sparse A, CSR copies of A and A', 24 nnz(A) + 4 (m + n + 2) bytes:
    81 KB at the 20x20 grid) here; in :mod:`hieralm.control` the shifts'
    coordinates on N (views of it and 3k doubles, and a copy of N where a
    column lies in null(A1')); and in :mod:`hieralm.alm` the check of Q and the
    solver's factors: for a definite diagonal Q, about m r + n doubles with
    r = rank(A) (1.3 MB at the 20x20 grid and 6.5 MB at 30x30), and nm + m^2
    more if an escalation builds the base-D rung of ``hieralm.alm._Ladder``
    (6.1 MB and 32 MB); for any other Q, or once the Q + A'A rung is built,
    nm + m^2 and n^2 more (25 MB and 128 MB).
    That is sound only because the arrays are read-only and never change after
    construction; code that forces them writable breaks that contract.

    Raises:
        ValueError: If Q is neither 1-D nor 2-D, another matrix is not 2-D or a
            vector not 1-D; or, naming every failed rule, if n = 0, Q is not
            (n,) or (n, n), a nonempty block does not have n columns, a
            right-hand side does not match its block's row count, or an array
            has non-finite entries.
    """

    Q: np.ndarray
    c: np.ndarray
    A1: np.ndarray
    b1: np.ndarray
    A2: np.ndarray
    b2: np.ndarray
    A: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    _d: np.ndarray | None = field(init=False, repr=False)  # Q stored as its diagonal, or None
    _a_triplets: _Triplets | None = field(init=False, repr=False)  # A's, if sparse, or None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _frozen_copy(self.c, 1, "c"))
        n = self.c.shape[0]
        errors = []
        if n == 0:
            errors.append("empty decision vector (n = 0)")
        d = _stored_diagonal(self.Q, n)
        object.__setattr__(self, "_d", d)
        if d is None:
            object.__setattr__(self, "Q", _frozen_copy(self.Q, 2, "Q"))
        else:
            object.__delattr__(self, "Q")  # __getattr__ builds it from d on first read
        q = self.Q if d is None else d
        if q.shape != (n, n)[: q.ndim]:
            errors.append(
                f"dimension mismatch: Q has shape {q.shape}, expected {(n, n)[: q.ndim]}"
            )
        # the inputs themselves, not copies, so that stacking makes the only copy
        arrays = {"Q": q, "c": self.c}
        for mat, vec in (("A1", "b1"), ("A2", "b2")):
            a = getattr(self, mat)
            if not isinstance(a, _Triplets):
                a = _float_array(a, 2, mat)
            if a.shape[0] == 0:
                a = a._replace(shape=(0, n)) if isinstance(a, _Triplets) else a.reshape(0, n)
            elif a.shape[1] != n:
                errors.append(f"dimension mismatch: {mat} has {a.shape[1]} columns, expected {n}")
            b = _float_array(getattr(self, vec), 1, vec)
            if b.shape[0] != a.shape[0]:
                errors.append(
                    f"dimension mismatch: {vec} has length {b.shape[0]}, "
                    f"{mat} has {a.shape[0]} rows"
                )
            arrays[mat], arrays[vec] = a, b
        for name, arr in arrays.items():
            if not np.isfinite(arr.values if isinstance(arr, _Triplets) else arr).all():
                errors.append(f"{name} has non-finite entries")
        if errors:
            raise ValueError("; ".join(errors))
        m1 = arrays["b1"].shape[0]
        stacked = {"b": np.concatenate((arrays["b1"], arrays["b2"]))}
        blocks = (arrays["A1"], arrays["A2"])
        triplets = None
        if _is_sparse(blocks):
            # kept as its triplets alone; A, A1 and A2 are built on first read
            triplets = _stacked_triplets(*blocks)
            object.__delattr__(self, "A1")
            object.__delattr__(self, "A2")
        else:
            stacked["A"] = np.concatenate(
                [a.dense() if isinstance(a, _Triplets) else a for a in blocks]
            )
        object.__setattr__(self, "_a_triplets", triplets)
        for whole, array in stacked.items():
            self._keep_stacked(whole, array, m1)

    def _keep_stacked(self, whole: str, array: np.ndarray, m1: int) -> None:
        """Stores ``array``, made read-only, as ``whole`` and its blocks as row views."""
        array.flags.writeable = False
        object.__setattr__(self, whole, array)
        object.__setattr__(self, f"{whole}1", array[:m1])
        object.__setattr__(self, f"{whole}2", array[m1:])

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m1(self) -> int:
        return self.b1.shape[0]

    @property
    def m2(self) -> int:
        return self.b2.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @cached_property
    def left_null(self) -> np.ndarray:
        """Orthonormal basis N of null(A'), shape (m, k) with k = m - rank(A).

        Rows split like the blocks: N[:m1] belongs to A1, N[m1:] to A2. The rank
        follows lstsq's rule, singular values above max(m, n) * eps * s_max
        (``_rank_cutoff``). A sparse A that is a node-arc incidence matrix, +-1
        entries with one of each sign per nonempty column, as every grid's is,
        takes the incidence route (``_incidence_left_null``): N is the
        normalized indicators of its row graph's components, in O(nnz + m k)
        work and memory, with no factorization, and A'N is exactly zero. Any
        other A, or one whose size lets its least nonzero singular value near
        the cutoff (past millions of rows on a grid), takes the qr-svd route
        (``_svd_left_null``): N comes from the SVD of the R factor of the dense
        A', which a sparse A builds for it alone, so that ``A`` is still built
        only on its first read. Each build logs its route at DEBUG, with the
        figures of its rank decision. N is then rotated by the right singular
        vectors of N2 (an SVD of m2 x k; its U and the unrotated N, at most
        m k doubles each, are transient), so that N1 and N2 each have
        orthogonal columns; the rows of a component are rotated alike, so the
        incidence route's A'N stays exactly zero.
        The cache cannot go stale because the arrays are read-only.
        """
        A = self._a_triplets
        N, figures = _incidence_left_null(A) if A is not None else (None, "")
        route = "incidence"
        if N is None:
            # A kept as triplets alone is made dense for the SVD, and not kept
            N, figures = _svd_left_null(self.A if "A" in vars(self) else A.dense())
            route = "qr-svd"
        logger.debug("left_null: %s route, k = %d; %s", route, N.shape[1], figures)
        N = N @ np.linalg.svd(N[self.m1 :], full_matrices=self.m2 < N.shape[1])[2].T
        N.flags.writeable = False
        return N

    def __getattr__(self, name: str):
        # reached only when lookup fails: Q stored as its diagonal, or A, A1 and
        # A2 stored as triplets, and not read yet; later reads find what is
        # built here, so p.Q is p.Q and p.A is p.A
        if name == "Q" and self._d is not None:
            Q = np.diag(self._d)
            Q.flags.writeable = False
            object.__setattr__(self, "Q", Q)
            return Q
        if name in ("A", "A1", "A2") and self._a_triplets is not None:
            self._keep_stacked("A", self._a_triplets.dense(), self.m1)
            return getattr(self, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __repr__(self) -> str:
        # the generated repr would build Q; a stored diagonal shows as the 1-D Q
        # it is constructed from
        shown = {"Q": self.Q if self._d is None else self._d}
        shown.update((name, getattr(self, name)) for name in ("c", "A1", "b1", "A2", "b2"))
        cells = ", ".join(f"{name}={value!r}" for name, value in shown.items())
        return f"{type(self).__qualname__}({cells})"

    @cached_property
    def q_diagonal(self) -> np.ndarray | None:
        """Q's diagonal d, contiguous and read-only, if no entry off it is nonzero; else None.

        For a Q stored as its diagonal this is that array, in O(1). Otherwise
        it is copied from Q after one pass over it, in which a -0.0 off the
        diagonal counts as zero. Every Q x is then the O(n) d * x, which for
        finite x has the bits of Q @ x up to the sign of a zero: the
        off-diagonal terms add exact zeros.
        """
        if self._d is not None:
            return self._d
        d = self.Q.diagonal()
        # count_nonzero counts a -0.0 off-diagonal cell as zero
        return _frozen_copy(d, 1, "Q") if np.count_nonzero(self.Q) == np.count_nonzero(d) else None

    @cached_property
    def a_csr(self) -> tuple | None:
        """Read-only CSR copies (A, A') if A is sparse; else None.

        A is sparse when nnz(A) <= _COO_DENSITY m n, the rule by which instance
        files store a matrix as COO. The copies are built from A's triplets,
        with the bytes that SciPy gives a dense A: no -0.0 entry, and int32
        indices where they fit. A CSR row adds its nonzeros in another order
        than a dense product, so a product's last bits can differ.
        """
        A = self._a_triplets
        if A is None:
            return None
        from scipy.sparse import csr_array  # here, so that importing hieralm does not load it

        m, n = A.shape
        kept = A.values != 0  # csr_array(dense) stores no -0.0
        values = A.values[kept]
        index = np.int32 if max(values.size, m, n) <= np.iinfo(np.int32).max else np.int64
        rows, cols = A.rows[kept].astype(index), A.cols[kept].astype(index)
        # entries in row-major order leave each row's indices sorted, in A and in A'
        copies = (
            csr_array((values, (rows, cols)), shape=(m, n)),
            csr_array((values, (cols, rows)), shape=(n, m)),
        )
        for csr in copies:
            for arr in (csr.data, csr.indices, csr.indptr):
                arr.flags.writeable = False
        return copies


class ProblemFormatError(ValueError):
    """Raised when an instance file cannot be parsed into a ProblemData."""


def _rank_cutoff(m: int, n: int, s_max: float) -> float:
    """lstsq's rank rule for an m x n matrix whose largest singular value is s_max:
    singular values at or below max(m, n) * eps * s_max are round-off."""
    return max(m, n) * _EPS * s_max


def _incidence_left_null(A: _Triplets) -> tuple[np.ndarray | None, str]:
    """(N, figures): N from the connected components of A's row graph if A is
    a node-arc incidence matrix whose rank lstsq's rule cannot misjudge, else
    (None, ""); figures words the bound.

    A qualifies when m > 0, every stored value is exactly +1.0 or -1.0, and
    every column holds no entry or one +1 and one -1, an arc between two rows.
    A A' is then the graph Laplacian L, and null(A') is exactly the span of
    the indicators of the graph's components, isolated rows among them. The
    least nonzero eigenvalue of a component's L, of c rows and diameter D,
    is at least 4 / (c D) (Mohar, Graphs and Combinatorics 7, 1991), so every
    nonzero singular value of A is above 1/m; by Gershgorin s_max^2 is at
    most twice the most entries in a row. So where 1/m exceeds lstsq's
    cutoff at that bound on s_max (``_rank_cutoff``), as it does on grids of
    millions of nodes, the rank is m less the number of components, and N is
    their normalized indicators. Each of A's columns then adds x - x of one
    value x, so A'N is exactly zero; N V, for a k x k V, is so too, as its
    rows within a component are the same products of the same values.

    The components come from min-label propagation with pointer jumping.
    Every row is labelled by a root, a row of its component that is its own
    label. Each round hooks every root that meets a smaller one across an arc
    onto the least such root, then points every row at its root, until no
    arc joins two roots; each row is then labelled by its component's least
    row, and N's columns follow those least rows. A root that no other
    hooks onto, its neighbors hooked onto smaller roots, hooks in the next
    round, so a component's trees halve at least every two rounds.
    """
    m, n = A.shape
    per_column = np.bincount(A.cols, minlength=n)
    if not (
        m > 0
        and (np.abs(A.values) == 1.0).all()
        and np.isin(per_column, (0, 2)).all()
        # two entries of one sign sum to +-2
        and not np.bincount(A.cols, weights=A.values, minlength=n).any()
    ):
        return None, ""
    bound = 1.0 / m
    cutoff = _rank_cutoff(m, n, np.sqrt(2.0 * np.bincount(A.rows, minlength=m).max()))
    if not bound > cutoff:
        return None, ""
    i, j = A.rows[np.argsort(A.cols, kind="stable")].reshape(-1, 2).T  # each arc's two rows
    label = np.arange(m)
    while not np.array_equal(root_i := label[i], root_j := label[j]):
        np.minimum.at(label, np.maximum(root_i, root_j), np.minimum(root_i, root_j))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    roots, component = np.unique(label, return_inverse=True)
    N = np.zeros((m, roots.size))
    N[np.arange(m), component] = 1.0 / np.sqrt(np.bincount(component))[component]
    return N, f"s_min bound {bound:.2e} > cutoff {cutoff:.2e}"


def _svd_left_null(A: np.ndarray) -> tuple[np.ndarray, str]:
    """(N, figures): N from the SVD of R, where A' = QR: the min(m, n) x m
    factor R has A's singular values and null(R) = null(A'), so N is the right
    singular vectors past the rank. Only R is formed, never Q or an m x n
    singular factor. figures word how close the rank decision was: the
    cutoff, and the least kept singular value's ratio to it."""
    m, n = A.shape
    _, s, Vt = np.linalg.svd(np.linalg.qr(A.T, mode="r"))
    tol = _rank_cutoff(m, n, s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > tol))
    figures = f"cutoff {tol:.2e}, no singular value kept"
    if rank:
        with np.errstate(divide="ignore"):  # a cutoff that underflows to zero
            margin = s[rank - 1] / tol
        figures = f"cutoff {tol:.2e}, least kept singular value / cutoff = {margin:.2e}"
    return Vt[rank:].T.copy(), figures


def _float_array(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a float array, converted only if it is not one already."""
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={out.ndim}")
    return out


def _frozen_copy(a, ndim: int, name: str) -> np.ndarray:
    out = np.array(_float_array(a, ndim, name))
    out.flags.writeable = False
    return out


def _stored_diagonal(Q, n: int) -> np.ndarray | None:
    """The read-only diagonal d that ProblemData stores for Q, or None to store Q as given.

    A 1-D Q is the diagonal itself. A 2-D n x n Q is stored as its diagonal
    when every cell off it is +0.0, so that np.diag(d) has Q's bits; a -0.0
    off the diagonal keeps Q dense.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim not in (1, 2):
        raise ValueError(f"Q must be 1-D (its diagonal) or 2-D, got ndim={Q.ndim}")
    if Q.ndim == 2:
        if Q.shape != (n, n):
            return None
        d = Q.diagonal()
        if np.count_nonzero(Q) != np.count_nonzero(d):
            return None
        if np.count_nonzero(np.signbit(Q)) != np.count_nonzero(np.signbit(d)):  # a -0.0 off it
            return None
        Q = d
    return _frozen_copy(Q, 1, "Q")


def validate_problem(p: ProblemData) -> str | None:
    """Check that Q is symmetric positive semidefinite.

    The arrays are well-formed by construction, so only Q's own properties are
    left to check. A singular (semidefinite but not definite) Q is logged as a
    warning rather than raised, since the solver may still handle it. A
    diagonal Q gets the same verdicts and messages in O(n), with no n x n work.

    Returns:
        The warning message for a singular Q, or None.

    Raises:
        ValueError: ``invalid problem: ...`` naming each failed rule, if Q is
            asymmetric or indefinite.
    """
    errors = []
    warning = None
    d = p.q_diagonal
    if d is not None:
        # O(n): a diagonal Q is symmetric, its inf-norm is max|d| and its least
        # eigenvalue min(d); the Cholesky test below would pass exactly when
        # min(d) > 2e-10 scale, where neither finding applies
        scale = 1.0 + float(np.abs(d).max())
        lam_min = float(d.min())
    else:
        asym = float(np.abs(p.Q - p.Q.T).max())
        if asym > _SYMMETRY_TOL:
            errors.append(f"Q is not symmetric (max |Q - Q'| = {asym:.3e})")
        scale = 1.0 + float(np.linalg.norm(p.Q, np.inf))
        # sym(Q) - 2e-10*scale*I has a Cholesky factor only if neither finding below applies
        S = 0.5 * (p.Q + p.Q.T)
        S.flat[:: p.n + 1] -= _DEFINITE_MARGIN * scale
        try:
            cholesky(S.T, lower=True, overwrite_a=True, check_finite=False)
            lam_min = np.inf
        except LinAlgError:
            lam_min = float(np.linalg.eigvalsh(0.5 * (p.Q + p.Q.T)).min())
    if lam_min < -1e-8 * scale:
        errors.append(f"Q is not positive semidefinite (min eigenvalue {lam_min:.3e})")
    elif lam_min <= 1e-10 * scale:
        warning = f"Q is singular (min eigenvalue {lam_min:.3e})"
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    if warning is not None:
        logger.warning("%s", warning)
    return warning


def _definite_diagonal(p: ProblemData) -> np.ndarray | None:
    """Q's diagonal d if Q is diagonal and passes validate_problem's Cholesky test, else None."""
    d = p.q_diagonal
    definite = d is not None and d.min() > _DEFINITE_MARGIN * (1.0 + np.abs(d).max())
    return d if definite else None


def objective_value(p: ProblemData, x: np.ndarray) -> float:
    """Evaluate 0.5 x'Qx + c'x, in O(n) for a diagonal Q."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.n},)")
    return float(0.5 * x @ _q_times(p, x) + p.c @ x)


def _q_times(p: ProblemData, x: np.ndarray) -> np.ndarray:
    """Q x, formed as d * x when Q is diagonal (see ``ProblemData.q_diagonal``)."""
    d = p.q_diagonal
    return p.Q @ x if d is None else d * x


def _add_q(p: ProblemData, G: np.ndarray) -> None:
    """G += Q in place; on the diagonal alone when Q is diagonal, with the bits
    of G + Q up to the sign of a zero."""
    d = p.q_diagonal
    if d is None:
        G += p.Q
    else:
        G.flat[:: p.n + 1] += d


def _a_operators(p: ProblemData) -> tuple:
    """(A, A') for every A product: the CSR copies when A is sparse, else dense."""
    csr = p.a_csr
    return (p.A, p.A.T) if csr is None else csr


def constraint_residuals(
    p: ProblemData, x: np.ndarray, shift: HierarchicalShift | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted residuals (A1 x - b1 + s1, A2 x - b2 + s2); shift None means zero."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.n},)")
    r = _a_operators(p)[0] @ x - p.b
    if shift is not None:
        if shift.s1.shape != (p.m1,) or shift.s2.shape != (p.m2,):
            raise ValueError(
                f"shift has block sizes ({shift.s1.shape[0]}, {shift.s2.shape[0]}), "
                f"expected ({p.m1}, {p.m2})"
            )
        r = r + np.concatenate((shift.s1, shift.s2))
    return r[: p.m1], r[p.m1 :]


# ---------------------------------------------------------------------------
# file format

_DENSE_MAX_ENTRIES = 256
_COO_DENSITY = 0.25


def _coo_encoded(size: int, stored: int) -> bool:
    """Whether a matrix of ``size`` cells with ``stored`` stored entries is written as COO."""
    return size > _DENSE_MAX_ENTRIES and stored <= _COO_DENSITY * size


def _encode_matrix(a: np.ndarray):
    # -0.0 compares equal to 0 but is stored, so it round-trips bit exactly
    stored = (a != 0) | np.signbit(a)
    if not _coo_encoded(a.size, int(np.count_nonzero(stored))):
        return a.tolist()
    rows, cols = np.nonzero(stored)
    return _encode_coo(rows, cols, a[rows, cols])


def _encode_rows(p: ProblemData, lo: int, hi: int):
    """_encode_matrix(p.A[lo:hi]), read off A's triplets where A is sparse, so
    that no m x n array is formed: the block's stored entries are its triplets,
    in the order np.nonzero lists them."""
    A = p._a_triplets
    if A is None:
        return _encode_matrix(p.A[lo:hi])
    block = A.block(lo, hi)
    if not _coo_encoded((hi - lo) * p.n, block.values.size):
        return block.dense().tolist()
    return _encode_coo(block.rows, block.cols, block.values)


def _encode_coo(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> dict:
    return {"coo": {"rows": rows.tolist(), "cols": cols.tolist(), "values": values.tolist()}}


def _encode_q(p: ProblemData):
    """_encode_matrix(p.Q), with no n x n array for a stored diagonal whose
    encoding is COO: past _DENSE_MAX_ENTRIES cells every diagonal is sparse by
    the COO rule, and its entries are the stored ones (nonzero or -0.0) in
    row order, as np.nonzero lists them."""
    d = p._d
    if d is None or d.size * d.size <= _DENSE_MAX_ENTRIES:
        return _encode_matrix(p.Q)
    i = np.flatnonzero((d != 0) | np.signbit(d))
    return _encode_coo(i, i, d[i])


def problem_document(p: ProblemData, meta: dict | None = None) -> dict:
    """The JSON-ready document for an instance."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": p.n,
        "m1": p.m1,
        "m2": p.m2,
        "Q": _encode_q(p),
        "c": p.c.tolist(),
        "A1": _encode_rows(p, 0, p.m1),
        "b1": p.b1.tolist(),
        "A2": _encode_rows(p, p.m1, p.m),
        "b2": p.b2.tolist(),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def _problem_text(p: ProblemData, meta: dict | None = None) -> str:
    """The instance file's text: the document as one line of JSON, then a newline."""
    return json.dumps(problem_document(p, meta), allow_nan=False) + "\n"


def save_problem(p: ProblemData, path: str | Path, meta: dict | None = None) -> None:
    """Write an instance file; values round-trip bit exactly through load_problem.

    ``meta`` is stored verbatim under the ``meta`` key and ignored by
    :func:`load_problem`. The text is formed before the file is opened, so a
    document that cannot be serialized raises and writes nothing.
    """
    Path(path).write_text(_problem_text(p, meta), encoding="utf-8")


_NUMBER_TYPES = frozenset({int, float})


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the double range
        return np.inf


def _decode_numbers(values: list, where) -> np.ndarray:
    """Doubles from a flat list of JSON scalars; ``where(t)`` names entry t.

    Bools are rejected: JSON's true and false parse to bool, whose exact type is
    not int. An integer too large for a double counts as non-finite, like 1e999.
    """
    if not set(map(type, values)) <= _NUMBER_TYPES:
        t = next(t for t, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
        raise ProblemFormatError(f"{where(t)}: expected a number, got {type(values[t]).__name__}")
    try:
        out = np.array(values, dtype=float)
    except OverflowError:
        out = np.array([_float_or_inf(v) for v in values], dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        raise ProblemFormatError(f"{where(int(np.argmax(bad)))}: non-finite value")
    return out


def _decode_indices(values: list, bound: int, where) -> np.ndarray:
    """Indices in [0, bound) from a list of JSON integers; ``where(t)`` names entry t."""
    if not set(map(type, values)) <= {int}:
        t = next(t for t, v in enumerate(values) if type(v) is not int)
        raise ProblemFormatError(f"{where(t)}: expected an integer index")
    # min and max compare Python ints exactly, so a huge index cannot overflow here
    if values and not (min(values) >= 0 and max(values) < bound):
        t = next(t for t, v in enumerate(values) if not 0 <= v < bound)
        raise ProblemFormatError(f"{where(t)}: index {values[t]} out of range [0, {bound})")
    return np.array(values, dtype=np.intp)


def _decode_vector(value, length: int, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{name}: expected an array")
    if len(value) != length:
        raise ProblemFormatError(f"{name}: has length {len(value)}, declared {length}")
    return _decode_numbers(value, lambda t: f"{name}[{t}]")


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_beyond_memory(rows: int, cols: int, name: str, allocate: bool = False):
    """Raise if a dense rows x cols matrix cannot fit; return it, zeroed, if ``allocate``.

    The size is compared with the machine's physical memory, which allocates
    nothing. Where the OS does not report its memory, the array is allocated
    all the same, and dropped unless ``allocate``: a failure is then the only
    sign, and is refused in the same words.
    """
    need = rows * cols * np.dtype(float).itemsize
    have = _physical_memory()
    too_big = f"{name}: a dense {rows}x{cols} matrix needs {need} bytes"
    if have is not None and need > have:
        raise ProblemFormatError(f"{too_big}, more than this machine's {have} bytes of memory")
    if allocate or have is None:
        try:
            out = np.zeros((rows, cols))
        except MemoryError as exc:
            raise ProblemFormatError(f"{too_big}, which could not be allocated") from exc
        return out if allocate else None
    return None


def _dense_zeros(rows: int, cols: int, name: str) -> np.ndarray:
    """The dense rows x cols array that a COO matrix fills, refused if it cannot fit."""
    return _refuse_beyond_memory(rows, cols, name, allocate=True)


def _decode_matrix(value, rows: int, cols: int, name: str, q: bool = False):
    """The matrix ``value`` encodes. A COO Q (``q``) whose entries all lie on
    the diagonal comes back as that diagonal, 1-D, and any other as a dense
    array; a COO constraint block comes back as its triplets, with no dense
    array, but refused as a dense one is if its dense form cannot fit in memory."""
    if isinstance(value, dict):
        if set(value) != {"coo"} or not isinstance(value["coo"], dict):
            raise ProblemFormatError(f"{name}: matrix object must hold a single 'coo' entry")
        coo = value["coo"]
        if set(coo) != {"rows", "cols", "values"}:
            raise ProblemFormatError(f"{name}.coo: expected keys rows, cols, values")
        ri, ci, vals = coo["rows"], coo["cols"], coo["values"]
        if not (isinstance(ri, list) and isinstance(ci, list) and isinstance(vals, list)):
            raise ProblemFormatError(f"{name}.coo: rows, cols, values must be arrays")
        if not len(ri) == len(ci) == len(vals):
            raise ProblemFormatError(f"{name}.coo: rows, cols, values differ in length")
        # Python ints compare exactly, so == decides whether every entry is on the diagonal
        on_diagonal = q and ri == ci
        if on_diagonal:
            out = np.zeros(rows)
        elif q:
            out = _dense_zeros(rows, cols, name)
        else:
            _refuse_beyond_memory(rows, cols, name)
            out = None
        r = _decode_indices(ri, rows, lambda t: f"{name}.coo.rows[{t}]")
        c = _decode_indices(ci, cols, lambda t: f"{name}.coo.cols[{t}]")
        # with no repeat, first sorts the entries in row-major order
        _, first = np.unique(r * cols + c, return_index=True)
        if first.size < r.size:
            repeat = np.ones(r.size, dtype=bool)
            repeat[first] = False
            t = int(np.argmax(repeat))
            raise ProblemFormatError(f"{name}.coo: duplicate entry at ({r[t]}, {c[t]})")
        v = _decode_numbers(vals, lambda t: f"{name}.coo.values[{t}]")
        if out is None:
            first = first[(v[first] != 0) | np.signbit(v[first])]  # a +0.0 is not stored
            return _frozen_triplets(r[first], c[first], v[first], (rows, cols))
        out[r if on_diagonal else (r, c)] = v
        return out
    if not isinstance(value, list):
        raise ProblemFormatError(f"{name}: expected an array of rows or a coo object")
    if len(value) != rows:
        raise ProblemFormatError(f"{name}: has {len(value)} rows, declared {rows}")
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ProblemFormatError(f"{name}[{i}]: expected an array")
        if len(row) != cols:
            raise ProblemFormatError(f"{name}[{i}]: has {len(row)} entries, declared {cols}")
    flat = list(itertools.chain.from_iterable(value))
    return _decode_numbers(flat, lambda t: f"{name}[{t // cols}][{t % cols}]").reshape(rows, cols)


def _require_dim(doc: dict, key: str) -> int:
    if key not in doc:
        raise ProblemFormatError(f"missing field '{key}'")
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ProblemFormatError(f"{key}: expected a nonnegative integer")
    return v


def load_problem(path: str | Path) -> ProblemData:
    """Parse an instance file.

    Raises ProblemFormatError with the offending location for malformed files:
    bad JSON, missing fields, wrong row or column counts against the declared
    dimensions, non-numeric cells, non-finite values (an integer literal beyond
    the double range among them), sparse indices that are not integers in range,
    duplicate sparse entries, a sparse matrix whose dense form needs more bytes
    than the machine's physical memory (or fails to allocate), and data that
    :class:`ProblemData` rejects, such as ``n = 0``. Each check runs over a whole
    array; the error names the first entry that fails it. A sparse Q whose
    entries all lie on the diagonal loads as its diagonal, with no dense form.
    """

    def _reject_constant(token: str):
        raise ProblemFormatError(f"non-finite literal '{token}' not allowed")

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise ProblemFormatError(f"{path}: not a {FORMAT_NAME} file")

    n = _require_dim(doc, "n")
    m1 = _require_dim(doc, "m1")
    m2 = _require_dim(doc, "m2")
    for key in ("Q", "c", "A1", "b1", "A2", "b2"):
        if key not in doc:
            raise ProblemFormatError(f"missing field '{key}'")
    # each vector before the matrix it sizes, so a COO matrix is never allocated
    # from a declared dimension that the file's own data has not confirmed
    arrays = {
        "c": _decode_vector(doc["c"], n, "c"),
        "Q": _decode_matrix(doc["Q"], n, n, "Q", q=True),
        "b1": _decode_vector(doc["b1"], m1, "b1"),
        "A1": _decode_matrix(doc["A1"], m1, n, "A1"),
        "b2": _decode_vector(doc["b2"], m2, "b2"),
        "A2": _decode_matrix(doc["A2"], m2, n, "A2"),
    }
    # the decoders raise ProblemFormatError, itself a ValueError, so construct apart
    try:
        return ProblemData(**arrays)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
