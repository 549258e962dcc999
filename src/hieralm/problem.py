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


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Immutable, well-formed problem data. Arrays are copied and made read-only.

    The decision dimension ``n`` is taken from ``c``; block sizes come from the
    constraint matrices. A block with zero rows is normalized to shape (0, n).
    The blocks are stored once, stacked high priority first: ``A`` (m x n) and
    ``b`` (m,), built straight from the inputs, and ``A1``, ``A2``, ``b1`` and
    ``b2`` are read-only row views of them.

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
    (m k doubles; building it forms a transient m x m Gram A A' and its
    eigenvectors, 1.3 MB each at the 20x20 grid and 6.5 MB at 30x30),
    ``q_diagonal`` and ``a_csr`` (for a sparse A, CSR copies of A and A',
    24 nnz(A) + 4 (m + n + 2) bytes: 81 KB at the 20x20 grid) here, and in
    :mod:`hieralm.alm` the check of Q and the solver's factors: for a definite
    diagonal Q, about m r + n doubles with r = rank(A) (1.3 MB at the 20x20
    grid and 6.5 MB at 30x30), and nm + m^2 more if an escalation builds the
    base-D rung of ``hieralm.alm._Ladder`` (6.1 MB and 32 MB); for any other Q,
    or once the Q + A'A rung is built, nm + m^2 and n^2 more (25 MB and 128 MB).
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
            a = _float_array(getattr(self, mat), 2, mat)
            if a.shape[0] == 0:
                a = a.reshape(0, n)
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
            if not np.isfinite(arr).all():
                errors.append(f"{name} has non-finite entries")
        if errors:
            raise ValueError("; ".join(errors))
        m1 = arrays["A1"].shape[0]
        for whole, top, bottom in (("A", "A1", "A2"), ("b", "b1", "b2")):
            stacked = np.concatenate((arrays[top], arrays[bottom]))
            stacked.flags.writeable = False
            object.__setattr__(self, whole, stacked)
            object.__setattr__(self, top, stacked[:m1])
            object.__setattr__(self, bottom, stacked[m1:])

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m1(self) -> int:
        return self.A1.shape[0]

    @property
    def m2(self) -> int:
        return self.A2.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @cached_property
    def left_null(self) -> np.ndarray:
        """Orthonormal basis N of null(A'), shape (m, k) with k = m - rank(A).

        Rows split like the blocks: N[:m1] belongs to A1, N[m1:] to A2. The rank
        follows lstsq's rule, singular values above max(m, n) * eps * s_max
        (``_rank_cutoff``). N is first read from one eigendecomposition of the
        m x m Gram G = A A' (a transient 1.3 MB at the 20x20 grid, 6.5 MB at
        30x30) and kept only if that candidate is certified (``_gram_left_null``);
        otherwise it comes from the SVD of the R factor of A' (``_svd_left_null``),
        which also resolves the singular values that G's squared condition number
        cannot, as when no gap separates A's spectrum from the cutoff. Each build
        logs its route at DEBUG. N is then rotated by the right singular vectors
        of N2 (an SVD of m2 x k; its U and the unrotated N, at most m k doubles
        each, are transient), so that N1 and N2 each have orthogonal columns.
        The cache cannot go stale because the arrays are read-only.
        """
        N, figures = _gram_left_null(self.A)
        route = "gram"
        if N is None:
            N, route = _svd_left_null(self.A), "qr-svd"
        logger.debug("left_null: %s route, k = %d; %s", route, N.shape[1], figures)
        N = N @ np.linalg.svd(N[self.m1 :], full_matrices=self.m2 < N.shape[1])[2].T
        N.flags.writeable = False
        return N

    def __getattr__(self, name: str):
        # reached only when lookup fails: Q, stored as its diagonal and not read yet
        if name != "Q" or self._d is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        Q = np.diag(self._d)
        Q.flags.writeable = False
        object.__setattr__(self, "Q", Q)  # later reads find it, so p.Q is p.Q
        return Q

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
        files store a matrix as COO. A CSR row adds its nonzeros in another order
        than a dense product, so a product's last bits can differ.
        """
        if np.count_nonzero(self.A) > _COO_DENSITY * self.m * self.n:
            return None
        from scipy.sparse import csr_array  # here, so that importing hieralm does not load it

        copies = (csr_array(self.A), csr_array(self.A.T))
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


def _svd_left_null(A: np.ndarray) -> np.ndarray:
    """N from the SVD of R, where A' = QR: the min(m, n) x m factor R has A's
    singular values and null(R) = null(A'), so N is the right singular vectors
    past the rank. Only R is formed, never Q or an m x n singular factor."""
    m, n = A.shape
    _, s, Vt = np.linalg.svd(np.linalg.qr(A.T, mode="r"))
    tol = _rank_cutoff(m, n, s[0] if s.size else 0.0)
    return Vt[int(np.count_nonzero(s > tol)):].T.copy()


def _gram_left_null(A: np.ndarray) -> tuple[np.ndarray | None, str]:
    """(N, figures): N from eigh(A A') if certified (``_certified_gram`` with
    B = A), else None; figures words the candidate."""
    with np.errstate(over="ignore"):  # an overflow shows in the band
        G = A @ A.T  # numpy computes a product with its own transpose as one syrk
    spectrum, figures = _certified_gram(G, A.shape[1], lambda N: np.linalg.norm(N.T @ A))
    if spectrum is None:
        return None, figures
    _, V, k = spectrum
    return np.ascontiguousarray(V[:, :k]), figures


def _certified_gram(G: np.ndarray, n: int, dropped_norm, eigh=np.linalg.eigh):
    """((w, V, k), figures) from eigh(G) if it certifies the rank of B, else (None, figures).

    G = B B' is the m x m Gram matrix of an m x n matrix B; it has the squared
    singular values of B and null(G) = null(B'). ``eigh`` (LAPACK syevd by
    default) gives G = V diag(w) V' with w ascending, and ``dropped_norm(N)`` is
    ||B'N||_F for N, the first k columns of V. Each computed eigenvalue of G errs
    by at most about the band max(m, n) * eps * ||B||_F^2 (the rounding of B B'
    is bounded by n eps |B||B'|, whose norm is at most ||B||_F^2 = trace(G) >=
    lambda_max), so the k eigenvalues inside it are taken as zero and their
    eigenvectors N as a basis of null(B'). Squaring cannot resolve a singular
    value near lstsq's cutoff (``_rank_cutoff``), so the split is certified
    only when

    (a) the least kept eigenvalue exceeds ten bands: every kept singular value
        is then at least sqrt(9 band), far above the cutoff; and
    (b) ||B'N||_F is at most a tenth of the cutoff: by Courant-Fischer the k
        dropped singular values are then below it, and by the sin theta theorem
        N is within ||B'N|| / s_r of null(B'), a tenth of the Wedin bound
        max(m, n) eps s_max / s_r that the SVD route meets.

    The band must be a normal number: an overflow in G makes it inf, and B = 0,
    m = 0 or a G lost whole to underflow make it 0 or subnormal; eigh is then
    not called. :attr:`ProblemData.left_null` takes N with B = A, and the
    solver's setup for a diagonal Q = D keeps the other columns with
    B = A D^-1/2.
    """
    m = G.shape[0]
    band = max(m, n) * _EPS * np.trace(G)
    if not np.finfo(float).tiny <= band < np.inf:
        return None, f"Gram rounding band {band:.2e} is not a normal number"
    w, V = eigh(G)
    k = int(np.count_nonzero(w <= band))
    residual = dropped_norm(V[:, :k]) / _rank_cutoff(m, n, np.sqrt(w[-1]))
    gap = w[k] / band if k < m else np.inf
    figures = (
        f"Gram candidate k = {k}, ||B'N|| / cutoff = {residual:.2e}, "
        f"least kept eigenvalue / band = {gap:.2e}"
    )
    return ((w, V, k) if gap > 10.0 and residual <= 0.1 else None), figures


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


def _encode_matrix(a: np.ndarray):
    size = a.size
    # -0.0 compares equal to 0 but is stored, so it round-trips bit exactly
    stored = (a != 0) | np.signbit(a)
    nnz = int(np.count_nonzero(stored))
    if size <= _DENSE_MAX_ENTRIES or nnz > _COO_DENSITY * size:
        return a.tolist()
    rows, cols = np.nonzero(stored)
    return _encode_coo(rows, cols, a[rows, cols])


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
        "A1": _encode_matrix(p.A1),
        "b1": p.b1.tolist(),
        "A2": _encode_matrix(p.A2),
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


def _dense_zeros(rows: int, cols: int, name: str) -> np.ndarray:
    """The dense rows x cols array that a COO matrix fills, refused if it cannot fit."""
    need = rows * cols * np.dtype(float).itemsize
    have = _physical_memory()
    too_big = f"{name}: a dense {rows}x{cols} matrix needs {need} bytes"
    if have is not None and need > have:
        raise ProblemFormatError(f"{too_big}, more than this machine's {have} bytes of memory")
    try:
        return np.zeros((rows, cols))
    except MemoryError as exc:
        raise ProblemFormatError(f"{too_big}, which could not be allocated") from exc


def _decode_matrix(value, rows: int, cols: int, name: str, diagonal: bool = False) -> np.ndarray:
    """The matrix ``value`` encodes; with ``diagonal``, a COO matrix whose entries
    all lie on the diagonal comes back as that diagonal, 1-D."""
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
        on_diagonal = diagonal and ri == ci
        out = np.zeros(rows) if on_diagonal else _dense_zeros(rows, cols, name)
        r = _decode_indices(ri, rows, lambda t: f"{name}.coo.rows[{t}]")
        c = _decode_indices(ci, cols, lambda t: f"{name}.coo.cols[{t}]")
        _, first = np.unique(r * cols + c, return_index=True)
        if first.size < r.size:
            repeat = np.ones(r.size, dtype=bool)
            repeat[first] = False
            t = int(np.argmax(repeat))
            raise ProblemFormatError(f"{name}.coo: duplicate entry at ({r[t]}, {c[t]})")
        out[r if on_diagonal else (r, c)] = _decode_numbers(
            vals, lambda t: f"{name}.coo.values[{t}]"
        )
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
        "Q": _decode_matrix(doc["Q"], n, n, "Q", diagonal=True),
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
