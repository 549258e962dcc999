"""Hierarchical shifts from the left null space of the stacked constraints.

A shift is a residual pair s = b - A x, so it lies in b + range(A). With N an
orthonormal basis of null(A') (:attr:`ProblemData.left_null`, split N = [N1; N2]
by block, and rotated so that N1 and N2 each have orthogonal columns, as in the
CS decomposition) every such s satisfies N'(b - s) = 0, and both shifts below
are diagonal filters on t = N'b, after Van Loan (SIAM J. Numer. Anal. 22(5), 1985):

- the weighted shift, the residual of

      minimize  sigma1/2 ||b1 - A1 x||^2 + sigma2/2 ||b2 - A2 x||^2,

  which each outer iteration uses, and
- the exact hierarchical shift, its limit as eta = sigma1/sigma2 grows: first
  minimize ||s1||, then ||s2|| among the shifts achieving that minimum.

The schedule drives eta up geometrically while capping the absolute weight scale
and the ratio. Everything here runs on numpy alone: no shift loads SciPy.
"""

from __future__ import annotations

import logging
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .problem import HierarchicalShift, ProblemData

__all__ = [
    "OracleResult",
    "SigmaPair",
    "SigmaSchedule",
    "approximate_shift",
    "approximate_shift_sequence",
    "hierarchical_shift",
    "sigma_at",
]

logger = logging.getLogger(__name__)

# joint downscale bound on sigma1; rescaling both weights preserves eta
_SIGMA1_CAP = 1e12

# N has orthonormal columns, so the column norms of the rotated N2 lie in [0, 1];
# the ones that stand for exact zeros carry the error of N, about eps * cond(A)
_NULL_TOL = math.sqrt(np.finfo(float).eps)

_TINY = float(np.finfo(float).tiny)  # the least normal double
_HUGE = float(np.finfo(float).max)  # the largest double; Python compares it with an int exactly


@dataclass(frozen=True)
class OracleResult:
    """Exact shift plus diagnostics.

    Attributes:
        shift: The hierarchically optimal shift pair, the eta -> infinity limit
            of :func:`approximate_shift`.
        rank1: Numerical rank of A1.
        stage1_value: 0.5 ||s1||^2 at the optimum.
        stage2_value: 0.5 ||s2||^2 at the optimum.
    """

    shift: HierarchicalShift
    rank1: int
    stage1_value: float
    stage2_value: float


@dataclass(frozen=True)
class SigmaPair:
    """Positive weights for the two priority blocks. Their ratio eta must be a
    normal number, so that neither eta nor 1/eta overflows in a shift."""

    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        _require_real(self, ("sigma1", "sigma2"))
        self._check_values()

    @classmethod
    def _of_floats(cls, sigma1: float, sigma2: float) -> SigmaPair:
        """SigmaPair(sigma1, sigma2) for two Python floats, such as sigma_at
        computes: the value checks, without the type checks."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "sigma1", sigma1)
        object.__setattr__(pair, "sigma2", sigma2)
        pair._check_values()
        return pair

    def _check_values(self) -> None:
        for name, v in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not _TINY <= self.eta < math.inf:
            raise ValueError(f"sigma1 / sigma2 must be a normal number, got {self.eta}")

    @property
    def eta(self) -> float:
        """Priority ratio sigma1 / sigma2."""
        return self.sigma1 / self.sigma2


@dataclass(frozen=True)
class SigmaSchedule:
    """Geometric weight growth: sigma_i(k) = sigma_i_0 * factor_i**k.

    The high-priority factor must outgrow the low-priority one so eta increases.
    sigma1 is capped at 1e12 by rescaling both weights jointly (the ratio is all
    that matters for the shift), and eta itself is capped at ``eta_cap`` by
    raising sigma2, with a logged warning at the first k where the cap binds.
    ``eta_cap`` must be finite, which keeps sigma2 positive at every k, and
    sigma1_0 / sigma2_0 a normal number or larger, which keeps eta one at k = 0.
    """

    sigma1_0: float = 1.0
    sigma1_factor: float = 10.0
    sigma2_0: float = 1.0
    sigma2_factor: float = 1.1
    eta_cap: float = 1e12

    def __post_init__(self) -> None:
        _require_real(self, ("sigma1_0", "sigma1_factor", "sigma2_0", "sigma2_factor", "eta_cap"))
        for name in ("sigma1_0", "sigma2_0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        # eta is least at k = 0, where sigma_at would reject a ratio below the
        # normal range with SigmaPair's message; a ratio past the double range
        # is capped at eta_cap
        if (eta0 := self.sigma1_0 / self.sigma2_0) < _TINY:
            raise ValueError(f"sigma1 / sigma2 must be a normal number, got {eta0}")
        if not self.sigma1_factor > self.sigma2_factor >= 1.0:
            raise ValueError(
                "need sigma1_factor > sigma2_factor >= 1, got "
                f"{self.sigma1_factor} and {self.sigma2_factor}"
            )
        if not 1.0 <= self.eta_cap < math.inf:
            raise ValueError(f"eta_cap must be finite and >= 1, got {self.eta_cap}")


def _require_real(obj, names: tuple[str, ...]) -> None:
    """Each named field must be a real number (see :func:`_is_real`); it is
    stored as a Python float, so that no numpy scalar's promotion rules reach
    the arithmetic. An integer beyond the double range is stored as +-inf."""
    for name in names:
        if not _is_real(v := getattr(obj, name)):
            raise ValueError(f"{name} must be a real number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:
            x = math.inf if v > 0 else -math.inf
        object.__setattr__(obj, name, x)


def _require_integer(obj, names: tuple[str, ...]) -> None:
    """Each named field must be an integer (see :func:`_integer`); it is stored as an int."""
    for name in names:
        object.__setattr__(obj, name, _integer(name, getattr(obj, name)))


def _integer(name: str, v) -> int:
    """``v`` as an int: it must be an int or a numpy integer, and not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _is_real(v) -> bool:
    """A real number and not a bool, which would pass as 0 or 1."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _exp(x: float) -> float:
    """math.exp, inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power(base: float, scale: float, k: int) -> float:
    """scale * base**k; in log space where base**k alone overflows."""
    try:
        return scale * base**k
    except OverflowError:
        return _exp(math.log(scale) + k * math.log(base))


def _scaled_weights(schedule: SigmaSchedule, k: int) -> tuple[float, float]:
    """Weights at k after the scale cap, before the ratio cap."""
    if k > _HUGE:
        # no double holds k: sigma1 is past the scale cap, and sigma2 / sigma1,
        # which falls as (sigma2_factor / sigma1_factor)^k, is below every double
        return _SIGMA1_CAP, 0.0
    sigma1 = _power(schedule.sigma1_factor, schedule.sigma1_0, k)
    if sigma1 <= _SIGMA1_CAP:
        return sigma1, _power(schedule.sigma2_factor, schedule.sigma2_0, k)
    # past the cap the ratio is all that matters; downscale jointly in log space
    # so huge k cannot overflow
    excess = (
        math.log(schedule.sigma1_0)
        + k * math.log(schedule.sigma1_factor)
        - math.log(_SIGMA1_CAP)
    )
    sigma2 = _exp(math.log(schedule.sigma2_0) + k * math.log(schedule.sigma2_factor) - excess)
    return _SIGMA1_CAP, sigma2


def _eta_cap_binds(schedule: SigmaSchedule, k: int) -> bool:
    sigma1, sigma2 = _scaled_weights(schedule, k)
    return sigma2 * schedule.eta_cap < sigma1


def sigma_at(schedule: SigmaSchedule, k: int) -> SigmaPair:
    """Weights at outer iteration k, after the scale and ratio caps.

    eta grows with k, so once the ratio cap binds it binds for every later k; the
    warning is logged only at the first binding k.
    """
    k = _integer("k", k)
    if k < 0:
        raise ValueError(f"iteration index must be nonnegative, got {k}")
    sigma1, sigma2 = _scaled_weights(schedule, k)
    if _eta_cap_binds(schedule, k):
        if k == 0 or not _eta_cap_binds(schedule, k - 1):
            logger.warning(
                "eta cap %.3g binding at k=%d; raising sigma2 from %.3g",
                schedule.eta_cap,
                k,
                sigma2,
            )
        sigma2 = sigma1 / schedule.eta_cap
    return SigmaPair._of_floats(sigma1, sigma2)


# one entry per live instance, read-only; a weak key drops the entry with the
# instance, which is as long as its left_null stays cached
_COORDINATES: weakref.WeakKeyDictionary[ProblemData, tuple] = weakref.WeakKeyDictionary()


def _cs_coordinates(p: ProblemData):
    """N1, N2, their squared column norms a1, a2, and t = N'b, computed on the
    first call for an instance and kept. A column with a2 <= _NULL_TOL^2 lies
    in null(A1'): its N2 part is dropped (also from a2 and t), else a filter
    dividing by a2 or by 1/eta would amplify its round-off. N is copied only
    when a column is dropped; otherwise N1 and N2 are views of left_null."""
    if (found := _COORDINATES.get(p)) is not None:
        return found
    N = p.left_null
    drop = np.einsum("ij,ij->j", N[p.m1 :], N[p.m1 :]) <= _NULL_TOL**2
    if drop.any():
        N = N.copy()
        N[p.m1 :, drop] = 0.0
    N1, N2 = N[: p.m1], N[p.m1 :]  # views, so that t sees the dropped parts as zero
    found = (N1, N2, np.einsum("ij,ij->j", N1, N1), np.einsum("ij,ij->j", N2, N2), N.T @ p.b)
    for array in found:
        array.flags.writeable = False
    _COORDINATES[p] = found
    return found


def approximate_shift(p: ProblemData, sigma: SigmaPair) -> HierarchicalShift:
    """Residual pair of the weighted relaxation for one weight pair.

    The residual r = b - A x_bar of the weighted least squares satisfies
    A'W r = 0 and N'(b - r) = 0 with W = diag(sigma1 I, sigma2 I), so
    r = W^-1 N c with (N'W^-1 N) c = N'b. N1 and N2 have orthogonal columns,
    so N'W^-1 N = diag(a1 / sigma1 + a2 / sigma2), and r is
    s1 = N1 (t / (a1 + eta a2)), s2 = N2 (t / (a1 / eta + a2)). The residual is
    unique even when x_bar is not.

    Returns:
        The shift (s1, s2); it does not record ``sigma``.
    """
    N1, N2, a1, a2, t = _cs_coordinates(p)
    eta = sigma.eta
    # a column in null(A1') has no N2 part, and its s2 filter eta t / a1 could overflow
    kept = a2 > 0.0
    s2 = N2[:, kept] @ (t[kept] / (a1[kept] / eta + a2[kept]))
    return HierarchicalShift(N1 @ (t / (a1 + eta * a2)), s2)


def approximate_shift_sequence(
    p: ProblemData, schedule: SigmaSchedule, count: int
) -> list[HierarchicalShift]:
    """Shifts for k = 0 .. count-1 along the schedule."""
    count = _integer("count", count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [approximate_shift(p, sigma_at(schedule, k)) for k in range(count)]


def hierarchical_shift(p: ProblemData) -> OracleResult:
    """The exact hierarchically optimal shift, the eta -> infinity limit.

    The columns of N with no N2 part span the shifts (u, 0) with A1'u = 0, so
    rank(A1) is m1 less their number and the least high-priority shift is
    their part of t, s1 = N1 (t / a1). The other columns give the least s2
    with N'(b - s) = 0, s2 = N2 (t / a2). Only an A1 with dependent rows has
    such columns, the only case in which its block alone can be inconsistent.
    """
    N1, N2, a1, a2, t = _cs_coordinates(p)
    null1 = a2 == 0.0
    s1 = N1[:, null1] @ (t[null1] / a1[null1])
    s2 = N2[:, ~null1] @ (t[~null1] / a2[~null1])
    return OracleResult(
        shift=HierarchicalShift(s1, s2),
        rank1=p.m1 - int(np.count_nonzero(null1)),
        stage1_value=0.5 * float(s1 @ s1),
        stage2_value=0.5 * float(s2 @ s2),
    )
