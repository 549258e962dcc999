"""Hierarchical shifts from the left null space of the stacked constraints.

A shift is a residual pair s = b - A x, so it lies in b + range(A). With N an
orthonormal basis of null(A') (:attr:`ProblemData.left_null`, split N = [N1; N2]
by block) every such s satisfies N'(b - s) = 0, and both shifts below are closed
forms in the k = m - rank(A) coordinates of N, the weighting method of Van Loan
(SIAM J. Numer. Anal. 22(5), 1985):

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

# N has orthonormal columns, so the singular values of N2 lie in [0, 1]; the ones
# that stand for exact zeros carry the error of N, about eps * cond(A)
_NULL_TOL = math.sqrt(np.finfo(float).eps)


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
    """Positive weights for the two priority blocks."""

    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

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
    ``eta_cap`` must be finite, which keeps sigma2 positive at every k.
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
        if not self.sigma1_factor > self.sigma2_factor >= 1.0:
            raise ValueError(
                "need sigma1_factor > sigma2_factor >= 1, got "
                f"{self.sigma1_factor} and {self.sigma2_factor}"
            )
        if not 1.0 <= self.eta_cap < math.inf:
            raise ValueError(f"eta_cap must be finite and >= 1, got {self.eta_cap}")


def _require_real(obj, names: tuple[str, ...]) -> None:
    """Each named field must be a real number (see :func:`_is_real`)."""
    for name in names:
        if not _is_real(v := getattr(obj, name)):
            raise ValueError(f"{name} must be a real number, got {v!r}")


def _is_real(v) -> bool:
    """A real number and not a bool, which would pass as 0 or 1."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _power(base: float, scale: float, k: int) -> float:
    try:
        return scale * base**k
    except OverflowError:
        return math.inf


def _scaled_weights(schedule: SigmaSchedule, k: int) -> tuple[float, float]:
    """Weights at k after the scale cap, before the ratio cap."""
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
    sigma2 = math.exp(
        math.log(schedule.sigma2_0) + k * math.log(schedule.sigma2_factor) - excess
    )
    return _SIGMA1_CAP, sigma2


def _eta_cap_binds(schedule: SigmaSchedule, k: int) -> bool:
    sigma1, sigma2 = _scaled_weights(schedule, k)
    return sigma2 * schedule.eta_cap < sigma1


def sigma_at(schedule: SigmaSchedule, k: int) -> SigmaPair:
    """Weights at outer iteration k, after the scale and ratio caps.

    eta grows with k, so once the ratio cap binds it binds for every later k; the
    warning is logged only at the first binding k.
    """
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
    return SigmaPair(sigma1, sigma2)


def approximate_shift(p: ProblemData, sigma: SigmaPair) -> HierarchicalShift:
    """Residual pair of the weighted relaxation for one weight pair.

    The residual r = b - A x_bar of the weighted least squares satisfies
    A'W r = 0 and N'(b - r) = 0 with W = diag(sigma1 I, sigma2 I), so
    r = W^-1 N c with (N'W^-1 N) c = N'b. Writing w = W^(-1/2) and
    diag(w) N = QR, this is r = w * (Q R^-T N'b). The residual is unique even
    when x_bar is not. R^-T N'b is one k x k forward substitution in numpy
    (``_solve_rt``); on the grids k = 1 and it is one division.

    Returns:
        The shift (r[:m1], r[m1:]); it does not record ``sigma``.
    """
    N = p.left_null
    w = np.concatenate(
        [np.full(p.m1, sigma.sigma1**-0.5), np.full(p.m2, sigma.sigma2**-0.5)]
    )
    Q, R = np.linalg.qr(w[:, None] * N)
    r = w * (Q @ _solve_rt(R, N.T @ p.b))
    return HierarchicalShift(r[: p.m1], r[p.m1 :])


def _solve_rt(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """R^-T t for an upper triangular R, overwriting t: forward substitution
    on the lower triangular R', column by column (axpy form). At k = 1 it has
    the bits of scipy.linalg.solve_triangular(R, t, trans="T")."""
    for j in range(t.size):
        t[j] /= R[j, j]
        t[j + 1 :] -= R[j, j + 1 :] * t[j]
    return t


def approximate_shift_sequence(
    p: ProblemData, schedule: SigmaSchedule, count: int
) -> list[HierarchicalShift]:
    """Shifts for k = 0 .. count-1 along the schedule."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [approximate_shift(p, sigma_at(schedule, k)) for k in range(count)]


def hierarchical_shift(p: ProblemData) -> OracleResult:
    """The exact hierarchically optimal shift, the eta -> infinity limit.

    The shifts (u, 0) with A1'u = 0 are the N c with c in null(N2). With V a
    basis of null(N2), N1 V is an orthonormal basis of null(A1'), so the least
    high-priority shift is the projection s1 = (N1 V)(N1 V)' b1 and
    rank(A1) = m1 - dim V. The low-priority shift is then the least s2 with
    N'(b - s) = 0, that is s2 = (N2')^+ (N'b - N1's1). V is empty unless A1
    has dependent rows, the only case in which its block alone can be inconsistent.
    """
    N = p.left_null
    N1, N2 = N[: p.m1], N[p.m1 :]
    k = N.shape[1]
    U2, theta, V2t = np.linalg.svd(N2, full_matrices=p.m2 < k)
    r2 = int(np.count_nonzero(theta > _NULL_TOL))
    B = N1 @ V2t[r2:].T
    s1 = B @ (B.T @ p.b1)
    s2 = U2[:, :r2] @ ((V2t[:r2] @ (N.T @ p.b - N1.T @ s1)) / theta[:r2])
    return OracleResult(
        shift=HierarchicalShift(s1, s2),
        rank1=p.m1 - (k - r2),
        stage1_value=0.5 * float(s1 @ s1),
        stage2_value=0.5 * float(s2 @ s2),
    )
