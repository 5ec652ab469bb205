"""Saddle-point solving and the asymptotic coefficient estimators.

All estimates live in log space; exponentiation happens only in ratio
tests, where the exact count is also moved to log space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bigcount import PartitionKind
from .family import _derivatives, mean, variance
from .special import constants

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class SaddleMethod(enum.Enum):
    BAEZ_DUARTE = "baez_duarte"
    EXACT_ROOT = "exact_root"


class EstimateFormula(enum.Enum):
    HAYMAN = "hayman"
    HAYMAN_BD = "hayman_bd"
    CLOSED_FORM_HR = "closed_form_hr"
    CLOSED_FORM_Q = "closed_form_q"


class ConvergenceError(RuntimeError):
    """Root finder stopped short of its tolerance: the iterate stopped moving
    or the step budget ran out.  bracket is (lo, hi) of the signs seen so
    far, best the last iterate."""

    def __init__(self, message: str, bracket: tuple, best: float):
        super().__init__(f"{message} (best bracket {bracket}, best s {best:g})")
        self.bracket = bracket
        self.best = best


@dataclass(frozen=True)
class SaddleResult:
    kind: PartitionKind
    k: int
    n: int
    method: SaddleMethod
    s: float
    residual: float  # mean(e^-s) - n; 0.0 by convention for BAEZ_DUARTE
    evaluations: int = 0  # mean plus variance evaluations of the solve; 0 for BAEZ_DUARTE


@dataclass(frozen=True)
class LogEstimate:
    """Natural log of a positive coefficient estimate (exp may overflow and
    is never required)."""

    log_value: float
    n: int
    k: int
    kind: PartitionKind
    formula: EstimateFormula
    heuristic: bool = False  # Distinct Hayman-style estimates are unproven


def _validate_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def bd_saddle(k: int, n: int, kind: PartitionKind = PartitionKind.UNRESTRICTED) -> SaddleResult:
    """Closed-form saddle s_n = (C/n)^(k/(k+1)) inverting the leading mean
    asymptotics C / s^(1+1/k); C is Omega_k (unrestricted) or Phi_k (distinct)."""
    _validate_n(n)
    cs = constants(k)
    c = cs.Omega if kind is PartitionKind.UNRESTRICTED else cs.Phi
    s = (c / n) ** (k / (k + 1.0))
    return SaddleResult(kind=kind, k=k, n=n, method=SaddleMethod.BAEZ_DUARTE,
                        s=s, residual=0.0)


def exact_saddle(kind: PartitionKind, k: int, n: int, rtol: float = 1e-10,
                 eps: float = 1e-12) -> SaddleResult:
    """Solve mean(e^-s) = n for s by Newton's method from the closed-form
    saddle s_bd of bd_saddle.

    For both kinds the mean sum_j j^k / (e^(j^k s) -+ 1) is decreasing and
    convex in s, because every summand is, so the root is unique and a
    Newton step (d mean/ds = -variance) lands at or left of it: from the
    left the iterates rise to the root without overshooting, and from the
    right one step takes them to the left.  Against rounding, each iterate
    stays inside the bracket (lo, hi) of the signs seen so far, (0, inf) at
    the start: a step that leaves it is replaced by 4s while hi is inf, s/4
    while lo is 0 and the midpoint otherwise.

    Stops when |mean - n| <= rtol * n.  Raises ConvergenceError once the
    iterate stops moving (rtol is below the rounding of the mean) or after
    200 steps.
    """
    _validate_n(n)
    if not 0.0 < rtol <= 1e-3:
        raise ValueError(f"rtol must be in (0, 1e-3], got {rtol!r}")
    s = bd_saddle(k, n, kind).s
    lo, hi = 0.0, math.inf
    for step in range(200):
        g = mean(kind, k, s, eps) - n
        if abs(g) <= rtol * n:  # step + 1 means and step variances so far
            return SaddleResult(kind=kind, k=k, n=n, method=SaddleMethod.EXACT_ROOT,
                                s=s, residual=g, evaluations=2 * step + 1)
        if g > 0.0:
            lo = s
        else:
            hi = s
        nxt = s + g / variance(kind, k, s, eps)
        if nxt == s or math.nextafter(lo, hi) >= hi:
            raise ConvergenceError("saddle iterate stopped moving", (lo, hi), s)
        if not lo < nxt < hi:
            nxt = 4.0 * s if hi == math.inf else s / 4.0 if lo == 0.0 else 0.5 * (lo + hi)
        s = nxt
    raise ConvergenceError("saddle iteration cap exceeded", (lo, hi), s)


def hayman_estimate(kind: PartitionKind, k: int, n: int, saddle: SaddleResult,
                    eps: float = 1e-12) -> LogEstimate:
    """log of f(t_n) / (sqrt(2 pi) t_n^n sigma(t_n)) at the supplied saddle."""
    if saddle.kind is not kind or saddle.k != k or saddle.n != n:
        raise ValueError("saddle result does not match kind/k/n")
    s = saddle.s
    base, var = _derivatives(kind, k, s, (0, 2), eps)
    log_value = base + n * s - _LOG_SQRT_TWO_PI - 0.5 * math.log(var)
    formula = (EstimateFormula.HAYMAN if saddle.method is SaddleMethod.EXACT_ROOT
               else EstimateFormula.HAYMAN_BD)
    return LogEstimate(log_value=log_value, n=n, k=k, kind=kind, formula=formula,
                       heuristic=kind is PartitionKind.DISTINCT)


def hr_closed_form(k: int, n: int) -> LogEstimate:
    """log of alpha_k * n^(-(3k+1)/(2k+2)) * exp(beta_k * n^(1/(k+1)))."""
    _validate_n(n)
    cs = constants(k)
    log_value = (math.log(cs.alpha)
                 - (3.0 * k + 1.0) / (2.0 * k + 2.0) * math.log(n)
                 + cs.beta * n ** (1.0 / (k + 1.0)))
    return LogEstimate(log_value=log_value, n=n, k=k, kind=PartitionKind.UNRESTRICTED,
                       formula=EstimateFormula.CLOSED_FORM_HR)


def qk_closed_form(k: int, n: int) -> LogEstimate:
    """Distinct-parts analogue with Phi_k in place of Omega_k and the
    1/(2 sqrt(pi)) prefactor."""
    _validate_n(n)
    cs = constants(k)
    phi = cs.Phi
    log_value = (-math.log(2.0 * math.sqrt(math.pi))
                 + k / (2.0 * k + 2.0) * math.log(phi)
                 - 0.5 * math.log(1.0 + 1.0 / k)
                 - (2.0 * k + 1.0) / (2.0 * k + 2.0) * math.log(n)
                 + (k + 1.0) * phi ** (k / (k + 1.0)) * n ** (1.0 / (k + 1.0)))
    return LogEstimate(log_value=log_value, n=n, k=k, kind=PartitionKind.DISTINCT,
                       formula=EstimateFormula.CLOSED_FORM_Q)


def second_order_logP(k: int, s: float) -> float:
    """Three-term approximation of ln P_k(e^-s):
    omega_{k,0} s^(-1/k) + ln(s)/2 - k ln(sqrt(2 pi))."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s!r}")
    cs = constants(k)
    return cs.omega[0] * s ** (-1.0 / k) + 0.5 * math.log(s) - k * _LOG_SQRT_TWO_PI


__all__ = [
    "SaddleMethod",
    "EstimateFormula",
    "SaddleResult",
    "LogEstimate",
    "ConvergenceError",
    "bd_saddle",
    "exact_saddle",
    "hayman_estimate",
    "hr_closed_form",
    "qk_closed_form",
    "second_order_logP",
]
