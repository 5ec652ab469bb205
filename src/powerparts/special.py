"""Real special functions and the constant sets of the asymptotic formulas.

zeta is evaluated by Euler-Maclaurin acceleration of the partial sums, good
to better than 1e-13 relative error for x > 1; Gamma is math.gamma.  The
constants below are limited by float arithmetic, not by the evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Bernoulli numbers B_2, B_4, ..., B_24 (exact rationals, rounded once)
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)

# B_{2j} / (2j)!  for the zeta tail
_ZETA_COEFF = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1))


def riemann_zeta(x: float) -> float:
    """zeta(x) for x > 1, via Euler-Maclaurin acceleration at cutoff N = 24.

    Remainder after q correction terms is bounded by the first omitted term
    (real positive argument), which at N = 24 is far below 1e-16 relative.
    """
    x = float(x)
    if not x > 1.0:
        raise ValueError(f"riemann_zeta requires x > 1, got {x!r}")
    n_cut = 24
    acc = math.fsum(m ** -x for m in range(1, n_cut))
    acc += 0.5 * n_cut ** -x
    acc += n_cut ** (1.0 - x) / (x - 1.0)
    poch = x  # (x)(x+1)...(x+2j-2), starts at j=1
    prev = math.inf
    for j, coeff in enumerate(_ZETA_COEFF, start=1):
        term = coeff * poch * n_cut ** (1.0 - x - 2 * j)
        if abs(term) >= prev:  # asymptotic series turned; stop at smallest term
            break
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
        prev = abs(term)
        poch *= (x + 2 * j - 1) * (x + 2 * j)
    return acc


@dataclass(frozen=True)
class ConstantSet:
    """All k-dependent constants of the asymptotic formulas, computed once.

    omega[m] = (1/k) * zeta(1+1/k) * Gamma(m+1/k); Omega = omega[1];
    Phi = (1-2^(-1/k)) * Omega; beta = (k+1) * Omega^(k/(k+1));
    alpha = Omega^(k/(k+1)) / ((2*pi)^((k+1)/2) * (1+1/k)^(1/2)).
    """

    k: int
    omega: tuple  # tuple[float, ...], index m = 0..m_max
    Omega: float
    Phi: float
    alpha: float
    beta: float


@lru_cache(maxsize=None)
def constants(k: int, m_max: int = 8) -> ConstantSet:
    """Constant set for a fixed k; m_max >= 2 so the internal relations close."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    z = riemann_zeta(1.0 + 1.0 / k)
    omega = tuple(z / k * math.gamma(m + 1.0 / k) for m in range(m_max + 1))
    big_omega = omega[1]
    power = big_omega ** (k / (k + 1.0))
    return ConstantSet(
        k=k,
        omega=omega,
        Omega=big_omega,
        Phi=(1.0 - 2.0 ** (-1.0 / k)) * big_omega,
        alpha=power / ((2.0 * math.pi) ** ((k + 1.0) / 2.0) * math.sqrt(1.0 + 1.0 / k)),
        beta=(k + 1.0) * power,
    )


__all__ = ["riemann_zeta", "ConstantSet", "constants"]
