"""Independent oracles: deliberately naive implementations used only to
check the production code.  Nothing here may import the algorithms it
validates beyond type definitions."""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from powerparts.bigcount import CoeffTable, PartitionKind


def brute_force_count(kind: PartitionKind, k: int, n: int) -> int:
    """Recursive enumeration of partitions of n into parts j^k."""
    distinct = kind is PartitionKind.DISTINCT

    @lru_cache(maxsize=None)
    def rec(remaining: int, j: int) -> int:
        if remaining == 0:
            return 1
        if j < 1 or remaining < 0:
            return 0
        p = j**k
        if p > remaining:
            return rec(remaining, j - 1)
        if distinct:
            return rec(remaining, j - 1) + rec(remaining - p, j - 1)
        return rec(remaining, j - 1) + rec(remaining - p, j)

    top = int(round(n ** (1.0 / k))) + 1
    while top**k > n:
        top -= 1
    return rec(n, max(top, 0)) if n > 0 else 1


def table_pmf(table: CoeffTable, s: float) -> np.ndarray:
    """Exact finite-support pmf of the family at t = e^-s from a table."""
    t = math.exp(-s)
    w = np.array([float(c) * t**n for n, c in enumerate(table.coeffs)])
    return w / w.sum()


def char_fn_from_table(table: CoeffTable, s: float, theta: float) -> complex:
    """Normalized characteristic function by direct pmf summation."""
    p = table_pmf(table, s)
    n = np.arange(table.n_max + 1, dtype=float)
    m = float((n * p).sum())
    sigma = math.sqrt(float((n * n * p).sum()) - m * m)
    return complex((p * np.exp(1j * theta * (n - m) / sigma)).sum())


def zeta_bracket(x: float, n_terms: int = 200_000) -> tuple:
    """Lower/upper bracket for zeta(x) from partial sums plus integral tails."""
    s = math.fsum(m ** -x for m in range(1, n_terms + 1))
    tail_hi = n_terms ** (1.0 - x) / (x - 1.0)
    tail_lo = (n_terms + 1) ** (1.0 - x) / (x - 1.0)
    return s + tail_lo, s + tail_hi


def _eulerian(n: int) -> list:
    """Coefficients of the Eulerian polynomial A_n(x), constant term first."""
    return [sum((-1)**l * math.comb(n + 1, l) * (i + 1 - l)**n for l in range(i + 1))
            for i in range(max(n, 1))]


def mp_fulcrum(kind: PartitionKind, k: int, s: float, m_max: int, dps: int = 40) -> list:
    """Fulcrum derivatives of orders 0..m_max at -s as mpmath numbers at
    ``dps`` digits, summed part by part from polylogarithm closed forms:
    d^m/dz^m -Log(1 - e^(az)) = a^m Li_(1-m)(e^(az)) and
    Log(1 + e^(az)) = -Li_1(-e^(az)), with Li_1(x) = -log(1 - x) and
    Li_(1-m)(x) = x A_(m-1)(x) / (1 - x)^m for m >= 1."""
    sign = -1 if kind is PartitionKind.DISTINCT else 1
    polys = [None] + [_eulerian(m - 1)[::-1] for m in range(1, m_max + 1)]
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** -(dps + 5)
        s = mpmath.mpf(s)
        terms = [[] for _ in range(m_max + 1)]
        j = 1
        while True:
            a = mpmath.mpf(j) ** k
            x = sign * mpmath.exp(-a * s)
            u = 1 / (1 - x)
            terms[0].append(sign * mpmath.log(u))
            am, um = sign * x, u
            for m in range(1, m_max + 1):
                am *= a
                terms[m].append(am * mpmath.polyval(polys[m], x) * um)
                um *= u
            # the summands left are of order a^m |x|, which falls faster than geometrically
            if abs(am) < tol * abs(terms[0][0]):
                break
            j += 1
        return [+mpmath.fsum(t) for t in terms]


def mp_rel_err(value: float, ref, dps: int = 40) -> float:
    """|value - ref| / |ref| for a float against an mpmath reference."""
    with mpmath.workdps(dps):
        return float(abs((mpmath.mpf(value) - ref) / ref))
