"""Khinchin-family evaluation for the power-partition generating functions.

Everything here is driven by the fulcrum F(z) = ln f(e^z) of the product
form: for the unrestricted kind F(z) = sum_j -Log(1 - e^(j^k z)) on
Re z < 0, and the distinct kind is evaluated as F(z) - F(2z).  At
t = e^(-s), ln f(t), the mean and the variance of the family are F(-s) and
the first and second derivatives of the fulcrum at -s: one real-axis pass
sums the three, and a FamilyPoint carries them.

Series are truncated with a certified tail bound (recorded in
SeriesTruncation) and accumulated with math.fsum over numpy-generated
terms, so accumulation error is a single rounding.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .bigcount import CoeffTable, PartitionKind, log_integer

SERIES_CAP = 100_000_000
DERIVATIVE_ORDER_CAP = 8
SAMPLE_TAIL_EPS = 1e-9
_BLOCK = 1 << 15  # elements in one block of the points-by-parts outer product
_FSUM_CHUNK = 4096  # floats converted at a time for math.fsum

_LN2 = math.log(2.0)


class TruncationError(RuntimeError):
    """Requested series tail bound unreachable within the summand cap."""

    def __init__(self, requested: float, achieved: float, terms: int):
        super().__init__(
            f"series tail bound {requested:g} unreachable; best certified "
            f"{achieved:g} at {terms} terms"
        )
        self.requested = requested
        self.achieved = achieved
        self.terms = terms


@dataclass(frozen=True)
class SeriesTruncation:
    """Number of retained product factors plus the certified tail bound."""

    eps: float
    terms: int
    tail_bound: float


@dataclass(frozen=True)
class FamilyPoint:
    """A family parameter s > 0 (t = e^(-s)) with ln f(t) = F(-s), the mean
    and the variance."""

    kind: PartitionKind
    k: int
    s: float
    log_f: float
    mean: float
    variance: float
    tail_eps: float


@lru_cache(maxsize=64)
def _h_deriv_poly(m: int) -> tuple:
    """Coefficients of p_m with h^(m)(x) = (-1)^m p_m(u), u = 1/(e^x - 1).

    h(x) = -ln(1 - e^(-x)); from u' = -u(u+1) follows p_1 = u and
    p_{m+1} = u(u+1) p_m'.  Coefficients are exact integers.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [0, 1]  # p_1(u) = u
    for _ in range(m - 1):
        deriv = [(i + 1) * c for i, c in enumerate(coeffs[1:])]
        nxt = [0] * (len(deriv) + 2)
        for i, d in enumerate(deriv):
            nxt[i + 1] += d
            nxt[i + 2] += d
        coeffs = nxt
    return tuple(coeffs)


def _tail_certificate(k: int, s: float, terms: int, weight: int, poly_at_one: float) -> float:
    """Certified upper bound on sum_{j > terms} j^weight * c * e^(-j^k s).

    Uses u_j <= e^(-x_j)/(1 - e^(-x_{J+1})) with x_j = j^k s, the bound
    p(u) <= p(1) u for 0 <= u <= 1 (nonnegative coefficients), and
    geometric domination of j^w e^(-j^k s) beyond J+1 with ratio
    rho = (1 + 1/(J+1))^w * e^(-k (J+1)^(k-1) s).
    """
    j1 = terms + 1
    x1 = float(j1) ** k * s
    if x1 <= _LN2:
        return math.inf  # u_{J+1} > 1: polynomial bound not yet valid
    rho = (1.0 + 1.0 / j1) ** weight * math.exp(-k * float(j1) ** (k - 1) * s)
    if rho >= 1.0:
        return math.inf
    log_head = weight * math.log(j1) - x1
    if log_head > 700.0:
        return math.inf
    scale = poly_at_one / (-math.expm1(-x1))
    return scale * math.exp(log_head) / (1.0 - rho)


@lru_cache(maxsize=4096)
def _series_terms(k: int, s: float, eps: float, m: int = 0) -> SeriesTruncation:
    """Smallest certified factor count J with tail <= eps for the series of
    the m-th derivative (m = 0: the value, whose summands h satisfy h <= u),
    starting from the closed-form seed e^(-J^k s) <= eps (1 - e^(-s))."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s!r}")
    if not eps > 0.0:
        raise ValueError(f"requires eps > 0, got {eps!r}")
    target = eps * (-math.expm1(-s))
    seed = (max(math.log(1.0 / target), 1.0) / s) ** (1.0 / k)
    j = max(8, math.ceil(seed))
    poly_at_one = float(sum(_h_deriv_poly(m))) if m else 1.0
    while True:
        bound = _tail_certificate(k, s, j, m * k, poly_at_one)
        if bound <= eps:
            return SeriesTruncation(eps=eps, terms=j, tail_bound=bound)
        if j >= SERIES_CAP:
            raise TruncationError(requested=eps, achieved=bound, terms=j)
        j = min(SERIES_CAP, max(j + 8, int(j * 1.3)))


def _part_powers(k: int, terms: int) -> np.ndarray:
    j = np.arange(1, terms + 1, dtype=np.float64)
    return j**k if k > 1 else j


def _terms(m: int, u: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """j^(mk) p_m(u): the per-part terms of the m-th derivative, m >= 1,
    at u = 1/(e^(-zp) - 1)."""
    val = np.zeros_like(u)
    for c in reversed(_h_deriv_poly(m)):
        val = val * u + c
    return val * powers**m


def _fsum(vals: np.ndarray) -> float:
    """Correctly rounded sum of a 1-d float array, handed to math.fsum as
    Python floats at most _FSUM_CHUNK at a time."""
    if vals.size <= _FSUM_CHUNK:
        return math.fsum(vals.tolist())
    return math.fsum(itertools.chain.from_iterable(
        vals[i:i + _FSUM_CHUNK].tolist() for i in range(0, vals.size, _FSUM_CHUNK)))


def _axis(k: int, s: float, orders: list) -> list:
    """F^(m)(-s) (m = 0: the value F(-s)) of the unrestricted fulcrum for
    each (m, eps) of orders, in real arithmetic from one pass.  The parts'
    powers, expm1(-j^k s) and exp(-j^k s) are built once, at the largest
    truncation among the orders, and order m sums the first J_m terms, those
    of its own truncation: each value is that of a pass for it alone."""
    terms = [_series_terms(k, s, eps, m).terms for m, eps in orders]
    powers = _part_powers(k, max(terms))
    zp = powers * -s
    em1 = np.expm1(zp)
    u = np.exp(zp) / -em1
    # the value's summands are Log(1 - e^zp): negating their correctly rounded sum is exact
    return [_fsum(_terms(m, u[:j], powers[:j])) if m else -_fsum(np.log(-em1[:j]))
            for (m, _), j in zip(orders, terms)]


def _summands(m: int, zp: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-part terms at the complex exponents zp = j^k z: their sum is the
    m-th derivative for m >= 1 and minus the value, Log(1 - e^zp), for m = 0.
    u = 1/(e^(-zp) - 1) is computed as e^zp / (1 - e^zp), which never
    overflows on Re zp < 0."""
    if m == 0:
        return np.log1p(-np.exp(zp))
    return _terms(m, np.exp(zp) / -np.expm1(zp), powers)


def _series(k: int, orders: list, z: list) -> list:
    """For each (m, eps) of orders, the m-th derivative (m = 0: the value)
    of the unrestricted fulcrum at each point of z, a list of complex points
    that share one real part -s < 0 and so one truncation per order.  The
    points on the real axis are all -s and share one real-axis pass for all
    the orders; the others are summed, order by order, in blocks of the
    points-by-parts outer product."""
    s = -z[0].real
    off = [i for i, p in enumerate(z) if p.imag != 0.0]
    on_axis = _axis(k, s, orders) if len(off) < len(z) else [0.0] * len(orders)
    out = []
    for (m, eps), value in zip(orders, on_axis):
        vals = [complex(value)] * len(z)
        if off:
            powers = _part_powers(k, _series_terms(k, s, eps, m).terms)
            sign = -1.0 if m == 0 else 1.0
            rows = max(1, _BLOCK // powers.size)
            for lo in range(0, len(off), rows):
                idx = off[lo:lo + rows]
                block = _summands(m, np.array([powers * z[i] for i in idx]), powers)
                for i, re, im in zip(idx, block.real, block.imag):
                    vals[i] = complex(sign * _fsum(re), sign * _fsum(im))
        out.append(vals)
    return out


def _fulcrum_at(kind: PartitionKind, k: int, ms: Sequence[int], z: list, eps: float) -> list:
    """For each order m of ms, the m-th derivative of the fulcrum of either
    kind at each point of z (as in _series).  The one place the distinct
    kind is formed: G^(m)(z) = F^(m)(z) - 2^m F^(m)(2z), with tail bounds
    eps/2 for F and eps/2^(m+1) for F(2z)."""
    if kind is PartitionKind.DISTINCT:
        a = _series(k, [(m, eps / 2) for m in ms], z)
        b = _series(k, [(m, eps / 2**(m + 1)) for m in ms], [2 * p for p in z])
        return [[x - 2**m * y for x, y in zip(xs, ys)] for m, xs, ys in zip(ms, a, b)]
    return _series(k, [(m, eps) for m in ms], z)


def fulcrum(kind: PartitionKind, k: int, z: Union[complex, float],
            eps: float = 1e-12, m: int = 0) -> complex:
    """m-th derivative (m = 0: the value) of the log of the generating
    function at e^z, analytic on Re z < 0 and real on the negative real
    axis.  Distinct kind: F(z) - F(2z)."""
    _validate(k, (m,))
    z = complex(z)
    if not z.real < 0.0:
        raise ValueError(f"fulcrum requires Re(z) < 0, got {z!r}")
    return _fulcrum_at(kind, k, (m,), [z], eps)[0][0]


def _derivatives(kind: PartitionKind, k: int, s: float, ms: Sequence[int], eps: float) -> list:
    """The m-th derivative of the fulcrum at -s, s > 0, for each order m of
    ms, from one real-axis pass (one per term of the distinct kind).  Order
    2 is the variance and must be positive."""
    _validate(k, ms)
    vals = [v[0].real for v in _fulcrum_at(kind, k, ms, [complex(-s)], eps)]
    if 2 in ms and not vals[ms.index(2)] > 0.0:
        raise ArithmeticError(f"variance must be positive, got {vals[ms.index(2)]!r} at s={s}")
    return vals


def mean(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> float:
    return _derivatives(kind, k, s, (1,), eps)[0]


def variance(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> float:
    return _derivatives(kind, k, s, (2,), eps)[0]


def family_point(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> FamilyPoint:
    log_f, m, v = _derivatives(kind, k, s, (0, 1, 2), eps)
    return FamilyPoint(kind=kind, k=k, s=s, log_f=log_f, mean=m, variance=v, tail_eps=eps)


def _line(point: FamilyPoint, t: np.ndarray) -> list:
    """The fulcrum at -s + i*t for each t of the array t: the point's F(-s)
    where t = 0, one kernel call at the others."""
    ys = t.tolist()
    off = [complex(-point.s, y) for y in ys if y != 0.0]
    vals = iter(_fulcrum_at(point.kind, point.k, (0,), off, point.tail_eps)[0] if off else ())
    return [next(vals) if y != 0.0 else complex(point.log_f) for y in ys]


def char_fn_normalized(point: FamilyPoint, theta: Union[float, Sequence[float]]):
    """Characteristic function of the normalized variable at theta:
    exp(F(-s + i*theta/sigma) - F(-s) - i*theta*mean/sigma), with F(-s), the
    mean and sigma of the point.

    theta is a float (a complex is returned) or a 1-d sequence or array (a
    complex array is returned)."""
    sigma = math.sqrt(point.variance)
    thetas = np.array(theta, dtype=float, ndmin=1)
    vals = _line(point, thetas / sigma)
    out = np.array([cmath.exp(val - point.log_f - 1j * t * point.mean / sigma)
                    for val, t in zip(vals, thetas.tolist())])
    return out if np.ndim(theta) else complex(out[0])


def pgf_modulus_ratio(point: FamilyPoint, phi: Union[float, Sequence[float]]):
    """|f(e^(-s+i*phi))| / f(e^(-s)), always in (0, 1] away from phi = 0 mod 2pi.

    phi is a float (a float is returned) or a 1-d sequence or array (an
    array is returned)."""
    vals = _line(point, np.array(phi, dtype=float, ndmin=1))
    out = np.array([math.exp(val.real - point.log_f) for val in vals])
    return out if np.ndim(phi) else float(out[0])


def pmf(point: FamilyPoint, n: int, table: CoeffTable) -> float:
    """P(X_t = n) = a_n t^n / f(t), computed in log space."""
    if table.kind is not point.kind or table.k != point.k:
        raise ValueError("table kind/k does not match the family point")
    if not 0 <= n <= table.n_max:
        raise ValueError(f"n={n} outside table range 0..{table.n_max}")
    a = table.coeffs[n]
    if a == 0:
        return 0.0
    return math.exp(log_integer(a) - n * point.s - point.log_f)


def sample(point: FamilyPoint, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws of X_t by the independent-components decomposition.

    Unrestricted: X = sum_j j^k G_j with G_j geometric (failures before
    success) of success probability 1 - t^(j^k).  Distinct: independent
    Bernoulli with success t^(j^k)/(1 + t^(j^k)).  Parts beyond J are
    dropped; J is certified so the probability any dropped part is nonzero
    is at most SAMPLE_TAIL_EPS.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    k, s = point.k, point.s
    tr = _series_terms(k, s, SAMPLE_TAIL_EPS)
    rng = np.random.default_rng(seed)
    out = np.zeros(count, dtype=np.int64)
    for j in range(1, tr.terms + 1):
        w = j**k
        x = w * s
        u = math.exp(-x)  # t^(j^k)
        if u == 0.0:
            break
        if point.kind is PartitionKind.UNRESTRICTED:
            p_success = -math.expm1(-x)
            out += w * (rng.geometric(p_success, count) - 1)
        else:
            p_take = u / (1.0 + u)
            out += w * (rng.random(count) < p_take)
    return out


def _validate(k: int, ms: Sequence[int]) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    for m in ms:
        if not 0 <= m <= DERIVATIVE_ORDER_CAP:
            raise ValueError(f"derivative order m={m} outside 0..{DERIVATIVE_ORDER_CAP}")


__all__ = [
    "FamilyPoint",
    "SeriesTruncation",
    "TruncationError",
    "fulcrum",
    "mean",
    "variance",
    "family_point",
    "char_fn_normalized",
    "pgf_modulus_ratio",
    "pmf",
    "sample",
    "SAMPLE_TAIL_EPS",
]
