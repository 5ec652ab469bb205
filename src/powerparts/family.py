"""Khinchin-family evaluation for the power-partition generating functions.

Everything here is driven by the fulcrum F(z) = ln f(e^z) of the product
form: for the unrestricted kind F(z) = sum_j -Log(1 - e^(j^k z)) on
Re z < 0, and the distinct kind is evaluated as F(z) - F(2z).  Mean and
variance of the family at t = e^(-s) are the first and second derivatives
of the fulcrum at -s.

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
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .bigcount import CoeffTable, PartitionKind, log_integer

SERIES_CAP = 100_000_000
DERIVATIVE_ORDER_CAP = 8
SAMPLE_TAIL_EPS = 1e-9
_BLOCK = 1 << 15  # elements in one block of the points-by-parts outer product
_FSUM_CHUNK = 4096  # floats converted at a time for math.fsum
_CACHED_TERMS = 4096  # longer power arrays are rebuilt, not kept: cheap next to their sum

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
    """A family parameter s > 0 (t = e^(-s)) with cached mean and variance."""

    kind: PartitionKind
    k: int
    s: float
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
def _series_terms(k: int, s: float, eps: float, weight: int = 0,
                  poly_at_one: float = 1.0) -> SeriesTruncation:
    """Smallest certified factor count J with tail <= eps, starting from the
    closed-form seed e^(-J^k s) <= eps (1 - e^(-s))."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s!r}")
    if not eps > 0.0:
        raise ValueError(f"requires eps > 0, got {eps!r}")
    target = eps * (-math.expm1(-s))
    seed = (max(math.log(1.0 / target), 1.0) / s) ** (1.0 / k)
    j = max(8, math.ceil(seed))
    while True:
        bound = _tail_certificate(k, s, j, weight, poly_at_one)
        if bound <= eps:
            return SeriesTruncation(eps=eps, terms=j, tail_bound=bound)
        if j >= SERIES_CAP:
            raise TruncationError(requested=eps, achieved=bound, terms=j)
        j = min(SERIES_CAP, max(j + 8, int(j * 1.3)))


@lru_cache(maxsize=2)  # a quadrature at one s (two for the distinct kind) reuses it
def _part_powers(k: int, terms: int) -> np.ndarray:
    j = np.arange(1, terms + 1, dtype=np.float64)
    powers = j**k if k > 1 else j
    powers.flags.writeable = False
    return powers


def _poly_eval(coeffs: tuple, u: np.ndarray) -> np.ndarray:
    val = np.zeros_like(u)
    for c in reversed(coeffs):
        val = val * u + c
    return val


def _fsum(vals: np.ndarray) -> float:
    """Correctly rounded sum of a 1-d float array, handed to math.fsum as
    Python floats at most _FSUM_CHUNK at a time."""
    if vals.size <= _FSUM_CHUNK:
        return math.fsum(vals.tolist())
    return math.fsum(itertools.chain.from_iterable(
        vals[i:i + _FSUM_CHUNK].tolist() for i in range(0, vals.size, _FSUM_CHUNK)))


def _summands(m: int, zp: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-part terms at the exponents zp = j^k z: their sum is the m-th
    derivative for m >= 1 and minus the value for m = 0.

    m = 0: Log(1 - e^zp), in real arithmetic on the real axis.  m >= 1:
    j^(mk) p_m(u) with u = 1/(e^(-zp) - 1), computed as e^zp / (1 - e^zp),
    which never overflows on Re zp < 0."""
    if m == 0:
        if zp.dtype.kind == "f":
            return np.log(-np.expm1(zp))
        return np.log1p(-np.exp(zp))
    u = np.exp(zp) / -np.expm1(zp)
    return _poly_eval(_h_deriv_poly(m), u) * powers**m


def _series(k: int, m: int, z: list, eps: float) -> list:
    """m-th derivative (m = 0: the value) of the unrestricted fulcrum at each
    point of z, a list of complex points that share one real part -s < 0
    and so one truncation.  The points on the real axis are all -s and share
    one sum in real arithmetic; the others are summed in blocks of the
    points-by-parts outer product."""
    s = -z[0].real
    poly_at_one = float(sum(_h_deriv_poly(m))) if m else 1.0  # the value: h <= u
    tr = _series_terms(k, s, eps, m * k, poly_at_one)
    powers = (_part_powers if tr.terms <= _CACHED_TERMS else _part_powers.__wrapped__)(k, tr.terms)
    sign = -1.0 if m == 0 else 1.0  # negating a correctly rounded sum is exact
    off = [i for i, p in enumerate(z) if p.imag != 0.0]
    on_axis = 0j
    if len(off) < len(z):
        on_axis = complex(sign * _fsum(_summands(m, powers * -s, powers)), 0.0)
    out = [on_axis] * len(z)
    rows = max(1, _BLOCK // powers.size)
    for lo in range(0, len(off), rows):
        idx = off[lo:lo + rows]
        vals = _summands(m, np.array([powers * z[i] for i in idx]), powers)
        for i, re, im in zip(idx, vals.real, vals.imag):
            out[i] = complex(sign * _fsum(re), sign * _fsum(im))
    return out


def _fulcrum_at(kind: PartitionKind, k: int, m: int, z: list, eps: float) -> list:
    """m-th derivative of the fulcrum of either kind at each point of z (as
    in _series).  Distinct kind: G^(m)(z) = F^(m)(z) - 2^m F^(m)(2z)."""
    if kind is PartitionKind.DISTINCT:
        a = _series(k, m, z, eps / 2)
        b = _series(k, m, [2 * p for p in z], eps / 2**(m + 1))
        return [x - 2**m * y for x, y in zip(a, b)]
    return _series(k, m, z, eps)


def fulcrum(kind: PartitionKind, k: int, z: Union[complex, float],
            eps: float = 1e-12, m: int = 0) -> complex:
    """m-th derivative (m = 0: the value) of the log of the generating
    function at e^z, analytic on Re z < 0 and real on the negative real
    axis.  Distinct kind: F(z) - F(2z)."""
    _validate_k(k)
    z = complex(z)
    if not z.real < 0.0:
        raise ValueError(f"fulcrum requires Re(z) < 0, got {z!r}")
    if not 0 <= m <= DERIVATIVE_ORDER_CAP:
        raise ValueError(f"derivative order m={m} outside 0..{DERIVATIVE_ORDER_CAP}")
    return _fulcrum_at(kind, k, m, [z], eps)[0]


def fulcrum_derivative(kind: PartitionKind, k: int, m: int, s: float,
                       eps: float = 1e-12) -> float:
    """m-th derivative of the fulcrum at -s, s > 0 (a positive real number)."""
    _validate_k(k)
    if not 1 <= m <= DERIVATIVE_ORDER_CAP:
        raise ValueError(f"derivative order m={m} outside 1..{DERIVATIVE_ORDER_CAP}")
    return _fulcrum_at(kind, k, m, [complex(-s)], eps)[0].real


def mean(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> float:
    return fulcrum_derivative(kind, k, 1, s, eps)


def variance(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> float:
    v = fulcrum_derivative(kind, k, 2, s, eps)
    if not v > 0.0:
        raise ArithmeticError(f"variance must be positive, got {v!r} at s={s}")
    return v


def family_point(kind: PartitionKind, k: int, s: float, eps: float = 1e-12) -> FamilyPoint:
    return FamilyPoint(kind=kind, k=k, s=s,
                       mean=mean(kind, k, s, eps),
                       variance=variance(kind, k, s, eps),
                       tail_eps=eps)


def _vertical_line(kind: PartitionKind, k: int, s: float, t: np.ndarray,
                   eps: float) -> list:
    """The fulcrum at -s followed by its values at -s + i*t for each t, from
    one kernel call."""
    _validate_k(k)
    return _fulcrum_at(kind, k, 0, [complex(-s)] + [complex(-s, y) for y in t.tolist()], eps)


def char_fn_normalized(kind: PartitionKind, k: int, s: float,
                       theta: Union[float, Sequence[float]], eps: float = 1e-12,
                       moments: Optional[Tuple[float, float]] = None):
    """Characteristic function of the normalized variable at theta:
    exp(F(-s + i*theta/sigma) - F(-s) - i*theta*mean/sigma).

    theta is a float (a complex is returned) or a 1-d sequence or array (a
    complex array is returned); the mean, the variance and F(-s) are
    computed once.  A caller that already has mean(kind, k, s, eps) and
    variance(kind, k, s, eps) passes them as moments to skip that work.
    """
    m, v = moments if moments is not None else (mean(kind, k, s, eps),
                                                 variance(kind, k, s, eps))
    sigma = math.sqrt(v)
    thetas = np.array(theta, dtype=float, ndmin=1)
    vals = _vertical_line(kind, k, s, thetas / sigma, eps)
    base = vals[0].real
    out = np.array([cmath.exp(val - base - 1j * t * m / sigma)
                    for val, t in zip(vals[1:], thetas.tolist())])
    return out if np.ndim(theta) else complex(out[0])


def pgf_modulus_ratio(kind: PartitionKind, k: int, s: float,
                      phi: Union[float, Sequence[float]], eps: float = 1e-12):
    """|f(e^(-s+i*phi))| / f(e^(-s)), always in (0, 1] away from phi = 0 mod 2pi.

    phi is a float (a float is returned) or a 1-d sequence or array (an
    array is returned); F(-s) is computed once."""
    vals = _vertical_line(kind, k, s, np.array(phi, dtype=float, ndmin=1), eps)
    base = vals[0].real
    out = np.array([math.exp(val.real - base) for val in vals[1:]])
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
    base = fulcrum(point.kind, point.k, complex(-point.s), point.tail_eps).real
    return math.exp(log_integer(a) - n * point.s - base)


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


def _validate_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


__all__ = [
    "FamilyPoint",
    "SeriesTruncation",
    "TruncationError",
    "fulcrum",
    "fulcrum_derivative",
    "mean",
    "variance",
    "family_point",
    "char_fn_normalized",
    "pgf_modulus_ratio",
    "pmf",
    "sample",
    "SAMPLE_TAIL_EPS",
]
