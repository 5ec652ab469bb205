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

At k = 1 the eta transformation F(-tau) = pi^2/(6 tau) + (Log tau -
log 2pi)/2 - tau/24 + F(w), w = -4pi^2/tau, Re tau > 0, gives the two rows
of one regime table (_ETA_ROWS).  Each row maps a point and an order to a
closed part and the point w where the rest is summed; a point no row takes
keeps the direct series, bit for bit.

- The real axis, tau = s: each derivative order in O(1), dropping F(w)
  when a Cauchy bound on its derivative is at most the order's eps.  At
  eps = 1e-12 that holds for orders 0..2 up to s ~ 0.88 and for every order
  up to s ~ 0.54, and past its edge an order's series needs at most about
  150 terms (30 for the value).  So SERIES_CAP no longer limits the k = 1
  real axis; a closed-form value past float64 raises OverflowError.
- Off the axis, tau = s - i phi with phi first reduced into [-pi, pi]: the
  value (m = 0) is the closed part plus F(w) summed at Re w = -4pi^2 s/|tau|^2,
  when (a) that series is shorter than the direct one and (b) the rounding
  of w, amplified by |F'(w)| <= F'(Re w), costs at most eps/2.  Near the
  cusps phi = 2pi/n, w lies near a multiple of 2pi i and (b) fails at small
  s.  At eps = 1e-12 the row takes every phi for 0.02 <= s <= 3.3, and
  |phi| up to 0.43 at s = 1e-3 (0.1 at s = 1e-4).

Derivative orders m >= 1 off the axis, k >= 2 and sample keep the series.
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
_LOG_2PI = math.log(2.0 * math.pi)
_PI2_6 = math.pi**2 / 6.0
_2PI = 2.0 * math.pi
_2PI_LO = 2.4492935982947064e-16  # 2 pi - _2PI, so that _2PI + _2PI_LO is 2 pi to 106 bits


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
    j = max(8, math.ceil(min(seed, SERIES_CAP)))  # seed is inf when 1/target overflows
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


def _eta_log_bound(s: float, m: int) -> float:
    """log of a certified bound on |R^(m)(s)|, where R(s) = F(-4 pi^2/s) is
    the term the k = 1 closed form drops.  R is analytic on Re s > 0 and
    Re(1/w) >= 2/(3s) on the disk |w - s| <= s/2, so there
    |R(w)| <= sum_j x^j/(1 - x^j) <= x/(1 - x)^2 with x = e^(-8 pi^2/(3s)),
    and Cauchy's estimate on that circle gives
    |R^(m)(s)| <= m! (2/s)^m x/(1 - x)^2."""
    a = 8.0 * math.pi**2 / (3.0 * s)
    return (math.lgamma(m + 1) + m * (_LN2 - math.log(s)) - a
            - 2.0 * math.log(-math.expm1(-a)))


def _eta_axis(s: float, m: int) -> float:
    """F^(m)(-s) of the k = 1 unrestricted fulcrum from the eta transformation
    F(-s) = pi^2/(6s) + (log s - log 2pi)/2 - s/24 + F(-4pi^2/s), without its
    last term: order m >= 1 is (-1)^m times the m-th s-derivative,
    (pi^2/6) m! s^(-m-1) - (m-1)!/2 s^(-m) (+ 1/24 at m = 1).  Raises
    OverflowError when the value is not finite in float64."""
    try:
        if m == 0:
            value = _PI2_6 / s + 0.5 * (math.log(s) - _LOG_2PI) - s / 24.0
        else:
            value = (s ** -m * (_PI2_6 * math.factorial(m) / s - 0.5 * math.factorial(m - 1))
                     + (1.0 / 24.0 if m == 1 else 0.0))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"F^({m})(-s) at s={s!r} is beyond float64 range")
    return value


def _axis(k: int, s: float, orders: list) -> list:
    """F^(m)(-s) (m = 0: the value F(-s)) of the unrestricted fulcrum for
    each (m, eps) of orders, from one pass.  An order the regime table takes
    at -s comes from its closed form; the other orders come from one
    _axis_series pass."""
    closed = [_regime(k, m, eps, complex(-s), 0)[0] for m, eps in orders]
    summed = iter(_axis_series(k, s, [o for o, c in zip(orders, closed) if c is None]))
    return [next(summed) if c is None else c for c in closed]


def _axis_series(k: int, s: float, orders: list) -> list:
    """The direct series of _axis for each (m, eps) of orders, in real
    arithmetic.  The parts' powers, expm1(-j^k s) and exp(-j^k s) are built
    once, at the largest truncation among the orders, and order m sums the
    first J_m terms, those of its own truncation: each value is that of a
    pass for it alone."""
    terms = [_series_terms(k, s, eps, m).terms for m, eps in orders]
    powers = _part_powers(k, max(terms, default=0))
    zp = powers * -s
    em1 = np.expm1(zp)
    u = np.exp(zp) / -em1
    # the value's summands are Log(1 - e^zp): negating their correctly rounded sum is exact
    return [_fsum(_terms(m, u[:j], powers[:j])) if m else -_fsum(np.log(-em1[:j]))
            for (m, _), j in zip(orders, terms)]


def _eta_axis_row(m: int, eps: float, p: complex, terms: int):
    """The real-axis row of the regime table, p = -s: F^(m)(-s) is
    _eta_axis(s, m), with nothing summed, when the dropped F(-4pi^2/s) is
    certified at most eps."""
    s = -p.real
    if _eta_log_bound(s, m) <= math.log(eps):
        return _eta_axis(s, m), p, 0
    return None


def _mean_bound(x: float) -> float:
    """An upper bound on F'(-x), x > 0, the k = 1 mean, which bounds |F'(w)|
    on the line Re w = -x: the smaller of the eta form of order 1 plus its
    dropped term's bound and q/(1 - q)^3 = sum_j j q^j/(1 - q), q = e^(-x)."""
    eta = _eta_axis(x, 1) + math.exp(_eta_log_bound(x, 1))
    return min(eta, math.exp(-x) / (-math.expm1(-x)) ** 3)


def _eta_line_row(m: int, eps: float, p: complex, terms: int):
    """The off-axis row of the regime table: the value (m = 0) at p = -tau,
    Im tau reduced into [-pi, pi], as the eta closed part plus F(w),
    w = -4pi^2/tau, summed over its own J at Re w = -x, when (a) J is below
    terms, the direct series' J, and (b) ulp(|w|) F'(-x) <= eps/2, F'(-x)
    bounding |F'(w)|, which amplifies the rounding of w."""
    if m:
        return None
    r = math.remainder(p.imag, _2PI)  # exactly Im p - n _2PI
    tau = complex(-p.real, round((p.imag - r) / _2PI) * _2PI_LO - r)  # Im p - 2 pi n, negated
    w = -4.0 * math.pi**2 / tau
    x = -w.real
    if not x > -p.real:  # J at x is not below J at s (J does not increase with s)
        return None
    j = _series_terms(1, x, eps).terms
    if j >= terms or math.ulp(abs(w)) * _mean_bound(x) > 0.5 * eps:
        return None
    return _PI2_6 / tau + 0.5 * (cmath.log(tau) - _LOG_2PI) - tau / 24.0, w, j


# The regime table at k = 1, keyed by whether a point lies on the real axis.
_ETA_ROWS = {True: _eta_axis_row, False: _eta_line_row}


def _regime(k: int, m: int, eps: float, p: complex, terms: int) -> tuple:
    """(c, w, J) for the point p and the order (m, eps): F^(m)(p) is the
    closed part c plus the first J summands of the series at w.  The eta
    row's when k = 1 and it takes p; else the direct series, (None, p,
    terms), terms being its J at Re p."""
    row = _ETA_ROWS[p.imag == 0.0](m, eps, p, terms) if k == 1 else None
    return row or (None, p, terms)


def _summands(m: int, zp: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-part terms at the complex exponents zp = j^k z: their sum is the
    m-th derivative for m >= 1 and minus the value, Log(1 - e^zp), for m = 0.
    u = 1/(e^(-zp) - 1) is computed as e^zp / (1 - e^zp), which never
    overflows on Re zp < 0."""
    if m == 0:
        return np.log1p(-np.exp(zp))
    return _terms(m, np.exp(zp) / -np.expm1(zp), powers)


def _row_sums(k: int, m: int, points: list, terms: list) -> list:
    """For each point w of points and J of terms, the m-th derivative's
    series at w summed over its first J parts.  Rows are taken largest J
    first in blocks of the points-by-parts outer product, each as wide as
    its first row's J and at most _BLOCK elements, and each row is summed
    over its own J: a value depends on its point and J alone."""
    order = sorted(range(len(points)), key=lambda i: -terms[i])
    powers = _part_powers(k, terms[order[0]])
    sign = -1.0 if m == 0 else 1.0
    out = [0j] * len(points)
    lo = 0
    while lo < len(order):
        width = terms[order[lo]]
        rows = order[lo:lo + max(1, _BLOCK // max(width, 1))]
        block = _summands(m, np.array([powers[:width] * points[i] for i in rows]),
                          powers[:width])
        for i, re, im in zip(rows, block.real, block.imag):
            out[i] = complex(sign * _fsum(re[:terms[i]]), sign * _fsum(im[:terms[i]]))
        lo += len(rows)
    return out


def _series(k: int, orders: list, z: list) -> list:
    """For each (m, eps) of orders, the m-th derivative (m = 0: the value)
    of the unrestricted fulcrum at each point of z, a list of complex points
    that share one real part -s < 0 and so one direct truncation per order.
    Points all on the real axis are all -s and share one real-axis pass for
    all the orders; otherwise each point takes its row of the regime table,
    and one _row_sums run, order by order, sums the series of every point.
    A direct J past SERIES_CAP counts as longer than any row's; it raises
    only when a point that no row takes needs the direct series."""
    s = -z[0].real
    if all(p.imag == 0.0 for p in z):
        return [[complex(value)] * len(z) for value in _axis(k, s, orders)]
    out = []
    for m, eps in orders:
        try:
            terms = _series_terms(k, s, eps, m).terms
        except TruncationError as err:
            terms, uncertified = math.inf, err
        plans = [_regime(k, m, eps, p, terms) for p in z]
        if any(j == math.inf for _, _, j in plans):
            raise uncertified
        sums = _row_sums(k, m, [w for _, w, _ in plans], [j for _, _, j in plans])
        out.append([v if c is None else c + v for (c, _, _), v in zip(plans, sums)])
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
    """i.i.d. draws of X_t by the independent-components decomposition, in
    O(J + nonzero parts): only the nonzero parts are drawn.

    Unrestricted: X = sum_j j^k G_j with G_j geometric (failures before
    success) of success probability 1 - u, u = t^(j^k), nonzero with chance
    p = u.  Distinct: Bernoulli of success p = u/(1 + u).  Part j is nonzero
    in Binomial(count, p) draws at distinct uniform positions; there a
    geometric G_j is 1 plus a fresh copy (the law is memoryless), which is
    numpy's geometric (trials to the first success).  Parts beyond J are
    dropped; J is certified so the probability any dropped part is nonzero
    is at most SAMPLE_TAIL_EPS.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    k, s = point.k, point.s
    x = _part_powers(k, _series_terms(k, s, SAMPLE_TAIL_EPS).terms) * s  # j^k s
    u = np.exp(-x)  # t^(j^k)
    distinct = point.kind is PartitionKind.DISTINCT
    rng = np.random.default_rng(seed)
    nonzero = rng.binomial(count, u / (1.0 + u) if distinct else u)
    out = np.zeros(count, dtype=np.int64)
    for i in np.flatnonzero(nonzero).tolist():
        w = (i + 1) ** k  # a Python int: one past int64 raises, never wraps
        at = rng.choice(count, nonzero[i], replace=False, shuffle=False)
        out[at] += w if distinct else w * rng.geometric(-math.expm1(-x[i]), at.size)
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
    "family_point",
    "char_fn_normalized",
    "pgf_modulus_ratio",
    "pmf",
    "sample",
    "SAMPLE_TAIL_EPS",
]
