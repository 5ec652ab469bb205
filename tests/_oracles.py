"""Independent oracles: deliberately naive implementations used only to
check the production code.  Nothing here may import the algorithms it
validates beyond type definitions."""

from __future__ import annotations

import itertools
import math
import sys
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


def knapsack(kind: PartitionKind, k: int, n_max: int) -> list:
    """Textbook scalar knapsack over the parts j^k <= n_max: ascending n for
    unbounded multiplicity, descending n for 0/1 multiplicity."""
    c = [1] + [0] * n_max
    j = 1
    while j**k <= n_max:
        p = j**k
        ns = range(p, n_max + 1)
        for n in ns if kind is PartitionKind.UNRESTRICTED else reversed(ns):
            c[n] += c[n - p]
        j += 1
    return c


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def delta_k(k: int, n: int) -> int:
    """Sum of the perfect k-th powers dividing n."""
    _check_n(n)
    return sum(j**k for j in range(1, n + 1) if j**k <= n and n % j**k == 0)


def epsilon_k(k: int, n: int) -> int:
    """Signed divisor sum -sum_{j^k | n} (-1)^(n/j^k) j^k; for k = 1 the sum
    of the odd divisors of n."""
    _check_n(n)
    return -sum((-1) ** (n // j**k) * j**k
                for j in range(1, n + 1) if j**k <= n and n % j**k == 0)


def divisor_sieve(kind: PartitionKind, k: int, n_max: int) -> np.ndarray:
    """delta_k(n) (unrestricted) or epsilon_k(n) (distinct) for n = 0..n_max
    as int64, index 0 set to 0: each part p = j^k adds +p to the multiples
    q p with q odd and -p (distinct) or +p (unrestricted) to those with q
    even."""
    c = np.zeros(n_max + 1, dtype=np.int64)
    even_sign = -1 if kind is PartitionKind.DISTINCT else 1
    j = 1
    while j**k <= n_max:
        p = j**k
        c[p::2 * p] += p
        c[2 * p::2 * p] += even_sign * p
        j += 1
    return c


_LIMB_BITS = 11
_PRIME = 2**31 - 1


def _limbs(v: np.ndarray) -> list:
    """Three 11-bit limbs of int64 values below 2^33, low limb first."""
    mask = (1 << _LIMB_BITS) - 1
    return [(v >> (_LIMB_BITS * i)) & mask for i in range(3)]


def _convolve_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[n] mod _PRIME for n < len(a), a and b int64 in [0, _PRIME),
    by float64 FFT on 11-bit limbs.

    Every limb is below 2^11, so each limb-pair convolution is an integer
    below 2^22 len(a) and each of the five sums over a limb-degree below
    3 * 2^22 len(a) < 2^42 for len(a) <= 2^18; float64 FFT error at that
    size is far under 1/2 (at most 4e-6 on the 2^17 tables), so rounding
    is exact; a distance of 1/8 or more to the nearest integer raises
    ArithmeticError."""
    n = len(a)
    if len(b) != n or n > 2**18:
        raise ValueError("need equal lengths <= 2^18")
    size = 1 << (2 * n - 1).bit_length()
    fa = [np.fft.rfft(x.astype(float), size) for x in _limbs(a)]
    fb = [np.fft.rfft(x.astype(float), size) for x in _limbs(b)]
    out = np.zeros(n, dtype=np.int64)
    for degree in range(5):
        spec = sum(fa[i] * fb[degree - i] for i in range(3) if 0 <= degree - i < 3)
        conv = np.fft.irfft(spec, size)[:n]
        exact = np.rint(conv)
        if float(np.max(np.abs(conv - exact), initial=0.0)) >= 0.125:
            raise ArithmeticError("FFT convolution not within 1/8 of an integer")
        scale = pow(2, _LIMB_BITS * degree, _PRIME)
        out = (out + (exact.astype(np.int64) % _PRIME) * scale) % _PRIME
    return out


def log_derivative_mismatch(kind: PartitionKind, k: int, coeffs):
    """First n at which n a_n = sum_{m=1}^{n} c(m) a_{n-m} (mod 2^31 - 1) fails
    for the table ``coeffs``, c(m) = delta_k(m) or epsilon_k(m) from
    divisor_sieve; None when it holds for every n (and a_0 = 1).  The
    identity is the logarithmic derivative of the product form, so it
    depends on neither the pentagonal nor the knapsack algorithm."""
    n_max = len(coeffs) - 1
    if coeffs[0] != 1:
        return 0
    a = np.array([v % _PRIME for v in coeffs], dtype=np.int64)
    c = divisor_sieve(kind, k, n_max) % _PRIME
    lhs = np.arange(n_max + 1, dtype=np.int64) * a % _PRIME
    bad = np.flatnonzero(lhs != _convolve_mod(c, a))
    return int(bad[0]) if bad.size else None


def table_pmf(table: CoeffTable, s: float) -> np.ndarray:
    """Exact finite-support pmf of the family at t = e^-s from a table."""
    t = math.exp(-s)
    w = np.array([float(c) * t**n for n, c in enumerate(table.coeffs)])
    return w / w.sum()


def dense_sample(kind: PartitionKind, k: int, s: float, terms: int, count: int,
                 seed: int) -> np.ndarray:
    """count draws of X_t at t = e^-s over its first ``terms`` parts, every
    part drawn for every draw: j^k times a geometric (failures before
    success) of success probability 1 - t^(j^k) for the unrestricted kind,
    j^k times a Bernoulli of success t^(j^k)/(1 + t^(j^k)) for the distinct
    kind.  O(terms * count) variates."""
    rng = np.random.default_rng(seed)
    out = np.zeros(count, dtype=np.int64)
    for j in range(1, terms + 1):
        w = j**k
        x = w * s
        u = math.exp(-x)
        if kind is PartitionKind.UNRESTRICTED:
            out += w * (rng.geometric(-math.expm1(-x), count) - 1)
        else:
            out += w * (rng.random(count) < u / (1.0 + u))
    return out


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


def mp_qp_fulcrum(z: complex, dps: int = 30):
    """The k = 1 unrestricted fulcrum F(z), Re z < 0, as -log (q; q)_inf with
    q = e^z (mpmath's q-Pochhammer symbol).  The principal log of the
    product differs from the sum of the factors' logs by a multiple of
    2 pi i, so compare modulo 2 pi i."""
    with mpmath.workdps(dps):
        q = mpmath.exp(mpmath.mpc(z.real, z.imag))
        return -mpmath.log(mpmath.qp(q, q))


def mp_eta_fulcrum(z: complex, dps: int = 30):
    """The k = 1 unrestricted fulcrum F(z), Re z < 0, from the Dedekind eta
    transformation at tau = -z: F(-tau) = pi^2/(6 tau) + (Log tau -
    log 2pi)/2 - tau/24 + F(-4pi^2/tau), the last term by mp_qp_fulcrum.
    Near z = 0 the q-Pochhammer product at z itself needs about 1/Re(-z)
    factors; at -4pi^2/tau it needs few.  Compare modulo 2 pi i."""
    with mpmath.workdps(dps):
        tau = -mpmath.mpc(z.real, z.imag)
        return (mpmath.pi**2 / (6 * tau) + (mpmath.log(tau) - mpmath.log(2 * mpmath.pi)) / 2
                - tau / 24 + mp_qp_fulcrum(-4 * mpmath.pi**2 / tau, dps))


def mp_err_mod_2pi_i(value: complex, ref, dps: int = 30) -> float:
    """|value - ref| with the difference reduced modulo 2 pi i."""
    with mpmath.workdps(dps):
        d = mpmath.mpc(value.real, value.imag) - ref
        d -= 2j * mpmath.pi * mpmath.nint(d.imag / (2 * mpmath.pi))
        return float(abs(d))


def mp_omega(k: int, m: int, dps: int = 40):
    """omega_{k,m} = zeta(1 + 1/k) Gamma(m + 1/k) / k as an mpmath number at
    ``dps`` digits, with 1/k exact."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(1) / k
        return +(mpmath.zeta(1 + x) * mpmath.gamma(m + x) / k)


def mp_rel_err(value: float, ref, dps: int = 40) -> float:
    """|value - ref| / |ref| for a float against an mpmath reference."""
    with mpmath.workdps(dps):
        return float(abs((mpmath.mpf(value) - ref) / ref))


def composite_simpson(f, edges, intervals: int) -> float:
    """Composite Simpson with ``intervals`` (even) equal intervals on each
    seed panel between consecutive edges; f maps an array of nodes to the
    array of integrand values."""
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return math.fsum(float(np.dot(w, f(np.linspace(a, b, intervals + 1)))) * (b - a) / (3.0 * intervals)
                     for a, b in zip(edges[:-1], edges[1:]))


class QuadratureFailed(RuntimeError):
    """depth_first_simpson left its tolerance unmet."""

    def __init__(self, achieved: float, estimate: float):
        super().__init__(f"error estimate {achieved:g} (integral estimate {estimate:g})")
        self.achieved = achieved
        self.estimate = estimate


def depth_first_simpson(f, edges, tol: float, budget: int = 200_000) -> tuple:
    """Adaptive Simpson with Richardson correction on each seed panel between
    consecutive edges, each to tol, from scalar f(x) calls (memoized) and a
    depth-first panel stack; returns (value, err_est).

    No panel is accepted at depth 0, and the accepted values are summed with
    math.fsum.  A panel stalls when, from depth 1 on, it is unconverged with
    a difference within 64 eps (|left| + |right|); evaluations count 3 per
    seed panel and 2 per refined panel.  A first walk without a depth cap
    gives the result when no panel stalls and the budget holds.  Otherwise
    the walk is repeated with a depth cap of 0, 1, 2, ... until a panel at
    the cap stalls or refining the cap's unconverged panels would pass the
    budget, and QuadratureFailed adds the halves' Simpson values and error
    shares of those panels to the accepted ones.
    """
    fx = lru_cache(maxsize=None)(f)
    seeds = []
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fm, fb = fx(a), fx(0.5 * (a + b)), fx(b)
        seeds.append((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0))
    for cap in itertools.chain([math.inf], itertools.count()):
        values, errs, open_values, open_errs = [], [], [], []
        evals, stalled = 3 * len(seeds), False
        stack = list(seeds)
        while stack:
            a0, b0, fa0, fm0, fb0, whole0, tol0, depth = stack.pop()
            m0 = 0.5 * (a0 + b0)
            flm = fx(0.5 * (a0 + m0))
            frm = fx(0.5 * (m0 + b0))
            evals += 2
            left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
            right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
            delta = left + right - whole0
            if depth > 0 and abs(delta) <= 15.0 * tol0:
                values.append(left + right + delta / 15.0)
                errs.append(abs(delta) / 15.0)
                continue
            rounding = 64.0 * sys.float_info.epsilon * (abs(left) + abs(right))
            stalled = stalled or (depth > 0 and abs(delta) <= rounding)
            # the walk without a cap stops refining at the first sign of failure
            if depth < cap and not (cap == math.inf and (stalled or evals > budget)):
                stack.append((a0, m0, fa0, flm, fm0, left, tol0 / 2.0, depth + 1))
                stack.append((m0, b0, fm0, frm, fb0, right, tol0 / 2.0, depth + 1))
            else:
                open_values += [left, right]
                open_errs += [abs(delta) / 30.0] * 2
        if not open_values and evals <= budget:
            return math.fsum(values), math.fsum(errs)
        if cap < math.inf and (stalled or evals + 2 * len(open_values) > budget):
            raise QuadratureFailed(achieved=math.fsum(errs + open_errs),
                                   estimate=math.fsum(values + open_values))
