"""Computations written apart from powerparts, used to check its outputs.

Nothing here imports powerparts.  Exact tables come from a knapsack over
residue classes (modulo a prime, or in float64 for logarithms and
probability mass functions); series come from direct numpy sums of
polylogarithms of negative order written with Eulerian numbers; the
asymptotic constants come from mpmath.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

PRIME = 2_147_483_647           # 2^31 - 1: table entries are compared modulo it
IDENTITY_PRIME = 1_000_003      # small enough that int64 convolutions cannot overflow
SERIES_CUT = 80.0               # terms with j^k s > 80 are below 1e-23 of any sum used here
CHUNK = 1 << 21                 # elements per (points x parts) block of a series sum
TABLE_SIGMAS = 12.0             # a pmf table reaches mean + 12 sigma, and at least
TABLE_TAIL = 64.0               # 64/s past the mean: the mass beyond is below e^-60


def parts(k: int, n_max: int) -> list:
    out, j = [], 1
    while j**k <= n_max:
        out.append(j**k)
        j += 1
    return out


def _unrestricted_part(c: np.ndarray, p: int) -> np.ndarray:
    """Multiply the series c by 1/(1 - x^p): prefix sums along each residue
    class modulo p, as one 2-d cumsum while the classes are long and row by
    row once they are short."""
    rows = -(-c.size // p)
    if rows * rows > c.size:
        buf = np.zeros(rows * p, dtype=c.dtype)
        buf[:c.size] = c
        return np.cumsum(buf.reshape(rows, p), axis=0).reshape(-1)[:c.size]
    for start in range(p, c.size, p):
        c[start:start + p] += c[start - p:min(start, c.size - p)]
    return c


def _table(kind: str, k: int, n_max: int, prime) -> np.ndarray:
    dtype = np.float64 if prime is None else np.int64
    c = np.zeros(n_max + 1, dtype=dtype)
    c[0] = 1
    for p in parts(k, n_max):
        if kind == "distinct":
            c[p:] = c[p:] + c[:-p]
        else:
            c = _unrestricted_part(c, p)
        if prime is not None:
            c %= prime
    return c


_TABLES = {}


def _prefix(kind: str, k: int, n_max: int, prime) -> np.ndarray:
    """Tables are prefix-closed: one table per (kind, k, prime), grown on demand."""
    key = (kind, k, prime)
    c = _TABLES.get(key)
    if c is None or c.size <= n_max:
        size = n_max if c is None else max(n_max, 2 * c.size)
        c = _TABLES[key] = _table(kind, k, size, prime)
    return c[:n_max + 1]


def table_mod(kind: str, k: int, n_max: int) -> np.ndarray:
    """Coefficients 0..n_max of the product generating function, modulo PRIME."""
    return _prefix(kind, k, n_max, PRIME)


def table_float(kind: str, k: int, n_max: int) -> np.ndarray:
    """The same coefficients in float64 (relative error about n_max * 1e-16)."""
    c = _prefix(kind, k, n_max, None)
    if not np.all(np.isfinite(c)):
        raise OverflowError(f"float table overflows below n={n_max}")
    return c


def product_identity_holds(p: np.ndarray, q: np.ndarray) -> bool:
    """q(x) * p(x^2) == p(x) coefficient-wise, for tables reduced modulo IDENTITY_PRIME."""
    p_sq = np.zeros_like(p)
    p_sq[::2] = p[:(p.size + 1) // 2]
    return bool(np.array_equal(np.convolve(q, p_sq)[:p.size] % IDENTITY_PRIME, p))


@lru_cache(maxsize=None)
def log_partition_number(n: int) -> float:
    """ln p(n) from sympy's Rademacher-series partition function."""
    from sympy import partition
    return log_int(int(partition(n)))


def log_int(v: int) -> float:
    shift = max(0, v.bit_length() - 64)
    return math.log(v >> shift) + shift * math.log(2.0)


# ---------------------------------------------------------------- series

@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple:
    """A(n, i), i = 0..n-1: Li_{-n}(w) = sum_i A(n,i) w^(i+1) / (1-w)^(n+1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [(i + 1) * (row[i] if i < len(row) else 0)
               + (m - i) * (row[i - 1] if i >= 1 else 0) for i in range(m)]
    return tuple(row)


def _li_neg(order: int, v, one_minus_v):
    """Li_{-order}(v) for order >= 0."""
    if order == 0:
        return v / one_minus_v
    num = np.zeros_like(v)
    for i, a in enumerate(eulerian_row(order)):
        num = num + a * v ** (i + 1)
    return num / one_minus_v ** (order + 1)


def log_gf_derivative(kind: str, k: int, m: int, z) -> np.ndarray:
    """m-th derivative in z of ln f(e^z), f = prod (1 -/+ x^(j^k))^(-/+1),
    at every point of z (Re z < 0, all sharing one real part)."""
    z = np.atleast_1d(np.asarray(z))
    s = -float(z.real.flat[0])
    if not s > 0.0 or np.any(z.real != -s):
        raise ValueError("points must share one negative real part")
    terms = int((SERIES_CUT / s) ** (1.0 / k)) + 1
    j = np.arange(1, terms + 1, dtype=np.float64)
    jk = j**k
    weight = jk**m
    sign = 1.0 if kind == "unrestricted" else -1.0
    out = np.empty(z.shape, dtype=complex if np.iscomplexobj(z) else float)
    rows = max(1, CHUNK // terms)
    for lo in range(0, z.size, rows):
        y = np.outer(z.flat[lo:lo + rows], jk)
        w = np.exp(y)
        v = sign * w
        one_minus_v = -np.expm1(y) if sign > 0 else 1.0 + w
        if m == 0:
            vals = -np.log(one_minus_v)
        else:
            vals = _li_neg(m - 1, v, one_minus_v) * weight
        out.flat[lo:lo + rows] = sign * vals.sum(axis=1)
    return out


def log_gf(kind: str, k: int, s: float) -> float:
    return float(log_gf_derivative(kind, k, 0, -s)[0])


def mean(kind: str, k: int, s: float) -> float:
    """sum_j j^k / (e^(j^k s) -/+ 1), summed directly."""
    jk = np.arange(1, int((SERIES_CUT / s) ** (1.0 / k)) + 2, dtype=np.float64) ** k
    x = jk * s
    denom = np.expm1(x) if kind == "unrestricted" else np.exp(x) + 1.0
    return math.fsum(jk / denom)


def variance(kind: str, k: int, s: float) -> float:
    return float(log_gf_derivative(kind, k, 2, -s)[0])


# ------------------------------------------------------------- constants

@lru_cache(maxsize=None)
def mean_constant(kind: str, k: int) -> float:
    """C with mean ~ C s^(-1-1/k): Gamma(1+1/k) zeta(1+1/k) / k, times
    1 - 2^(-1/k) for distinct parts."""
    import mpmath
    c = mpmath.gamma(1 + mpmath.mpf(1) / k) * mpmath.zeta(1 + mpmath.mpf(1) / k) / k
    if kind == "distinct":
        c *= 1 - mpmath.power(2, -mpmath.mpf(1) / k)
    return float(c)


def alpha_beta(k: int) -> tuple:
    """(alpha_k, beta_k) of p_k(n) ~ alpha n^(-(3k+1)/(2k+2)) exp(beta n^(1/(k+1)))."""
    if k == 1:
        return 1.0 / (4.0 * math.sqrt(3.0)), math.pi * math.sqrt(2.0 / 3.0)
    c = mean_constant("unrestricted", k)
    power = c ** (k / (k + 1.0))
    alpha = power * math.sqrt(k / (k + 1.0)) / (2.0 * math.pi) ** ((k + 1.0) / 2.0)
    return alpha, (k + 1.0) * power


def closed_form_log(kind: str, k: int, n: int) -> float:
    """Hayman's formula at the closed-form saddle with the three-term log of
    the generating function; for unrestricted parts this is ln(alpha_k ...)."""
    if kind == "unrestricted":
        alpha, beta = alpha_beta(k)
        return (math.log(alpha) - (3.0 * k + 1.0) / (2.0 * k + 2.0) * math.log(n)
                + beta * n ** (1.0 / (k + 1.0)))
    c = mean_constant("distinct", k)
    return ((k + 1.0) * c ** (k / (k + 1.0)) * n ** (1.0 / (k + 1.0))
            - 0.5 * math.log(4.0 * math.pi * c * (1.0 + 1.0 / k))
            + (2.0 * k + 1.0) / (2.0 * k + 2.0) * math.log(c / n))


def bd_saddle(kind: str, k: int, n: int) -> float:
    return (mean_constant(kind, k) / n) ** (k / (k + 1.0))


def hayman_log(kind: str, k: int, n: int, s: float) -> float:
    return (log_gf(kind, k, s) + n * s - 0.5 * math.log(2.0 * math.pi)
            - 0.5 * math.log(variance(kind, k, s)))


def exact_saddle(kind: str, k: int, n: int) -> float:
    """Newton on mean(s) = n from the closed-form saddle, to 1e-14 relative."""
    s = bd_saddle(kind, k, n)
    for _ in range(100):
        step = (mean(kind, k, s) - n) / variance(kind, k, s)
        s = min(max(s + step, 0.5 * s), 2.0 * s)
        if abs(step) <= 1e-14 * s:
            return s
    raise ArithmeticError(f"oracle saddle did not converge at n={n}")


# ------------------------------------------------------ family from tables

class TablePmf:
    """Probability mass function of the family at t = e^(-s), from a float table."""

    def __init__(self, kind: str, k: int, s: float):
        c = mean_constant(kind, k)
        m0 = c * s ** (-1.0 - 1.0 / k)
        sd0 = math.sqrt((1.0 + 1.0 / k) * c * s ** (-2.0 - 1.0 / k))
        n_max = int(m0 + max(TABLE_SIGMAS * sd0, TABLE_TAIL / s))
        coeffs = table_float(kind, k, n_max)
        n = np.arange(n_max + 1, dtype=np.float64)
        with np.errstate(divide="ignore"):
            logw = np.log(coeffs) - n * s
        w = np.exp(logw - logw.max())
        self.p = w / w.sum()
        self.n = n
        self.mean = float(np.dot(n, self.p))
        self.sigma = math.sqrt(float(np.dot((n - self.mean) ** 2, self.p)))

    def char_fn(self, theta: float) -> complex:
        return complex(np.sum(self.p * np.exp(1j * theta * (self.n - self.mean) / self.sigma)))

    def ks_to_normal(self) -> float:
        """sup_x |P((X - mean)/sigma <= x) - Phi(x)|, over both sides of each jump."""
        cdf = np.cumsum(self.p)
        phi = 0.5 * _erfc(-(self.n - self.mean) / (self.sigma * math.sqrt(2.0)))
        phi_next = np.append(phi[1:], 1.0)
        return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(cdf - phi_next)), phi[0]))


_erfc = np.vectorize(math.erfc, otypes=[float])


def dkw_radius(draws: int, failure_probability: float = 1e-9) -> float:
    """Massart's DKW radius: sup |F_N - F| exceeds it with at most this probability."""
    return math.sqrt(math.log(2.0 / failure_probability) / (2.0 * draws))


# -------------------------------------------------------- diagnostics

def phi_grid(s: float, inner: int = 48, outer: int = 200) -> np.ndarray:
    """The modulus scan's grid: geometric up to the knee 2 pi s, then up to pi."""
    knee = 2.0 * math.pi * s
    return np.concatenate([np.geomspace(knee / 64.0, knee, inner),
                           np.geomspace(knee, math.pi, outer)[1:]])


def twl_constants(kind: str, k: int, s: float) -> tuple:
    """(d1, d2, violations) of the two-regime modulus bound on phi_grid(s)."""
    grid = phi_grid(s)
    base = log_gf(kind, k, s)
    neg_log = base - log_gf_derivative(kind, k, 0, -s + 1j * grid).real
    inner = grid <= 2.0 * math.pi * s
    d1 = float(np.min(neg_log[inner] * s ** (2.0 + 1.0 / k) / grid[inner] ** 2))
    d2 = float(np.min(neg_log[~inner] * s ** (1.0 / k)))
    return d1, d2, int(np.sum(neg_log <= 0.0))


def strong_l1(kind: str, k: int, s: float, intervals: int = 1000) -> float:
    """2 * int_0^{pi sigma} |cf(theta) - exp(-theta^2/2)| by composite Simpson."""
    m = mean(kind, k, s)
    sigma = math.sqrt(variance(kind, k, s))
    theta = np.linspace(0.0, math.pi * sigma, intervals + 1)
    vals = log_gf_derivative(kind, k, 0, -s + 1j * theta / sigma)
    cf = np.exp(vals - log_gf(kind, k, s) - 1j * theta * m / sigma)
    f = np.abs(cf - np.exp(-0.5 * theta**2))
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 2.0 * float(np.dot(weights, f)) * (theta[1] - theta[0]) / 3.0
