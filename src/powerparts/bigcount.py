"""Exact coefficient tables for power-partition generating functions.

Two independent exact algorithms are provided.  ``count_partitions`` runs
Euler's pentagonal number recurrence for k = 1 (O(n^{3/2}) additions) and,
for k >= 2, a knapsack over the parts j^k on the whole table packed into
one big integer: one shift-add per part for the distinct kind, the
unrestricted kind from q_k(x) p_k(x^2) at n_max >> L, ..., n_max >> 1,
n_max.  ``count_via_log_recurrence`` is a divisor-sum recurrence driven by
the logarithmic derivative of the product form.  All coefficients are
Python big integers; tables are immutable once built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import cycle
from operator import add, sub
from typing import Iterator, Optional

from .special import constants


class PartitionKind(enum.Enum):
    """Selects the multiplicity rule for parts: unbounded or pairwise distinct."""

    UNRESTRICTED = "unrestricted"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class CoeffTable:
    """Exact counts of partitions of 0..n_max into k-th powers."""

    kind: PartitionKind
    k: int
    n_max: int
    coeffs: tuple  # tuple[int, ...], arbitrary precision

    def __post_init__(self):
        if len(self.coeffs) != self.n_max + 1:
            raise ValueError("coeffs length must be n_max + 1")

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def _validate_args(k: int, n_max: int) -> None:
    """Raise ValueError unless k >= 1 and n_max >= 0, both ints."""
    for label, v, lo in (("k", k, 1), ("n_max", n_max, 0)):
        if not isinstance(v, int) or v < lo:
            sign = "positive" if lo else "nonnegative"
            raise ValueError(f"{label} must be a {sign} integer, got {v!r}")


def _parts(k: int, n_max: int) -> Iterator[int]:
    j = 1
    while j**k <= n_max:
        yield j**k
        j += 1


def _slot_bits(kind: PartitionKind, k: int, n_max: int) -> int:
    """A bound on the bit length of every a_n, n <= n_max.

    For any 0 < t < 1, a_n t^n is at most the value at t of the product
    prod_{p <= n_max} (1 -/+ t^p)^(-/+1) over the parts p = j^k, whose
    coefficients up to n_max are the a_n and are all nonnegative beyond;
    and t^-n <= t^-n_max.  t = e^-s at the saddle s = (c/n_max)^(k/(k+1))
    of that bound, c = Omega_k (unrestricted) or Phi_k (distinct), and two
    guard bits absorb the float rounding of the logarithm.
    """
    cs = constants(k)
    c = cs.Phi if kind is PartitionKind.DISTINCT else cs.Omega
    s = (c / max(n_max, 1)) ** (k / (k + 1))
    sign = 1.0 if kind is PartitionKind.DISTINCT else -1.0
    log_bound = n_max * s + math.fsum(sign * math.log1p(sign * math.exp(-s * p))
                                      for p in _parts(k, n_max))
    return math.ceil(log_bound / math.log(2.0)) + 2


def _knapsack(kind: PartitionKind, k: int, n_max: int) -> list:
    """The table packed into one integer (Kronecker substitution), a_n in
    slot n_max - n of B bits, C = sum_n a_n 2^(B (n_max - n)), with B whole
    bytes of at least ``_slot_bits``.

    Multiplying by (1 + x^p), a_n += a_{n-p}, is then C += C >> Bp: the
    shift drops the slots that would pass n_max.  That over every part gives
    the distinct kind.  The unrestricted kind uses p_k(x) = q_k(x) p_k(x^2):
    the table to n >> 1, spread to the even degrees, times the distinct
    kind's factors over the parts <= n, is the table to n, for n = 0, ...,
    n_max >> 1, n_max.  Every partial product has nonnegative coefficients
    no larger than the final ones, so no slot carries into the next.  The
    big-endian bytes of C list a_0, a_1, ... in order.
    """
    width = -(-_slot_bits(kind, k, n_max) // 8)
    bits = 8 * width
    halvings = n_max.bit_length() if kind is PartitionKind.UNRESTRICTED else 0
    c, prev = 1, 0
    for n in (n_max >> i for i in range(halvings, -1, -1)):
        old = c.to_bytes(width * (prev + 1), "big")
        spread = bytearray(width * (n + 1))
        for b in range(width):
            spread[b:2 * width * (prev + 1):2 * width] = old[b::width]
        c = int.from_bytes(spread, "big")
        for p in _parts(k, n):
            c += c >> bits * p
        prev = n
    data = memoryview(c.to_bytes(width * (n_max + 1), "big"))
    return [int.from_bytes(data[i:i + width], "big") for i in range(0, len(data), width)]


def _pentagonal(n_max: int, stride: int, sign: int) -> list:
    """Ascending (stride*g, add or sub) for the generalized pentagonal numbers
    g = m(3m-1)/2, m = 1, -1, 2, -2, ..., with stride*g <= n_max; the
    operation applies the sign sign*(-1)^m."""
    terms = []
    m = 1
    while stride * m * (3 * m - 1) // 2 <= n_max:
        op = add if sign * (-1) ** m > 0 else sub
        terms += [(stride * g, op) for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2)
                  if stride * g <= n_max]
        m += 1
    return terms


def _euler(kind: PartitionKind, n_max: int) -> list:
    """Euler's pentagonal recurrence for k = 1.

    Multiplying the generating function by
    prod_j (1 - x^j) = sum_m (-1)^m x^{m(3m-1)/2} leaves a seed series: 1 for
    the unrestricted kind, prod_j (1 - x^{2j}) = sum_m (-1)^m x^{m(3m-1)} for
    the distinct kind.  So a_n = seed_n - sum_{m != 0} (-1)^m a_{n - m(3m-1)/2},
    about 2 sqrt(2n/3) big-int additions per n.
    """
    a = [1] + [0] * n_max
    if kind is PartitionKind.DISTINCT:
        for o, op in _pentagonal(n_max, 2, 1):
            a[o] = op(0, 1)
    terms = _pentagonal(n_max, 1, -1)
    for n in range(1, n_max + 1):
        v = a[n]
        for o, op in terms:
            if o > n:
                break
            v = op(v, a[n - o])
        a[n] = v
    return a


def count_partitions(kind: PartitionKind, k: int, n_max: int) -> CoeffTable:
    """Exact counts for n = 0..n_max: Euler's pentagonal recurrence for k = 1,
    the packed knapsack over the parts j^k for k >= 2."""
    _validate_args(k, n_max)
    coeffs = _euler(kind, n_max) if k == 1 else _knapsack(kind, k, n_max)
    return CoeffTable(kind=kind, k=k, n_max=n_max, coeffs=tuple(coeffs))


def _log_weights(kind: PartitionKind, k: int, n_max: int) -> list:
    """delta_k(n) = sum_{j^k | n} j^k (Unrestricted) or epsilon_k(n) =
    -sum_{j^k | n} (-1)^(n/j^k) j^k (Distinct) for n = 0..n_max, index 0
    unused and set to 0: each part p adds p to its multiples q*p, for the
    distinct kind with the sign alternating with the parity of q."""
    arr = [0] * (n_max + 1)
    for p in _parts(k, n_max):
        signs = (p,) if kind is PartitionKind.UNRESTRICTED else (p, -p)
        arr[p::p] = map(add, arr[p::p], cycle(signs))
    return arr


def count_via_log_recurrence(kind: PartitionKind, k: int, n_max: int) -> CoeffTable:
    """Independent recomputation of the table from the log-series coefficients.

    With c(m) = delta_k(m) (Unrestricted) or epsilon_k(m) (Distinct), the
    product form gives n*a_n = sum_{m=1}^{n} c(m)*a_{n-m}.  The division by
    n is exact over the integers; a nonzero remainder indicates a bug and is
    surfaced as ArithmeticError.
    """
    _validate_args(k, n_max)
    weights = _log_weights(kind, k, n_max)
    a = [1]
    mul = int.__mul__
    for n in range(1, n_max + 1):
        rev = a[n - 1::-1]  # a_{n-1}, ..., a_0
        total = sum(map(mul, weights[1:n + 1], rev))
        q, r = divmod(total, n)
        if r:
            raise ArithmeticError(
                f"log-series recurrence not divisible at n={n} (kind={kind.value}, k={k})"
            )
        a.append(q)
    return CoeffTable(kind=kind, k=k, n_max=n_max, coeffs=tuple(a))


@dataclass(frozen=True)
class ProductIdentityReport:
    """Result of the coefficient-wise check q_k * p_k(z^2) == p_k."""

    k: int
    n_max: int
    ok: bool
    first_mismatch: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


def verify_product_identity(k: int, n_max: int,
                            tables: Optional[tuple] = None) -> ProductIdentityReport:
    """Check p_k(n) = sum_{2i <= n} q_k(n-2i) * p_k(i) for n = 0..n_max.

    ``tables`` may supply precomputed (unrestricted, distinct) tables of
    length >= n_max.  For k >= 2, ``count_partitions`` builds the
    unrestricted table from this very identity, so it checks the packing
    there, not the counts; the log recurrence and the modular log-derivative
    check of the tests are the independent algorithms.
    """
    _validate_args(k, n_max)
    if tables is None:
        p_tbl = count_partitions(PartitionKind.UNRESTRICTED, k, n_max)
        q_tbl = count_partitions(PartitionKind.DISTINCT, k, n_max)
    else:
        p_tbl, q_tbl = tables
    p = p_tbl.coeffs
    q = q_tbl.coeffs
    mul = int.__mul__
    for n in range(n_max + 1):
        # q[n], q[n-2], q[n-4], ... paired with p[0], p[1], p[2], ...
        conv = sum(map(mul, q[n::-2], p[:n // 2 + 1]))
        if conv != p[n]:
            return ProductIdentityReport(k=k, n_max=n_max, ok=False, first_mismatch=n)
    return ProductIdentityReport(k=k, n_max=n_max, ok=True, first_mismatch=None)


def log_integer(v: int) -> float:
    """Natural log of a positive big integer, safe beyond float overflow."""
    if v <= 0:
        raise ValueError("log_integer requires a positive integer")
    shift = max(0, v.bit_length() - 64)
    return math.log(float(v >> shift)) + shift * math.log(2.0)


__all__ = [
    "PartitionKind",
    "CoeffTable",
    "ProductIdentityReport",
    "count_partitions",
    "count_via_log_recurrence",
    "verify_product_identity",
    "log_integer",
]
