"""Exact coefficient tables for power-partition generating functions.

Two independent exact algorithms are provided.  ``count_partitions`` runs
Euler's pentagonal number recurrence for k = 1 (O(n^{3/2}) additions) and a
dense knapsack DP over the parts j^k for k >= 2 (O(n^{1+1/k}) additions).
``count_via_log_recurrence`` is a divisor-sum recurrence driven by the
logarithmic derivative of the product form.  All coefficients are Python big
integers; tables are immutable once built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import cycle
from operator import add, sub
from typing import Iterator, Optional


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


def _validate_args(k: int, n: int, name: str = "n_max", least: int = 0) -> None:
    """Raise ValueError unless k >= 1 and the argument ``name`` is >= ``least``
    (0 or 1), both ints."""
    for label, v, lo in (("k", k, 1), (name, n, least)):
        if not isinstance(v, int) or v < lo:
            sign = "positive" if lo else "nonnegative"
            raise ValueError(f"{label} must be a {sign} integer, got {v!r}")


def _parts(k: int, n_max: int) -> Iterator[int]:
    j = 1
    while j**k <= n_max:
        yield j**k
        j += 1


def _knapsack(kind: PartitionKind, k: int, n_max: int) -> list:
    """Dense knapsack DP over parts j^k <= n_max: c_n += c_{n-p} for each part
    p, in ascending n for unbounded multiplicity (Unrestricted), from the old
    table for 0/1 multiplicity (Distinct).  Each update is one slice
    operation per part or per stride-p block, so the additions run in C."""
    c = [0] * (n_max + 1)
    c[0] = 1
    for p in _parts(k, n_max):
        if kind is PartitionKind.UNRESTRICTED:
            for start in range(p, n_max + 1, p):
                c[start:start + p] = map(add, c[start:start + p], c[start - p:start])
        else:
            # both right-hand slices are copies taken before the assignment
            c[p:] = map(add, c[p:], c[:-p])
    return c


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
    the knapsack DP over the parts j^k for k >= 2."""
    _validate_args(k, n_max)
    coeffs = _euler(kind, n_max) if k == 1 else _knapsack(kind, k, n_max)
    return CoeffTable(kind=kind, k=k, n_max=n_max, coeffs=tuple(coeffs))


def delta_k(k: int, n: int) -> int:
    """Sum of the perfect k-th powers dividing n."""
    _validate_args(k, n, "n", 1)
    total = 0
    j = 1
    while j**k <= n:
        if n % (j**k) == 0:
            total += j**k
        j += 1
    return total


def epsilon_k(k: int, n: int) -> int:
    """Signed divisor sum -sum_{j^k | n} (-1)^(n/j^k) j^k.

    For k = 1 this equals the sum of the odd divisors of n.
    """
    _validate_args(k, n, "n", 1)
    total = 0
    j = 1
    while j**k <= n:
        p = j**k
        if n % p == 0:
            total -= p if (n // p) % 2 == 0 else -p
        j += 1
    return total


def _log_weights(kind: PartitionKind, k: int, n_max: int) -> list:
    """delta_k(n) (Unrestricted) or epsilon_k(n) (Distinct) for n = 0..n_max,
    index 0 unused and set to 0: each part p adds p to its multiples q*p,
    for the distinct kind with the sign alternating with the parity of q."""
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
    length >= n_max.
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
    "delta_k",
    "epsilon_k",
    "verify_product_identity",
    "log_integer",
]
