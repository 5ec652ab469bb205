"""Exact coefficient tables for power-partition generating functions.

Two independent exact algorithms are provided: a dense knapsack DP over the
parts j^k (``count_partitions``) and a divisor-sum recurrence driven by the
logarithmic derivative of the product form (``count_via_log_recurrence``).
All coefficients are Python big integers; tables are immutable once built.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from operator import add
from typing import Iterator, Optional


class PartitionKind(enum.Enum):
    """Selects the multiplicity rule for parts: unbounded or pairwise distinct."""

    UNRESTRICTED = "unrestricted"
    DISTINCT = "distinct"

    @classmethod
    def parse(cls, text: str) -> "PartitionKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown partition kind: {text!r}") from None


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

    def to_csv(self) -> str:
        lines = ["n,coeff"]
        lines.extend(f"{n},{c}" for n, c in enumerate(self.coeffs))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        # exact decimal strings: JSON numbers would silently lose precision
        return {
            "kind": self.kind.value,
            "k": self.k,
            "n_max": self.n_max,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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


def count_partitions(kind: PartitionKind, k: int, n_max: int) -> CoeffTable:
    """Dense knapsack DP over parts j^k <= n_max.

    Unrestricted: unbounded multiplicity, ascending update (per part p the
    table becomes its stride-p prefix sums).  Distinct: 0/1 multiplicity,
    descending update.  Both inner loops run block-wise over slices so the
    big-int additions execute in C; block b reads only block b-1, which is
    already final (ascending) or still untouched (descending), reproducing
    the scalar loop exactly.
    """
    _validate_args(k, n_max)
    c = [0] * (n_max + 1)
    c[0] = 1
    for p in _parts(k, n_max):
        starts = range(p, n_max + 1, p)
        for start in starts if kind is PartitionKind.UNRESTRICTED else reversed(starts):
            end = min(start + p, n_max + 1)
            c[start:end] = map(add, c[start:end], c[start - p:end - p])
    return CoeffTable(kind=kind, k=k, n_max=n_max, coeffs=tuple(c))


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


def delta_sieve(k: int, n_max: int) -> list:
    """delta_k(n) for n = 0..n_max (index 0 unused, set to 0)."""
    _validate_args(k, n_max)
    arr = [0] * (n_max + 1)
    for p in _parts(k, n_max):
        for m in range(p, n_max + 1, p):
            arr[m] += p
    return arr


def epsilon_sieve(k: int, n_max: int) -> list:
    """epsilon_k(n) for n = 0..n_max (index 0 unused, set to 0)."""
    _validate_args(k, n_max)
    arr = [0] * (n_max + 1)
    for p in _parts(k, n_max):
        # multiples m = q*p alternate sign with the parity of q
        for m in range(p, n_max + 1, 2 * p):
            arr[m] += p
        for m in range(2 * p, n_max + 1, 2 * p):
            arr[m] -= p
    return arr


def count_via_log_recurrence(kind: PartitionKind, k: int, n_max: int) -> CoeffTable:
    """Independent recomputation of the table from the log-series coefficients.

    With c(m) = delta_k(m) (Unrestricted) or epsilon_k(m) (Distinct), the
    product form gives n*a_n = sum_{m=1}^{n} c(m)*a_{n-m}.  The division by
    n is exact over the integers; a nonzero remainder indicates a bug and is
    surfaced as ArithmeticError.
    """
    _validate_args(k, n_max)
    if kind is PartitionKind.UNRESTRICTED:
        weights = delta_sieve(k, n_max)
    else:
        weights = epsilon_sieve(k, n_max)
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
    "delta_sieve",
    "epsilon_sieve",
    "verify_product_identity",
    "log_integer",
]
