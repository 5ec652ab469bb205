"""Numerical witnesses for the limit statements behind the estimators.

Each operation turns one asymptotic claim into a finite computation: ratio
sequences that should drift to 1, an L1 distance that should shrink, bound
constants that should stay positive, and Monte-Carlo CLT checks.  Reports
are self-describing: every verdict carries the criterion it was judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bigcount import PartitionKind
from .family import (_derivatives, _line, char_fn_normalized, family_point,
                     fulcrum, mean, sample, variance)
from .special import constants

DEFAULT_S_GRID = tuple(0.5 * 2.0**-i for i in range(9))
STRONG_GAUSS_GRID = (0.5, 0.2, 0.1, 0.05)
TWL_S_GRID = (0.3, 0.1, 0.03)
CLT_S_GRID = (0.2, 0.05, 0.02)

_SQRT2 = math.sqrt(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, achieved: float, estimate: float):
        super().__init__(
            f"quadrature did not converge: error estimate {achieved:g} "
            f"(integral estimate {estimate:g})"
        )
        self.achieved = achieved
        self.estimate = estimate


@dataclass(frozen=True)
class DiagnosticsReport:
    kind: PartitionKind
    k: int
    grid: tuple  # s values, decreasing
    metrics: dict  # name -> tuple of floats aligned with grid
    verdicts: dict  # name -> self-describing dict incl. "pass"

    def __post_init__(self):
        for name, seq in self.metrics.items():
            if len(seq) != len(self.grid):
                raise ValueError(f"metric {name!r} not aligned with grid")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "grid": list(self.grid),
            "metrics": {name: list(seq) for name, seq in self.metrics.items()},
            "verdicts": self.verdicts,
        }


def gaussianity_ratios(kind: PartitionKind, k: int, s: float, m_max: int = 6,
                       eps: float = 1e-12) -> list:
    """F^(j)(-s) / F''(-s)^(j/2) for j = 3..m_max; all should vanish as s -> 0."""
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    var, *higher = _derivatives(kind, k, s, range(2, m_max + 1), eps)
    return [d / var ** (j / 2.0) for j, d in enumerate(higher, 3)]


def fulcrum_asymptotic_check(kind: PartitionKind, k: int, m: int,
                             s_grid: Sequence[float], eps: float = 1e-12) -> list:
    """s^(m+1/k) F^(m)(-s) / w with w the leading constant (scaled by
    1 - 2^(-1/k) for the distinct kind); expected to approach 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    w = constants(k, m_max=max(2, m)).omega[m]
    if kind is PartitionKind.DISTINCT:
        w *= 1.0 - 2.0 ** (-1.0 / k)

    return [s ** (m + 1.0 / k) * fulcrum(kind, k, complex(-s), eps, m).real / w
            for s in s_grid]


def _adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      tol: float, max_depth: int = 24,
                      max_evals: int = 200_000) -> tuple:
    """Adaptive Simpson with Richardson correction; returns (value, err_est).

    f maps an array of nodes to the array of integrand values.  Each
    refinement level is one call of f at the new nodes of all its
    unconverged panels, and the accepted panels are summed right to left, the
    order of a depth-first stack, so the sums do not depend on the batching.
    Raises QuadratureError if the tolerance is still unmet when a panel hits
    max_depth or a level would take the evaluations past max_evals.
    """
    if b <= a:
        return 0.0, 0.0
    fa, fm, fb = f(np.array([a, 0.5 * (a + b), b])).tolist()
    # a panel: (index among the 2^depth of its level, a, b, f(a), f(mid), f(b),
    # Simpson value, tol, its share of its parent's error estimate)
    level = [(0, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, math.inf)]
    done = []  # (index scaled to depth max_depth, value, err, unmet err)
    evals = 3
    for depth in range(max_depth + 1):
        if not level or evals + 2 * len(level) > max_evals:
            done += [(p[0] << (max_depth - depth), p[6], p[8], math.inf) for p in level]
            break
        mids = [0.5 * (p[1] + p[2]) for p in level]
        vals = f(np.array([0.5 * (p[1] + m0) for p, m0 in zip(level, mids)]
                          + [0.5 * (m0 + p[2]) for p, m0 in zip(level, mids)])).tolist()
        evals += len(vals)
        refined = []
        for (i, a0, b0, fa0, fm0, fb0, whole0, tol0, _), m0, flm, frm in zip(
                level, mids, vals, vals[len(level):]):
            left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
            right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
            delta = left + right - whole0
            converged = abs(delta) <= 15.0 * tol0
            if converged or depth == max_depth:
                done.append((i << (max_depth - depth), left + right + delta / 15.0,
                             abs(delta) / 15.0, 0.0 if converged else abs(delta) / 15.0))
            else:
                share = abs(delta) / 30.0
                refined += [(2 * i, a0, m0, fa0, flm, fm0, left, tol0 / 2.0, share),
                            (2 * i + 1, m0, b0, fm0, frm, fb0, right, tol0 / 2.0, share)]
        level = refined
    total = err = bad = 0.0
    for _, value, e, unmet in sorted(done, reverse=True):
        total, err, bad = total + value, err + e, bad + unmet
    if bad > tol:
        raise QuadratureError(achieved=bad if bad < math.inf else err, estimate=total)
    return total, err


def strong_gauss_l1(kind: PartitionKind, k: int, s: float,
                    quad_tol: float = 1e-6, split_c: float = 1.0,
                    eps: float = 1e-12) -> float:
    """L1 distance between the normalized characteristic function and the
    Gaussian one over theta in [-pi*sigma, pi*sigma].

    The integrand is even, so twice the integral over [0, pi*sigma]; the
    interval is split at theta = split_c * s^(-1/(2k)) where the modulus
    bound changes regime.
    """
    if not quad_tol > 0.0:
        raise ValueError(f"requires quad_tol > 0, got {quad_tol!r}")
    pt = family_point(kind, k, s, eps)

    def integrand(theta: np.ndarray) -> np.ndarray:
        cfs = char_fn_normalized(pt, theta).tolist()
        return np.array([abs(cf - math.exp(-0.5 * t * t))
                         for cf, t in zip(cfs, theta.tolist())])

    theta_max = math.pi * math.sqrt(pt.variance)
    theta_split = min(split_c * s ** (-1.0 / (2.0 * k)), theta_max)
    total = 0.0
    # seed panels keep the sampler from stepping over narrow features
    for lo, hi, panels in ((0.0, theta_split, 4), (theta_split, theta_max, 8)):
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = _adaptive_simpson(integrand, float(a), float(b),
                                       quad_tol / (4.0 * (4 + 8)))
            total += val
    return 2.0 * total


@dataclass(frozen=True)
class TwlScan:
    """Fitted decay constants for the two-regime modulus bound."""

    k: int
    s: float
    d1: float  # inner regime |phi| <= 2 pi s: ratio <= exp(-d1 phi^2 s^-(2+1/k))
    d2: float  # outer regime up to pi:      ratio <= exp(-d2 s^(-1/k))
    violations: int  # grid points with ratio >= 1
    normative: bool  # False for the distinct (exploratory) kind


def default_phi_grid(s: float, inner: int = 48, outer: int = 200) -> np.ndarray:
    """Geometric grid covering both regimes of (0, pi]."""
    knee = 2.0 * math.pi * s
    lo = np.geomspace(knee / 64.0, knee, inner)
    hi = np.geomspace(knee, math.pi, outer)[1:]
    return np.concatenate([lo, hi])


def twl_bound_scan(k: int, s: float, phi_grid: Optional[Sequence[float]] = None,
                   kind: PartitionKind = PartitionKind.UNRESTRICTED,
                   eps: float = 1e-12) -> TwlScan:
    """Fit the largest d1, d2 making the two-regime bound hold on the grid;
    -log |f|/f = F(-s) - Re F(-s + i*phi) stays finite where |f|/f underflows."""
    if not 0.0 < s < math.log(2.0):
        raise ValueError(f"requires 0 < s < ln 2, got {s!r}")
    grid = np.asarray(phi_grid if phi_grid is not None else default_phi_grid(s),
                      dtype=float)
    if grid.size == 0 or not np.all(np.diff(grid) > 0) or grid[0] <= 0 or grid[-1] > math.pi + 1e-12:
        raise ValueError("phi grid must be strictly increasing inside (0, pi]")
    knee = 2.0 * math.pi * s
    pt = family_point(kind, k, s, eps)
    neg_log = np.array([pt.log_f - v.real for v in _line(pt, grid)])
    violations = int(np.sum(neg_log <= 0.0))
    inner = grid <= knee
    outer = ~inner
    d1 = math.inf
    d2 = math.inf
    if np.any(inner):
        d1 = float(np.min(neg_log[inner] * s ** (2.0 + 1.0 / k) / grid[inner] ** 2))
    if np.any(outer):
        d2 = float(np.min(neg_log[outer] * s ** (1.0 / k)))
    return TwlScan(k=k, s=s, d1=d1, d2=d2, violations=violations,
                   normative=kind is PartitionKind.UNRESTRICTED)


def bd_condition_check(k: int, s_grid: Sequence[float], eps: float = 1e-12) -> list:
    """(mean - Omega_k s^(-1-1/k)) / sigma along the grid; expected -> 0
    from below with log-log slope about 1/(2k)."""
    big_omega = constants(k).Omega
    return [(mean(PartitionKind.UNRESTRICTED, k, s, eps) - big_omega * s ** (-1.0 - 1.0 / k))
            / math.sqrt(variance(PartitionKind.UNRESTRICTED, k, s, eps)) for s in s_grid]


def bd_scaled_mean_gap(k: int, s_grid: Sequence[float], eps: float = 1e-12) -> list:
    """s * (Omega_k s^(-1-1/k) - mean); stays in [0, 1] for every s > 0."""
    big_omega = constants(k).Omega
    return [s * (big_omega * s ** (-1.0 - 1.0 / k)
                 - mean(PartitionKind.UNRESTRICTED, k, s, eps))
            for s in s_grid]


def euler_maclaurin_identity_check(quad_tol: float = 1e-10) -> tuple:
    """Evaluate both sides of 1/12 - int_1^inf B2({x})/(2x^2) dx = 1 - ln(sqrt(2pi)).

    On [m, m+1] the integral has the closed form
    (1 - (2m+1) log1p(1/m) + (m^2+m+1/6)/(m(m+1))) / 2, which is O(m^-4)
    because B2's zeroth and first moments vanish; |term| <= 1/(12 m^4), so
    the cutoff N is sized from quad_tol with tail <= 1/(36 (N-1)^3).
    """
    if not quad_tol > 0.0:
        raise ValueError(f"requires quad_tol > 0, got {quad_tol!r}")
    n_cut = max(64, math.ceil((1.0 / (36.0 * quad_tol)) ** (1.0 / 3.0)) + 2)
    terms = []
    for m in range(1, n_cut):
        terms.append(0.5 * (1.0 - (2.0 * m + 1.0) * math.log1p(1.0 / m)
                            + (m * m + m + 1.0 / 6.0) / (m * (m + 1.0))))
    integral = math.fsum(terms)
    lhs = 1.0 / 12.0 - integral
    rhs = 1.0 - math.log(math.sqrt(2.0 * math.pi))
    return lhs, rhs


def clt_empirical_check(kind: PartitionKind, k: int, s: float, draws: int,
                        seed: int, eps: float = 1e-12) -> float:
    """Kolmogorov-Smirnov distance between normalized samples of X_t and the
    standard normal CDF (via the complementary error function)."""
    if draws < 10**4:
        raise ValueError(f"draws must be >= 1e4, got {draws!r}")
    pt = family_point(kind, k, s, eps)
    xs = sample(pt, draws, seed)
    z = np.sort((xs - pt.mean) / math.sqrt(pt.variance))
    cdf = np.array([0.5 * math.erfc(-t / _SQRT2) for t in z])
    i = np.arange(1, draws + 1, dtype=float)
    d_plus = np.max(i / draws - cdf)
    d_minus = np.max(cdf - (i - 1.0) / draws)
    return float(max(d_plus, d_minus))


def _fit_loglog_slope(s_values: Sequence[float], metric: Sequence[float]) -> Optional[float]:
    """Least-squares slope of ln|metric| against ln s (burn-in already
    applied); None when fewer than two points remain."""
    if len(s_values) < 2:
        return None
    xs = np.log(np.asarray(s_values, dtype=float))
    ys = np.log(np.abs(np.asarray(metric, dtype=float)))
    xbar, ybar = xs.mean(), ys.mean()
    return float(np.dot(xs - xbar, ys - ybar) / np.dot(xs - xbar, xs - xbar))


def _decreasing(seq: Sequence[float], burn_in: int = 0, slack: float = 0.0) -> bool:
    tail = list(seq[burn_in:])
    return all(b <= a + slack for a, b in zip(tail, tail[1:]))


def _monotone_verdict(criterion: str, seq: tuple, b: int, **extra) -> dict:
    """Pass when the sequence decreases after burn-in ``b``."""
    ok = _decreasing(seq, burn_in=b)
    return {"criterion": criterion, "burn_in": b, **extra,
            "decreasing": ok, "final": seq[-1], "pass": ok}


def _slope_verdict(criterion: str, grid: tuple, seq: tuple, b: int, expected: float,
                   judge_decreasing: bool = False) -> dict:
    """Pass when the log-log slope after burn-in ``b`` is within 0.1 of
    ``expected`` (and, if judged, the sequence decreases after burn-in)."""
    fitted = _fit_loglog_slope(grid[b:], seq[b:])
    verdict = {"criterion": criterion, "burn_in": b, "slope_expected": expected,
               "slope_fitted": fitted,
               "pass": fitted is not None and abs(fitted - expected) < 0.1}
    if judge_decreasing:
        verdict["decreasing"] = _decreasing(seq, burn_in=b)
        verdict["pass"] = verdict["decreasing"] and verdict["pass"]
    return verdict


# Each suite maps (kind, k, grid, burn-in, options) to (metrics, verdicts).

def _gauss_suite(kind, k, grid, b, eps, **_) -> tuple:
    ratios = [gaussianity_ratios(kind, k, s, m_max=6, eps=eps) for s in grid]
    metrics, verdicts = {}, {}
    for j in range(3, 7):
        name = f"gaussianity_ratio_m{j}"
        metrics[name] = tuple(r[j - 3] for r in ratios)
        verdicts[name] = _slope_verdict(
            "ratio decreasing to 0; log-log slope near (m/2-1)/k", grid, metrics[name],
            b, (j / 2.0 - 1.0) / k, judge_decreasing=True)
    return metrics, verdicts


def _strong_suite(kind, k, grid, b, quad_tol, eps, **_) -> tuple:
    seq = tuple(strong_gauss_l1(kind, k, s, quad_tol=quad_tol, eps=eps) for s in grid)
    return {"strong_gauss_l1": seq}, {"strong_gauss_l1": _monotone_verdict(
        "strictly decreasing along decreasing s after burn-in", seq, b)}


def _twl_suite(kind, k, grid, b, eps, **_) -> tuple:
    scans = [twl_bound_scan(k, s, kind=kind, eps=eps) for s in grid]
    metrics = {
        "twl_d1": tuple(sc.d1 for sc in scans),
        "twl_d2": tuple(sc.d2 for sc in scans),
        "twl_violations": tuple(float(sc.violations) for sc in scans),
    }
    ok = all(sc.d1 > 0 and sc.d2 > 0 and sc.violations == 0 for sc in scans)
    return metrics, {"twl_bound": {
        "criterion": "fitted d1, d2 positive with no modulus-ratio violations",
        "normative": scans[0].normative,
        "pass": ok,
    }}


def _bd_suite(kind, k, grid, b, eps, **_) -> tuple:
    if kind is not PartitionKind.UNRESTRICTED:
        return {}, {"bd_condition": {
            "criterion": "mean-approximant condition (unrestricted only)",
            "pass": None,
            "note": "not applicable to the distinct kind",
        }}
    gap = tuple(bd_condition_check(k, grid, eps=eps))
    scaled = tuple(bd_scaled_mean_gap(k, grid, eps=eps))
    return {"bd_normalized_gap": gap, "bd_scaled_mean_gap": scaled}, {
        "bd_normalized_gap": _slope_verdict(
            "-> 0 with log-log slope near 1/(2k)", grid, gap, b, 1.0 / (2.0 * k)),
        "bd_scaled_mean_gap": {
            "criterion": "s*(approx_mean - mean) within [0, 1]",
            "pass": all(-1e-9 <= g <= 1.0 + 1e-9 for g in scaled),
        },
    }


def _em_suite(kind, k, grid, b, quad_tol, **_) -> tuple:
    lhs, rhs = euler_maclaurin_identity_check(quad_tol=min(quad_tol, 1e-9))
    return {}, {"euler_maclaurin_identity": {
        "criterion": "|lhs - rhs| <= 1e-8",
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs(lhs - rhs),
        "pass": abs(lhs - rhs) <= 1e-8,
    }}


def _clt_suite(kind, k, grid, b, draws, seed, eps, **_) -> tuple:
    vals = tuple(clt_empirical_check(kind, k, s, draws, seed, eps=eps) for s in grid)
    return {"clt_ks": vals}, {"clt_ks": _monotone_verdict(
        "KS distance decreasing along decreasing s after burn-in", vals, b,
        draws=draws, seed=seed)}


# suite -> (default s grid, default burn-in, suite function); a suite that
# returns no metrics reports an empty grid
_SUITE_TABLE = {
    "gauss": (DEFAULT_S_GRID, 2, _gauss_suite),
    "strong": (STRONG_GAUSS_GRID, 0, _strong_suite),
    "twl": (TWL_S_GRID, None, _twl_suite),
    "bd": (DEFAULT_S_GRID, 3, _bd_suite),
    "em": ((), None, _em_suite),
    "clt": (CLT_S_GRID, 0, _clt_suite),
}
SUITES = tuple(_SUITE_TABLE)


def run_suite(kind: PartitionKind, k: int, suite: str,
              s_grid: Optional[Sequence[float]] = None,
              draws: int = 20000, seed: int = 0, quad_tol: float = 1e-6,
              burn_in: Optional[int] = None, eps: float = 1e-12) -> DiagnosticsReport:
    """Assemble one named diagnostics suite into a self-describing report.

    ``burn_in`` overrides the suite's default index before which monotone
    verdicts are not judged; the value used is recorded in the verdict.
    """
    if suite not in _SUITE_TABLE:
        raise ValueError(f"unknown diagnostics suite: {suite!r}")
    default_grid, default_burn_in, run = _SUITE_TABLE[suite]
    grid = tuple(s_grid) if s_grid else default_grid
    b = default_burn_in if burn_in is None else burn_in
    metrics, verdicts = run(kind, k, grid, b, draws=draws, seed=seed,
                            quad_tol=quad_tol, eps=eps)
    return DiagnosticsReport(kind=kind, k=k, grid=grid if metrics else (),
                             metrics=metrics, verdicts=verdicts)


def run_all(kind: PartitionKind, k: int, draws: int = 20000, seed: int = 0,
            quad_tol: float = 1e-6, burn_in: Optional[int] = None,
            eps: float = 1e-12) -> dict:
    """All suites keyed by name (twl only applies below s = ln 2 and is run
    on its own grid)."""
    return {name: run_suite(kind, k, name, draws=draws, seed=seed,
                            quad_tol=quad_tol, burn_in=burn_in, eps=eps)
            for name in SUITES}


__all__ = [
    "DEFAULT_S_GRID",
    "STRONG_GAUSS_GRID",
    "TWL_S_GRID",
    "CLT_S_GRID",
    "SUITES",
    "DiagnosticsReport",
    "QuadratureError",
    "TwlScan",
    "gaussianity_ratios",
    "fulcrum_asymptotic_check",
    "strong_gauss_l1",
    "twl_bound_scan",
    "default_phi_grid",
    "bd_condition_check",
    "bd_scaled_mean_gap",
    "euler_maclaurin_identity_check",
    "clt_empirical_check",
    "run_suite",
    "run_all",
]
