"""Command-line front end: counting, constants, family evaluation, asymptotic
estimators, ratio tables, and diagnostics suites with machine-readable output.
The library returns plain data; every CSV and JSON byte is written here.

Exit codes: 0 success, 2 usage/parameter error, 1 computation error.
Identical invocations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

from . import diagnostics as diag
from . import saddle as sd
from .bigcount import (PartitionKind, count_partitions,
                       count_via_log_recurrence, log_integer)
from .family import TruncationError, char_fn_normalized, family_point
from .special import constants

# compute budget of count and ratio-table per table method (ratio-table's is
# dp): the largest n, for every k; the log recurrence is quadratic in n
TABLE_BUDGET = {"dp": 1 << 17, "recurrence": 1 << 13}


def _number(cast, above):
    """argparse type: a finite value of type ``cast`` greater than ``above``."""
    noun = "an integer" if cast is int else "a finite number"

    def read(text: str):
        try:
            v = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not above < v < math.inf:
            raise argparse.ArgumentTypeError(f"must be {noun} > {above}: {text!r}")
        return v

    return read


def _kind(text: str) -> PartitionKind:
    try:
        return PartitionKind(text.strip().lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown partition kind: {text!r}") from None


def _grid(forms=("linear",), cast=float, positive=False):
    """argparse type reading a grid spec: 'a:b:n' is n evenly spaced values
    from a to b inclusive, 'geometric:a:b:n' n values in geometric progression.

    One rule for every spec: n >= 1, n == 1 exactly when a == b, every value
    finite, geometric end points positive.  ``forms`` lists the forms the
    option takes and ``positive`` asks for positive values.  With
    ``cast=int`` the end points are integers with a <= b, and the grid is the
    distinct rounded values of the geometric one, increasing up to b.
    """
    def read(spec: str) -> list:
        parts = spec.split(":")
        form = parts.pop(0) if parts[0] == "geometric" else "linear"
        if form not in forms or len(parts) != 3:
            shapes = " or ".join("a:b:n" if f == "linear" else f"{f}:a:b:n" for f in forms)
            raise argparse.ArgumentTypeError(f"grid must be {shapes}, got {spec!r}")
        try:
            a, b, n = cast(parts[0]), cast(parts[1]), int(parts[2])
            if (n < 1 or (n == 1) != (a == b) or (cast is int and b < a)
                    or (form == "geometric" and not (a > 0 and b > 0))):
                raise argparse.ArgumentTypeError(
                    f"grid {spec!r} is empty, degenerate or not increasing")
            if n == 1:
                vals = [a]
            elif form == "geometric":
                ratio = (b / a) ** (1.0 / (n - 1))
                vals = [a * ratio**i for i in range(n)]
            else:
                step = (b - a) / (n - 1)
                vals = [a + i * step for i in range(n)]
            finite = all(map(math.isfinite, vals))
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"malformed grid {spec!r}") from None
        if not finite:
            raise argparse.ArgumentTypeError(f"grid {spec!r} has a non-finite value")
        if positive and not all(v > 0 for v in vals):
            raise argparse.ArgumentTypeError(f"grid values must be positive: {spec!r}")
        if cast is int:
            return sorted({min(round(v), b) for v in vals} | {b})
        return vals

    return read


def _fmt(x: float) -> str:
    """x at 15 significant digits; refused when they do not read back as a
    finite number (the four largest float64 values print as
    1.79769313486232e+308, which reads back as inf)."""
    text = format(x, ".15g")
    if not math.isfinite(float(text)):
        raise OverflowError(f"{x!r} rounds past float64 at 15 digits")
    return text


def _num(x: float) -> float:
    """x at the printed digits, as a JSON number."""
    return float(_fmt(x))


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of string cells."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {path}: {exc.strerror or exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _check_budget(args: argparse.Namespace, what: str, n: int, fix: str) -> None:
    budget = args.max_n or TABLE_BUDGET[getattr(args, "method", "dp")]
    if n > budget:
        raise UsageError(f"{what} {n} exceeds the compute budget {budget} for k={args.k}; "
                         f"rerun with {fix} capped at {budget} (or raise --max-n)")


def _cmd_count(args: argparse.Namespace) -> int:
    _check_budget(args, "--n-max", args.n_max, "--n-max")
    count = count_via_log_recurrence if args.method == "recurrence" else count_partitions
    coeffs = count(args.kind, args.k, args.n_max).coeffs
    if args.format == "json":
        # exact decimal strings: JSON numbers would silently lose precision
        _emit(_json_dumps({"kind": args.kind.value, "k": args.k, "n_max": args.n_max,
                           "coeffs": list(map(str, coeffs))}), args.output)
    else:
        _emit(_csv("n,coeff", ((str(n), str(c)) for n, c in enumerate(coeffs))),
              args.output)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    cs = constants(args.k, m_max=args.m_max)
    payload = {"k": cs.k, "Omega": _num(cs.Omega), "Phi": _num(cs.Phi),
               "alpha": _num(cs.alpha), "beta": _num(cs.beta),
               "omega": {str(m): _num(v) for m, v in enumerate(cs.omega)}}
    _emit(_json_dumps(payload), args.output)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    pt = family_point(args.kind, args.k, args.s, args.eps)
    thetas = args.theta_grid if args.theta_grid is not None else [0.0]
    cfs = char_fn_normalized(pt, thetas)
    rows = ([_fmt(pt.s), _fmt(pt.mean), _fmt(pt.variance), _fmt(theta),
             _fmt(cf.real), _fmt(cf.imag)] for theta, cf in zip(thetas, cfs.tolist()))
    _emit(_csv("s,mean,variance,theta,cf_real,cf_imag", rows), args.output)
    return 0


def _estimate(method: str, kind: PartitionKind, k: int, n: int, eps: float,
              rtol: float = 1e-10) -> tuple:
    """One estimator at one n: (log estimate, saddle or None)."""
    if method == "hr":
        return sd.hr_closed_form(k, n), None
    if method == "qk":
        return sd.qk_closed_form(k, n), None
    saddle = (sd.bd_saddle(k, n, kind, eps) if method == "bd"
              else sd.exact_saddle(kind, k, n, rtol=rtol, eps=eps))
    return sd.hayman_estimate(saddle), saddle


def _cmd_asymptotic(args: argparse.Namespace) -> int:
    kind, k, n = args.kind, args.k, args.n
    if args.method == "hr" and kind is not PartitionKind.UNRESTRICTED:
        raise UsageError("--method hr requires --kind unrestricted")
    if args.method == "qk" and kind is not PartitionKind.DISTINCT:
        raise UsageError("--method qk requires --kind distinct")
    est, saddle = _estimate(args.method, kind, k, n, args.eps, args.rtol)
    payload = {
        "kind": kind.value,
        "k": k,
        "n": n,
        "method": args.method,
        "formula": est.formula.value,
        "heuristic": est.heuristic,
        "log_value": _num(est.log_value),
        "s": None if saddle is None else _num(saddle.s),
        "residual": None if saddle is None else _num(saddle.residual),
    }
    _emit(_json_dumps(payload), args.output)
    return 0


def _cmd_ratio_table(args: argparse.Namespace) -> int:
    kind, k = args.kind, args.k
    grid = args.n_grid
    _check_budget(args, "n-grid maximum", grid[-1], "a grid")
    table = count_partitions(kind, k, grid[-1])
    closed = "hr" if kind is PartitionKind.UNRESTRICTED else "qk"
    rows = []
    for n in grid:
        if table.coeffs[n] == 0:
            raise UsageError(
                f"exact count is zero at n={n} (kind={kind.value}, k={k}); "
                f"no log ratio exists there, start the grid higher")
        exact_log = log_integer(table.coeffs[n])
        ests = [_estimate(method, kind, k, n, args.eps)[0]
                for method in ("exact", "bd", closed)]
        row = [str(n), _fmt(exact_log)]
        row += [_fmt(e.log_value) for e in ests]
        row += [_fmt(math.exp(e.log_value - exact_log)) for e in ests]
        rows.append(row)
    _emit(_csv("n,exact_log,hayman_exact_log,hayman_bd_log,closed_form_log,"
               "hayman_exact_ratio,hayman_bd_ratio,closed_form_ratio", rows), args.output)
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    kwargs = dict(draws=args.draws, seed=args.seed, quad_tol=args.quad_tol,
                  burn_in=args.burn_in, eps=args.eps)
    if args.suite == "all":
        if args.s_grid is not None:
            raise UsageError("--s-grid applies to one suite, not to --suite all")
        reports = diag.run_all(args.kind, args.k, **kwargs)
    else:
        reports = {args.suite: diag.run_suite(args.kind, args.k, args.suite,
                                              s_grid=args.s_grid, **kwargs)}
    if args.csv:
        rows = ([metric, _fmt(s), _fmt(v)] for _, rep in sorted(reports.items())
                for metric, seq in sorted(rep.metrics.items())
                for s, v in zip(rep.grid, seq))
        _emit(_csv("metric,s,value", rows), args.output)
        return 0
    # JSON writes the reports' tuples as arrays
    payloads = {name: {"kind": rep.kind.value, "k": rep.k, "grid": rep.grid,
                       "metrics": rep.metrics, "verdicts": rep.verdicts}
                for name, rep in reports.items()}
    _emit(_json_dumps({"suites": payloads} if args.suite == "all" else payloads[args.suite]),
          args.output)
    return 0


class UsageError(Exception):
    """Parameter problem detected after argparse (still exit code 2)."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every main call:
    callers parse with it and never change it."""
    parser = argparse.ArgumentParser(
        prog="powerparts",
        description="Exact counts, Khinchin-family evaluation, saddle-point "
                    "asymptotics and diagnostics for partitions into k-th powers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=False):
        p.add_argument("--kind", type=_kind, default=PartitionKind.UNRESTRICTED)
        p.add_argument("--k", type=_number(int, 0), required=True)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--eps", type=_number(float, 0.0), default=1e-12,
                       help="series tail tolerance")
        if table:
            p.add_argument("--max-n", type=_number(int, 0), default=None,
                           help=f"largest n allowed (default {TABLE_BUDGET['dp']}, "
                                f"{TABLE_BUDGET['recurrence']} for count --method recurrence)")

    p = sub.add_parser("count", help="exact coefficient table")
    common(p, table=True)
    p.add_argument("--n-max", type=_number(int, -1), required=True)
    p.add_argument("--method", choices=("dp", "recurrence"), default="dp",
                   help="dp: the default exact table (Euler's pentagonal "
                        "recurrence at k=1, the knapsack DP for k>=2); "
                        "recurrence: the divisor-sum log recurrence")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("constants", help="constant set as JSON")
    p.add_argument("--k", type=_number(int, 0), required=True)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("family", help="mean/variance and characteristic function rows")
    common(p)
    p.add_argument("--s", type=_number(float, 0.0), required=True)
    p.add_argument("--theta-grid", type=_grid(), default=None,
                   metavar="A:B:N")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("asymptotic", help="one estimator at one n, as JSON")
    common(p)
    p.add_argument("--n", type=_number(int, 0), required=True)
    p.add_argument("--method", choices=("bd", "exact", "hr", "qk"), required=True)
    p.add_argument("--rtol", type=_number(float, 0.0), default=1e-10)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("ratio-table", help="exact vs estimated log-counts over an n grid")
    common(p, table=True)
    p.add_argument("--n-grid", type=_grid(("geometric",), cast=int), required=True,
                   metavar="geometric:A:B:POINTS")
    p.set_defaults(func=_cmd_ratio_table)

    p = sub.add_parser("diagnose", help="run a diagnostics suite")
    common(p)
    p.add_argument("--suite", choices=diag.SUITES + ("all",), required=True)
    p.add_argument("--s-grid", type=_grid(("linear", "geometric"), positive=True),
                   default=None, metavar="A:B:N|geometric:A:B:N")
    p.add_argument("--draws", type=_number(int, 0), default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quad-tol", type=_number(float, 0.0), default=1e-6)
    p.add_argument("--burn-in", type=_number(int, -1), default=None,
                   help="override the suite's monotonicity burn-in index")
    p.add_argument("--csv", action="store_true", help="flatten metrics to CSV rows")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid parameter: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, sd.ConvergenceError, diag.QuadratureError,
            ArithmeticError, MemoryError) as exc:
        print(f"error: computation failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
