"""Checks of every command's output.

Outputs are compared with computations written apart from the program
(``oracles``) and with properties the methods must have, never with a
stored copy of an earlier output.  An output that is not strict JSON or CSV
of the command's format, or that breaks its JSON Schema, raises Malformed:
the command counts as failed.  A well-formed output with a wrong value
yields an error message: the run is not correct.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

import oracles
import workloads

SCHEMAS = ("count", "asymptotic", "diagnose")
FORMULA = {"exact": "hayman", "bd": "hayman_bd", "hr": "closed_form_hr", "qk": "closed_form_q"}
IDENTITY_MAX = 8192       # q(x) p(x^2) = p(x) is checked on tables up to this size
SYMPY_MAX = 10**6         # ln p(n) from sympy for asymptotic commands up to this n
STRONG_ORACLE_MIN_S = 0.2  # the quadrature oracle is run where sigma is small


class Malformed(Exception):
    """The output is not a valid result of its command."""


def strict_json(text: str):
    def reject(token):
        raise Malformed(f"non-JSON constant {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise Malformed(f"invalid JSON: {exc}") from None


def strict_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise Malformed(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise Malformed(f"non-finite number {text!r}")
    return v


def csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise Malformed(f"CSV header is not {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != width for r in rows):
        raise Malformed("CSV row of the wrong width")
    return rows


def close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= abs_tol + rel * abs(want)


def s_grid(spec) -> list:
    """The s values of a (first, last, points) geometric grid or an 'a:b:n' linear one."""
    if isinstance(spec, str):
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        return [a] if n == 1 else [a + i * (b - a) / (n - 1) for i in range(n)]
    a, b, n = spec
    return [a] if n == 1 else [a * (b / a) ** (i / (n - 1)) for i in range(n)]


class Checker:
    def __init__(self, schema_dir: Path):
        self.validators = {}
        for op in SCHEMAS:
            with open(schema_dir / f"{op}.schema.json", encoding="utf-8") as fh:
                self.validators[op] = jsonschema.Draft202012Validator(json.load(fh))
        self.new_round()

    def new_round(self) -> None:
        self._tables = {}  # (k, n_max) -> {kind: coefficients}, awaiting their partner

    def check(self, cmd, text: str) -> list:
        return getattr(self, "_" + cmd.op.replace("-", "_"))(cmd, text)

    def _json(self, cmd, text: str) -> dict:
        obj = strict_json(text)
        try:
            self.validators[cmd.op].validate(obj)
        except jsonschema.ValidationError as exc:
            raise Malformed(f"schema: {exc.message}") from None
        return obj

    # ------------------------------------------------------------- count

    def _count(self, cmd, text: str) -> list:
        n_max = cmd.params["n_max"]
        if cmd.params["format"] == "json":
            obj = self._json(cmd, text)
            if (obj["kind"], obj["k"], obj["n_max"]) != (cmd.kind, cmd.k, n_max):
                return [f"header {obj['kind']}, {obj['k']}, {obj['n_max']}"]
            coeffs = [int(c) for c in obj["coeffs"]]
        else:
            rows = csv_rows(text, "n,coeff")
            if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
                raise Malformed("n column is not 0, 1, 2, ...")
            if not all(r[1].isdigit() for r in rows):
                raise Malformed("coefficient is not a decimal integer")
            coeffs = [int(r[1]) for r in rows]
        if len(coeffs) != n_max + 1:
            return [f"{len(coeffs)} coefficients for n_max={n_max}"]
        errors = []
        got = np.array([c % oracles.PRIME for c in coeffs], dtype=np.int64)
        bad = np.flatnonzero(got != oracles.table_mod(cmd.kind, cmd.k, n_max))
        if bad.size:
            errors.append(f"coefficient {int(bad[0])} differs from the knapsack modulo a prime")
        if cmd.kind == "unrestricted" and cmd.k == 1:
            from sympy import partition
            if coeffs[n_max] != int(partition(n_max)):
                errors.append(f"p({n_max}) differs from sympy's partition")
        if n_max <= IDENTITY_MAX:
            pair = self._tables.setdefault((cmd.k, n_max), {})
            pair[cmd.kind] = np.array([c % oracles.IDENTITY_PRIME for c in coeffs], dtype=np.int64)
            if len(pair) == 2:
                del self._tables[(cmd.k, n_max)]
                if not oracles.product_identity_holds(pair["unrestricted"], pair["distinct"]):
                    errors.append(f"q * p(z^2) != p up to n={n_max}")
        return errors

    # ------------------------------------------------------- ratio-table

    def _ratio_table(self, cmd, text: str) -> list:
        rows = csv_rows(text, "n,exact_log,hayman_exact_log,hayman_bd_log,closed_form_log,"
                              "hayman_exact_ratio,hayman_bd_ratio,closed_form_ratio")
        p = cmd.params
        ns = [int(r[0]) for r in rows]
        if (not ns or ns[0] != p["lo"] or ns[-1] != p["hi"] or len(ns) > p["points"] + 1
                or any(b <= a for a, b in zip(ns, ns[1:]))):
            return [f"n column {ns} is not an increasing grid from {p['lo']} to {p['hi']}"]
        errors = []
        table = oracles.table_float(cmd.kind, cmd.k, p["hi"])
        for n, row in zip(ns, rows):
            exact, h_exact, h_bd, closed, *ratios = (strict_float(v) for v in row[1:])
            want = {
                "exact_log": math.log(table[n]),
                "hayman_exact_log": oracles.hayman_log(
                    cmd.kind, cmd.k, n, oracles.exact_saddle(cmd.kind, cmd.k, n)),
                "hayman_bd_log": oracles.hayman_log(
                    cmd.kind, cmd.k, n, oracles.bd_saddle(cmd.kind, cmd.k, n)),
                "closed_form_log": oracles.closed_form_log(cmd.kind, cmd.k, n),
            }
            if cmd.kind == "unrestricted" and cmd.k == 1:
                want["exact_log"] = oracles.log_partition_number(n)
            for (name, w), got in zip(want.items(), (exact, h_exact, h_bd, closed)):
                if not close(got, w, 1e-10, 1e-8):
                    errors.append(f"n={n}: {name} {got!r}, expected {w!r}")
            for est, ratio in zip((h_exact, h_bd, closed), ratios):
                if not close(ratio, math.exp(est - exact), 1e-11):
                    errors.append(f"n={n}: ratio {ratio!r} is not exp({est!r} - {exact!r})")
        return errors

    # -------------------------------------------------------- asymptotic

    def _asymptotic(self, cmd, text: str) -> list:
        obj = self._json(cmd, text)
        kind, k, n, method = cmd.kind, cmd.k, cmd.params["n"], cmd.params["method"]
        saddle_method = method in ("exact", "bd")
        header = (obj["kind"], obj["k"], obj["n"], obj["method"], obj["formula"], obj["heuristic"])
        if header != (kind, k, n, method, FORMULA[method], kind == "distinct" and saddle_method):
            return [f"header {header}"]
        if saddle_method != (obj["s"] is not None) or saddle_method != (obj["residual"] is not None):
            return ["s and residual must be given exactly for saddle methods"]
        errors = []
        value = obj["log_value"]
        if method == "exact":
            s = obj["s"]
            gap = oracles.mean(kind, k, s) - n
            if not abs(gap) <= 1.01e-10 * n:  # the CLI's default rtol
                errors.append(f"saddle residual {gap!r} exceeds rtol * n at s={s!r}")
            if not close(obj["residual"], gap, 0.0, 1e-12 * n):
                errors.append(f"printed residual {obj['residual']!r}, direct sum gives {gap!r}")
        elif method == "bd":
            s = obj["s"]
            if not close(s, oracles.bd_saddle(kind, k, n), 1e-12) or obj["residual"] != 0.0:
                errors.append(f"closed-form saddle {s!r}, residual {obj['residual']!r}")
        want = (oracles.hayman_log(kind, k, n, s) if saddle_method
                else oracles.closed_form_log(kind, k, n))
        if not close(value, want, 1e-10, 1e-9):
            errors.append(f"log_value {value!r}, expected {want!r}")
        if kind == "unrestricted" and k == 1 and n <= SYMPY_MAX:
            # Hayman's and the closed formula's relative error is O(n^-1/2)
            # (measured: 0.15, 0.49 and 0.44 times n^-1/2)
            exact_log = oracles.log_partition_number(n)
            if not abs(value - exact_log) <= 1.0 / math.sqrt(n):
                errors.append(f"log_value {value!r} is not within n^-1/2 of ln p(n) = {exact_log!r}")
        return errors

    # ---------------------------------------------------------- diagnose

    def _diagnose(self, cmd, text: str) -> list:
        obj = self._json(cmd, text)
        kind, k, suite = cmd.kind, cmd.k, cmd.params["suite"]
        if (obj["kind"], obj["k"]) != (kind, k):
            return [f"header {obj['kind']}, {obj['k']}"]
        grid = s_grid(cmd.params["grid"])
        metrics = obj["metrics"]
        if suite == "bd" and kind == "distinct":
            verdict = obj["verdicts"].get("bd_condition", {})
            if obj["grid"] or metrics or verdict.get("pass", False) is not None:
                return ["the bd suite must report 'not applicable' for distinct parts"]
            return []
        if len(obj["grid"]) != len(grid) or not all(
                close(g, w, 1e-12) for g, w in zip(obj["grid"], grid)):
            return [f"grid {obj['grid']} is not {grid}"]
        return getattr(self, "_suite_" + suite)(cmd, grid, metrics, obj["verdicts"])

    def _suite_gauss(self, cmd, grid, metrics, verdicts) -> list:
        errors = []
        for s, *ratios in zip(grid, *(metrics[f"gaussianity_ratio_m{j}"] for j in range(3, 7))):
            var = oracles.variance(cmd.kind, cmd.k, s)
            for j, got in zip(range(3, 7), ratios):
                want = oracles.log_gf_derivative(cmd.kind, cmd.k, j, -s)[0] / var ** (j / 2.0)
                if not close(got, want, 1e-8):
                    errors.append(f"gaussianity_ratio_m{j} {got!r} at s={s!r}, expected {want!r}")
        return errors

    def _suite_strong(self, cmd, grid, metrics, verdicts) -> list:
        l1 = metrics["strong_gauss_l1"]
        errors = [f"L1 distance {v!r} is negative" for v in l1 if not v >= 0.0]
        if cmd.kind == "unrestricted" and cmd.k == 1:
            if not all(b < a for a, b in zip(l1, l1[1:])):
                errors.append(f"L1 distance {l1} does not decrease with s")
        for s, got in zip(grid, l1):
            if s >= STRONG_ORACLE_MIN_S:
                want = oracles.strong_l1(cmd.kind, cmd.k, s)
                if not close(got, want, 1e-6, 1e-5):
                    errors.append(f"L1 distance {got!r} at s={s!r}, Simpson gives {want!r}")
        return errors

    def _suite_twl(self, cmd, grid, metrics, verdicts) -> list:
        errors = []
        for i, s in enumerate(grid):
            d1, d2, violations = oracles.twl_constants(cmd.kind, cmd.k, s)
            got = (metrics["twl_d1"][i], metrics["twl_d2"][i], metrics["twl_violations"][i])
            if got[2] != 0 or not (got[0] > 0 and got[1] > 0):
                errors.append(f"twl bound fails at s={s!r}: d1, d2, violations = {got}")
            if not (close(got[0], d1, 1e-7) and close(got[1], d2, 1e-7) and got[2] == violations):
                errors.append(f"twl at s={s!r}: {got}, expected {(d1, d2, violations)}")
        return errors

    def _suite_bd(self, cmd, grid, metrics, verdicts) -> list:
        c = oracles.mean_constant("unrestricted", cmd.k)
        errors = []
        for i, s in enumerate(grid):
            approx = c * s ** (-1.0 - 1.0 / cmd.k)
            m = oracles.mean("unrestricted", cmd.k, s)
            sigma = math.sqrt(oracles.variance("unrestricted", cmd.k, s))
            gap, scaled = metrics["bd_normalized_gap"][i], metrics["bd_scaled_mean_gap"][i]
            if not close(gap, (m - approx) / sigma, 0.0, 1e-10 * approx / sigma):
                errors.append(f"bd_normalized_gap {gap!r} at s={s!r}")
            if not (0.0 <= scaled <= 1.0 and close(scaled, s * (approx - m), 0.0, 1e-10 * s * approx)):
                errors.append(f"bd_scaled_mean_gap {scaled!r} at s={s!r}")
        return errors

    def _suite_clt(self, cmd, grid, metrics, verdicts) -> list:
        draws, seed = cmd.params["draws"], cmd.params["seed"]
        verdict = verdicts["clt_ks"]
        errors = []
        if (verdict.get("draws"), verdict.get("seed")) != (draws, seed):
            errors.append(f"verdict records draws={verdict.get('draws')}, seed={verdict.get('seed')}")
        # |KS(sample) - KS(law)| <= sup |F_N - F|, which DKW bounds
        radius = oracles.dkw_radius(draws)
        for s, got in zip(grid, metrics["clt_ks"]):
            want = oracles.TablePmf(cmd.kind, cmd.k, s).ks_to_normal()
            if not abs(got - want) <= radius:
                errors.append(f"KS distance {got!r} at s={s!r}; the law's is {want!r} +- {radius:.3g}")
        return errors

    # ------------------------------------------------------------ family

    def _family(self, cmd, text: str) -> list:
        rows = [[strict_float(v) for v in r]
                for r in csv_rows(text, "s,mean,variance,theta,cf_real,cf_imag")]
        s = cmd.params["s"]
        thetas = s_grid(cmd.params["theta_grid"])
        if len(rows) != len(thetas):
            return [f"{len(rows)} rows for {len(thetas)} theta values"]
        m, v = oracles.mean(cmd.kind, cmd.k, s), oracles.variance(cmd.kind, cmd.k, s)
        pmf = oracles.TablePmf(cmd.kind, cmd.k, s)
        errors = []
        for (s_out, m_out, v_out, theta, re, im), want_theta in zip(rows, thetas):
            cf = complex(re, im)
            if not (s_out == s and close(theta, want_theta, 1e-12, 1e-15)):
                errors.append(f"row s={s_out!r}, theta={theta!r}")
            if not (close(m_out, m, 1e-10) and close(v_out, v, 1e-10)):
                errors.append(f"mean, variance {m_out!r}, {v_out!r}; direct sums {m!r}, {v!r}")
            if abs(cf) > 1.0 + 1e-12:
                errors.append(f"|cf({theta!r})| = {abs(cf)!r} > 1")
            want = pmf.char_fn(theta)
            if abs(cf - want) > 1e-8:
                errors.append(f"cf({theta!r}) = {cf!r}; from the exact table {want!r}")
        return errors


def check_round(checker: Checker, workload: str, seed: int, rnd: int, path: Path) -> dict:
    """Check one round's outputs; report failures and wrong values on stderr."""
    checker.new_round()
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    cmds = workloads.commands(workload, seed, rnd)
    failed = wrong = 0
    for cmd, rec in zip(cmds, records, strict=True):
        label = f"round {rnd}: {' '.join(cmd.argv)}"
        if rec["rc"] != 0:
            failed += 1
            print(f"failed ({rec['rc']}): {label}: {rec['err'].strip()}", file=sys.stderr)
            continue
        try:
            problems = checker.check(cmd, rec["out"])
        except Malformed as exc:
            failed += 1
            print(f"failed (invalid output): {label}: {exc}", file=sys.stderr)
            continue
        wrong += bool(problems)
        for p in problems:
            print(f"wrong: {label}: {p}", file=sys.stderr)
    return {"attempted": len(cmds), "failed": failed, "wrong": wrong}


def serve(workload: str, seed: int, out_dir: Path, schema_dir: Path) -> None:
    """Check rounds as their numbers arrive on stdin, one verdict line each."""
    import sympy  # noqa: F401  (imported before the first round, not during it)
    checker = Checker(schema_dir)
    print("ready", flush=True)
    for line in sys.stdin:
        rnd = int(line)
        path = out_dir / f"round{rnd}.jsonl"
        print(json.dumps(check_round(checker, workload, seed, rnd, path)), flush=True)
        path.unlink()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4]))
