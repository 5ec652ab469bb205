"""Each check must reject a perturbed answer.

    python3 -m pytest perfbench/test_checks.py

Every test takes a real output of the CLI, shows that the check accepts it,
then perturbs one value and shows that the check rejects it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

CLI = run.load_cli()


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(run.SRC / "powerparts" / "schemas")


def output(cmd: Command) -> str:
    _, rc, out, err = run.run_command(CLI.main, cmd.argv)
    assert rc == 0, err
    return out


def count_cmd(kind: str, k: int, n_max: int, fmt: str) -> Command:
    argv = ("count", "--kind", kind, "--k", str(k), "--n-max", str(n_max), "--format", fmt)
    return Command("count", argv, kind, k, {"n_max": n_max, "format": fmt})


def asymptotic_cmd(kind: str, k: int, n: int, method: str) -> Command:
    argv = ("asymptotic", "--kind", kind, "--k", str(k), "--n", str(n), "--method", method)
    return Command("asymptotic", argv, kind, k, {"n": n, "method": method})


@pytest.mark.parametrize("kind,k,fmt", [("unrestricted", 1, "csv"), ("distinct", 2, "json"),
                                        ("unrestricted", 3, "json")])
def test_count_entry_plus_one(checker, kind, k, fmt):
    cmd = count_cmd(kind, k, 300, fmt)
    text = output(cmd)
    assert checker.check(cmd, text) == []
    if fmt == "csv":
        lines = text.splitlines()
        n, c = lines[151].split(",")
        lines[151] = f"{n},{int(c) + 1}"
        bad = "\n".join(lines) + "\n"
    else:
        obj = json.loads(text)
        obj["coeffs"][150] = str(int(obj["coeffs"][150]) + 1)
        bad = json.dumps(obj)
    assert checker.check(cmd, bad)


def test_product_identity_rejects_a_changed_table():
    import oracles
    p = oracles.table_mod("unrestricted", 2, 400) % oracles.IDENTITY_PRIME
    q = oracles.table_mod("distinct", 2, 400) % oracles.IDENTITY_PRIME
    assert oracles.product_identity_holds(p, q)
    q[200] += 1
    assert not oracles.product_identity_holds(p, q)


@pytest.mark.parametrize("kind,k,n,method", [
    ("unrestricted", 1, 10**6, "exact"),
    ("distinct", 2, 10**8, "exact"),
    ("unrestricted", 3, 10**9, "bd"),
    ("unrestricted", 2, 10**5, "hr"),
    ("distinct", 1, 10**5, "qk"),
])
def test_log_estimate_plus_1e3(checker, kind, k, n, method):
    cmd = asymptotic_cmd(kind, k, n, method)
    text = output(cmd)
    assert checker.check(cmd, text) == []
    obj = json.loads(text)
    obj["log_value"] += 1e-3
    assert checker.check(cmd, json.dumps(obj))


def test_saddle_off_the_root(checker):
    cmd = asymptotic_cmd("unrestricted", 1, 10**5, "exact")
    obj = json.loads(output(cmd))
    obj["s"] *= 1.0 + 1e-6
    assert checker.check(cmd, json.dumps(obj))


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_ratio_table_log_plus_1e3(checker, column):
    cmd = workloads.exact_tables(workloads.Inputs("exact-tables", 0, 0))[-3]
    assert cmd.op == "ratio-table" and cmd.kind == "distinct" and cmd.k == 1
    text = output(cmd)
    assert checker.check(cmd, text) == []
    lines = text.splitlines()
    row = lines[2].split(",")
    row[column] = repr(float(row[column]) + 1e-3)
    lines[2] = ",".join(row)
    assert checker.check(cmd, "\n".join(lines) + "\n")


def diagnostics_commands():
    cmds = workloads.diagnostics_sweep(workloads.Inputs("diagnostics-sweep", 0, 0))
    picked = {}
    for cmd in cmds:
        key = cmd.params.get("suite", "family")
        if cmd.kind == "unrestricted" and cmd.k == 2 and key not in picked:
            picked[key] = cmd
    return [picked[key] for key in ("gauss", "strong", "twl", "bd", "clt")]


@pytest.mark.parametrize("cmd", diagnostics_commands(), ids=lambda c: c.params["suite"])
def test_diagnose_nan_and_shift(checker, cmd):
    text = output(cmd)
    assert checker.check(cmd, text) == []
    obj = json.loads(text)
    values = obj["metrics"][sorted(obj["metrics"])[0]]
    values[-1] = float("nan")
    with pytest.raises(checks.Malformed):
        checker.check(cmd, json.dumps(obj))
    obj = json.loads(text)
    values = obj["metrics"][sorted(obj["metrics"])[0]]
    values[0] = values[0] * 1.01 + 0.05
    assert checker.check(cmd, json.dumps(obj))


def test_family_nan_and_shift(checker):
    cmd = next(c for c in workloads.diagnostics_sweep(workloads.Inputs("diagnostics-sweep", 0, 0))
               if c.op == "family" and c.k == 1)
    text = output(cmd)
    assert checker.check(cmd, text) == []
    lines = text.splitlines()
    row = lines[5].split(",")

    def with_cf_real(value: str) -> str:
        return "\n".join(lines[:5] + [",".join(row[:4] + [value, row[5]])] + lines[6:]) + "\n"

    with pytest.raises(checks.Malformed):
        checker.check(cmd, with_cf_real("nan"))
    assert checker.check(cmd, with_cf_real(repr(float(row[4]) + 1e-3)))
