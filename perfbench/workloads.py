"""The command lists of the three workloads.

Round 0 of every run uses the nominal inputs below.  Each later round draws
fresh inputs of the same size from the workload seed: integer sizes move by
up to JITTER_N and grid end points by up to JITTER_S, relative.  A repeated
round therefore never repeats an argument, so no cache inside the program
turns it into a hit that a one-command user would not get, while its work
stays within a few percent of round 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-tables", "deep-saddle", "diagnostics-sweep")
KINDS = ("unrestricted", "distinct")
JITTER_N = 0.02
JITTER_S = 0.01


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus the parameters its output is checked against."""

    op: str
    argv: tuple
    kind: str
    k: int
    params: dict


class Inputs:
    """Nominal values in round 0, jittered ones drawn from (workload, seed, round) later."""

    def __init__(self, workload: str, seed: int, rnd: int):
        self.rng = random.Random(f"{workload}/{seed}/{rnd}") if rnd else None
        self.clt_seed = self.rng.randrange(2**31) if rnd else 0

    def n(self, value: int) -> int:
        if self.rng is None:
            return value
        return max(1, round(value * (1.0 + self.rng.uniform(-JITTER_N, JITTER_N))))

    def s(self, value: float) -> float:
        if self.rng is None:
            return value
        return float(format(value * (1.0 + self.rng.uniform(-JITTER_S, JITTER_S)), ".6g"))


def _common(op: str, kind: str, k: int) -> list:
    return [op, "--kind", kind, "--k", str(k)]


JSON_MAX = 512  # schema validation of a JSON table costs far more than the table


def exact_tables(inp: Inputs) -> list:
    """Knapsack tables over a sqrt(2) ladder of n_max (k=1 to 2^10.5, k=2 to
    2^13, k=3 to 2^14), a few log-recurrence tables, and ratio tables.
    Every other table up to JSON_MAX is asked for as JSON."""
    cmds = []
    for k, top in ((1, 21), (2, 26), (3, 28)):
        for i, e in enumerate(range(10, top + 1)):
            nominal = round(2 ** (e / 2))
            n_max = inp.n(nominal)
            fmt = "json" if i % 2 and nominal <= JSON_MAX else "csv"
            for kind in KINDS:
                argv = _common("count", kind, k) + ["--n-max", str(n_max), "--format", fmt]
                cmds.append(Command("count", tuple(argv), kind, k,
                                    {"n_max": n_max, "format": fmt}))
    for kind in KINDS:
        for k in (1, 2, 3):
            for nominal in (128, 512):
                n_max = inp.n(nominal)
                argv = _common("count", kind, k) + ["--n-max", str(n_max),
                                                    "--method", "recurrence"]
                cmds.append(Command("count", tuple(argv), kind, k,
                                    {"n_max": n_max, "format": "csv"}))
    # the distinct k=2 grid starts above 128, the last n with q_2(n) = 0
    for k, lo, hi, points in ((1, 128, 1024, 4), (2, 256, 8192, 6)):
        top = inp.n(hi)
        for kind in KINDS:
            argv = _common("ratio-table", kind, k) + ["--n-grid", f"geometric:{lo}:{top}:{points}"]
            cmds.append(Command("ratio-table", tuple(argv), kind, k,
                                {"lo": lo, "hi": top, "points": points}))
    return cmds


SADDLE_LADDER = {
    1: [10**2, 10**3, 10**4, 10**5, 3 * 10**5, 10**6],
    2: [10**1, 10**3, 10**5, 10**7, 10**9, 10**10],
    3: [10**1, 10**3, 10**5, 10**8, 10**11, 10**13],
}


def deep_saddle(inp: Inputs) -> list:
    """Every estimator over an n ladder, both kinds, k = 1..3."""
    cmds = []
    for k, ladder in SADDLE_LADDER.items():
        for nominal in ladder:
            n = inp.n(nominal)
            for kind in KINDS:
                closed = "hr" if kind == "unrestricted" else "qk"
                for method in ("exact", "bd", closed):
                    argv = _common("asymptotic", kind, k) + ["--n", str(n), "--method", method]
                    cmds.append(Command("asymptotic", tuple(argv), kind, k,
                                        {"n": n, "method": method}))
    return cmds


# suite -> s values: a grid (first, last, points) or single points, each
# command at most a few tenths of a second; every ladder ends below the
# suite's default grid
DIAG_GRIDS = {
    "gauss": [(0.5, 0.001, 10)],
    "bd": [(0.5, 0.001, 10)],
    "strong": [(0.5, 0.04, 3)],
    "twl": [(s, s, 1) for s in (0.3, 0.06, 0.02)],
    "clt": [(s, s, 1) for s in (0.2, 0.05, 0.018)],
}
CLT_DRAWS = 10_000
FAMILY_S = (0.3, 0.02, 16)       # geometric s ladder of the family rows
FAMILY_THETA = "0:5:21"
# Inputs on which the program fails every time: a twl s in [0.5, ln 2) and a
# gauss grid shorter than burn-in + 2.
FAILING = (("twl", "0.6:0.6:1"), ("gauss", "0.1:0.1:1"))


def diagnostics_sweep(inp: Inputs) -> list:
    """Every diagnostics suite on s-grids reaching below the defaults, and
    characteristic-function rows over an s ladder."""
    cmds = []
    for kind in KINDS:
        for k in (1, 2):
            for suite, grids in DIAG_GRIDS.items():
                for a, b, points in grids:
                    a = inp.s(a)
                    b = a if points == 1 else inp.s(b)
                    argv = _common("diagnose", kind, k) + ["--suite", suite, "--s-grid",
                                                           f"geometric:{a!r}:{b!r}:{points}"]
                    params = {"suite": suite, "grid": (a, b, points)}
                    if suite == "clt":
                        argv += ["--draws", str(CLT_DRAWS), "--seed", str(inp.clt_seed)]
                        params.update(draws=CLT_DRAWS, seed=inp.clt_seed)
                    cmds.append(Command("diagnose", tuple(argv), kind, k, params))
            a, b, points = FAMILY_S
            ratio = (b / a) ** (1.0 / (points - 1))
            for i in range(points):
                s = inp.s(float(format(a * ratio**i, ".6g")))
                argv = _common("family", kind, k) + ["--s", repr(s), "--theta-grid", FAMILY_THETA]
                cmds.append(Command("family", tuple(argv), kind, k,
                                    {"s": s, "theta_grid": FAMILY_THETA}))
    for suite, grid in FAILING:
        argv = _common("diagnose", "unrestricted", 1) + ["--suite", suite, "--s-grid", grid]
        cmds.append(Command("diagnose", tuple(argv), "unrestricted", 1,
                            {"suite": suite, "grid": grid}))
    return cmds


BUILDERS = {
    "exact-tables": exact_tables,
    "deep-saddle": deep_saddle,
    "diagnostics-sweep": diagnostics_sweep,
}


def commands(workload: str, seed: int, rnd: int) -> list:
    return BUILDERS[workload](Inputs(workload, seed, rnd))
