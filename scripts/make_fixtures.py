#!/usr/bin/env python3
"""Regenerate tests/fixtures/thresholds.json from oracle runs.

Every threshold the test suite uses is measured here first and frozen with a
safety margin; the fixture records the value actually observed, the margin
applied, and a CLI command that reproduces the underlying table.  Rerun after
any change to the numerics:

    PYTHONPATH=src python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import mpmath

from powerparts.bigcount import PartitionKind, count_partitions, log_integer
from powerparts import diagnostics as dg
from powerparts import saddle as sd
from powerparts.family import fulcrum
from powerparts.special import constants, riemann_zeta

from _oracles import mp_fulcrum, mp_omega, mp_rel_err

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT

OUT = ROOT / "tests" / "fixtures" / "thresholds.json"


def geometric_pow2(lo_exp: int, hi_exp: int) -> list:
    return [2**e for e in range(lo_exp, hi_exp + 1)]


def strict_burn_in(devs: list) -> tuple:
    """Smallest index from which |dev| strictly decreases, or (None, False)."""
    for burn in range(len(devs) - 1):
        if all(b < a for a, b in zip(devs[burn:], devs[burn + 1:])):
            return burn, True
    return None, False


def main() -> None:
    fx = {"_meta": {
        "note": "thresholds measured by scripts/make_fixtures.py oracle runs; "
                "margins are explicit, values are the measured ones",
    }}

    # --- HR ratio curves (acceptance 7) and estimator coherence (acceptance 8)
    hr = {}
    coherence = {}
    for k, hi_exp in ((1, 15), (2, 16), (3, 14)):
        grid = geometric_pow2(7, hi_exp)
        t0 = time.perf_counter()
        table = count_partitions(U, k, grid[-1])
        ratios = []
        pairwise = []
        for n in grid:
            exact_log = log_integer(table.coeffs[n])
            e1 = sd.hayman_estimate(sd.exact_saddle(U, k, n)).log_value
            e2 = sd.hayman_estimate(sd.bd_saddle(k, n)).log_value
            e3 = sd.hr_closed_form(k, n).log_value
            ratios.append(math.exp(e3 - exact_log))
            pairwise.append(max(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)))
        dev = [abs(r - 1.0) for r in ratios]
        burn, strict = strict_burn_in(dev)
        if not strict:
            raise SystemExit(f"hr k={k}: no strict burn-in found, devs {dev}")
        hr[str(k)] = {
            "n_grid": grid,
            "ratio_values": ratios,
            "burn_in": burn,
            "strict": strict,
            "final_dev_measured": dev[-1],
            "final_dev_threshold": dev[-1] * 1.5,
            "oracle_command": (
                f"powerparts ratio-table --kind unrestricted --k {k} "
                f"--n-grid geometric:128:{grid[-1]}:{len(grid)}"),
            "elapsed_s": round(time.perf_counter() - t0, 2),
        }
        coherence[str(k)] = {
            "n_grid": grid,
            "pairwise_max_dlog": pairwise,
            "top_measured": pairwise[-1],
            "top_threshold": pairwise[-1] * 1.5,
        }
        print(f"hr k={k}: final ratio {ratios[-1]:.6f}, dev {dev[-1]:.3e}, "
              f"burn_in {burn}, coherence top {pairwise[-1]:.3e} "
              f"({hr[str(k)]['elapsed_s']}s)")

    fx["hr_ratio"] = hr
    fx["estimator_coherence"] = coherence

    # --- distinct-parts closed form ratio trend (module invariant)
    qk = {}
    # k=2 grid starts at 2^8: q_2(128) = 0 (128 is the largest integer that is
    # not a sum of distinct squares)
    for k, lo_exp, hi_exp in ((1, 7, 13), (2, 8, 14)):
        grid = geometric_pow2(lo_exp, hi_exp)
        table = count_partitions(D, k, grid[-1])
        ratios = []
        for n in grid:
            exact_log = log_integer(table.coeffs[n])
            ratios.append(math.exp(sd.qk_closed_form(k, n).log_value - exact_log))
        dev = [abs(r - 1.0) for r in ratios]
        burn, strict = strict_burn_in(dev)
        half = len(dev) // 2
        qk[str(k)] = {
            "n_grid": grid,
            "ratio_values": ratios,
            # distinct k=2 ratios oscillate around 1 (lattice irregularity of
            # sums of distinct squares): only the envelope decreases
            "strict": strict,
            "burn_in": burn if strict else 0,
            "envelope_first_half_max": max(dev[:half]),
            "envelope_second_half_max": max(dev[half:]),
            "final_dev_measured": dev[-1],
            "final_dev_threshold": dev[-1] * 1.5,
        }
        print(f"qk k={k}: final ratio {ratios[-1]:.6f} strict={strict} burn={burn}")
    fx["qk_ratio"] = qk

    # --- fulcrum asymptotics (acceptance 4)
    fa = {}
    grid = list(dg.DEFAULT_S_GRID) + [1e-3, 1e-4]
    for k in (1, 2):
        per_m = {}
        for m in range(4):
            vals = dg.fulcrum_asymptotic_check(U, k, m, grid)
            dev_at_target = abs(vals[-1] - 1.0)
            gaps = [abs(v - 1.0) for v in vals]
            burn, strict = strict_burn_in(gaps)
            if not strict:
                raise SystemExit(f"fulcrum asym k={k} m={m}: no strict burn-in")
            per_m[str(m)] = {
                "s_grid": grid,
                "values": vals,
                "dev_at_1e-4_measured": dev_at_target,
                "dev_at_1e-4_tol": dev_at_target * 1.5 + 1e-6,
                "burn_in": burn,
            }
            print(f"fulcrum asym k={k} m={m}: dev@1e-4 {dev_at_target:.3e} burn {burn}")
        fa[str(k)] = per_m
    fx["fulcrum_asymptotics"] = fa

    # --- second-order log P gap (acceptance 5)
    so = {}
    s_grid = [0.1, 0.05, 0.02, 0.01]
    for k in (1, 2):
        gaps = [fulcrum(U, k, complex(-s)).real - sd.second_order_logP(k, s)
                for s in s_grid]
        so[str(k)] = {
            "s_grid": s_grid,
            "gap_values": gaps,
            "abs_final_measured": abs(gaps[-1]),
            "abs_final_threshold": max(abs(gaps[-1]) * 1.5, 1e-11),
            "noise_floor": 1e-11,
            "strictly_decreasing_abs": all(
                abs(b) < abs(a) for a, b in zip(gaps, gaps[1:])),
        }
        print(f"second-order k={k}: gaps {['%.3e' % g for g in gaps]}")
    fx["second_order_gap"] = so

    # --- BD condition slopes (acceptance 9)
    bd = {}
    for k in (1, 2):
        gaps = dg.bd_condition_check(k, dg.DEFAULT_S_GRID)
        slope = dg._fit_loglog_slope(dg.DEFAULT_S_GRID[3:], gaps[3:])
        bd[str(k)] = {
            "s_grid": list(dg.DEFAULT_S_GRID),
            "burn_in": 3,
            "slope_measured": slope,
            "slope_expected": 1.0 / (2.0 * k),
            "slope_band": 0.1 if k == 1 else 0.07,
        }
        print(f"bd slope k={k}: {slope:.4f}")
    fx["bd_condition"] = bd

    # --- strong Gaussianity L1 (acceptance 10)
    sg = {}
    for k, burn in ((1, 0), (2, 1)):
        vals = [dg.strong_gauss_l1(U, k, s, quad_tol=1e-7)
                for s in dg.STRONG_GAUSS_GRID]
        sg[str(k)] = {
            "s_grid": list(dg.STRONG_GAUSS_GRID),
            "values": vals,
            "burn_in": burn,
            "final_measured": vals[-1],
            "final_threshold": vals[-1] * 1.3,
        }
        print(f"strong k={k}: {['%.4f' % v for v in vals]}")
    fx["strong_gauss"] = sg

    # --- TWL floors (acceptance 11)
    twl = {}
    for k in (1, 2):
        rows = {}
        for s in dg.TWL_S_GRID:
            scan = dg.twl_bound_scan(k, s)
            rows[str(s)] = {"d1": scan.d1, "d2": scan.d2,
                            "violations": scan.violations}
        d1s = [r["d1"] for r in rows.values()]
        d2s = [r["d2"] for r in rows.values()]
        twl[str(k)] = {
            "scans": rows,
            "d1_floor": min(d1s) * 0.5,
            "d2_floor": min(d2s) * 0.5,
            "stability_factor": 3.0,
        }
        print(f"twl k={k}: d1 {d1s} d2 {d2s}")
    fx["twl"] = twl

    # --- CLT (acceptance 12) with the acceptance seed
    seed = 20260808
    ks_02 = dg.clt_empirical_check(U, 1, 0.2, 10**5, seed)
    ks_002 = dg.clt_empirical_check(U, 1, 0.02, 10**5, seed)
    fx["clt"] = {
        "seed": seed,
        "draws": 100000,
        "ks_at_0.2": ks_02,
        "ks_at_0.02": ks_002,
        "threshold": 0.05,
        "distinct_k2_s0.02_measured": dg.clt_empirical_check(D, 2, 0.02, 10**5, seed),
    }
    print(f"clt: ks(0.2)={ks_02:.5f} ks(0.02)={ks_002:.5f} "
          f"distinct={fx['clt']['distinct_k2_s0.02_measured']:.5f}")

    # --- domination inequality margin (acceptance 13)
    dom = {}
    for k in (1, 2):
        s_vals = [0.02 * (1.0 / 0.02) ** (i / 19.0) for i in range(20)]
        theta_vals = [-3.0 + 6.0 * i / 19.0 for i in range(20)]
        worst = math.inf
        for s in s_vals:
            ref = fulcrum(U, k, complex(-s), m=3).real
            for th in theta_vals:
                val = abs(fulcrum(U, k, complex(-s, th), m=3))
                worst = min(worst, (ref - val) / ref)
        dom[str(k)] = {
            "s_range": [s_vals[0], s_vals[-1]],
            "theta_range": [theta_vals[0], theta_vals[-1]],
            "grid": 20,
            "worst_relative_margin": worst,
            "tolerance": 1e-9,
        }
        print(f"domination k={k}: worst rel margin {worst:.3e}")
    fx["domination"] = dom

    # --- hayman spot ratios (module tests)
    table500 = count_partitions(U, 1, 500)
    r500 = math.exp(sd.hayman_estimate(sd.exact_saddle(U, 1, 500)).log_value
                    - log_integer(table500.coeffs[500]))
    qtab = count_partitions(D, 1, 1000)
    rq = math.exp(sd.qk_closed_form(1, 1000).log_value - log_integer(qtab.coeffs[1000]))
    fx["spot_ratios"] = {
        "hayman_exact_k1_n500": r500,
        "qk_closed_k1_n1000": rq,
    }
    print(f"spot: hayman n=500 {r500:.6f}, qk n=1000 {rq:.6f}")

    # --- 40-digit mpmath audit (module tests): largest relative error per case
    dps, margin = 40, 2.0

    def audit_case(errors: list) -> dict:
        return {"max_rel_err_measured": max(errors),
                "threshold": margin * max(errors) + 2.0**-52}

    with mpmath.workdps(dps):
        audit = {
            "dps": dps,
            "note": "threshold = margin * measured + 2^-52, margin 2; references "
                    "from mpmath (tests/_oracles.py mp_fulcrum for the fulcrum)",
            "riemann_zeta": audit_case([
                mp_rel_err(riemann_zeta(1.0 + 1.0 / k),
                           mpmath.zeta(mpmath.mpf(1.0 + 1.0 / k))) for k in range(1, 7)]),
            "omega": audit_case([
                mp_rel_err(constants(k).omega[m], mp_omega(k, m))
                for k in range(1, 7) for m in range(9)]),
            "fulcrum_grid": {"k": [1, 2, 3], "s": [0.5, 0.1, 0.02], "m_max": 4},
        }
    grid = audit["fulcrum_grid"]
    for kind in (U, D):
        errs = [[] for _ in range(grid["m_max"] + 1)]
        for k in grid["k"]:
            for s in grid["s"]:
                for m, ref in enumerate(mp_fulcrum(kind, k, s, grid["m_max"], dps)):
                    errs[m].append(mp_rel_err(fulcrum(kind, k, -s, m=m).real, ref, dps))
        audit[f"fulcrum_{kind.value}"] = {str(m): audit_case(e) for m, e in enumerate(errs)}
    fx["mpmath_audit"] = audit
    print(f"mpmath audit: zeta {audit['riemann_zeta']['max_rel_err_measured']:.2e}, "
          f"omega {audit['omega']['max_rel_err_measured']:.2e}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(fx, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
