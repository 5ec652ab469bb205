import math

import numpy as np
import pytest

from powerparts import diagnostics
from powerparts.bigcount import PartitionKind
from powerparts.diagnostics import (CLT_S_GRID, DEFAULT_S_GRID,
                                    STRONG_GAUSS_GRID, TWL_S_GRID,
                                    DiagnosticsReport, QuadratureError,
                                    _adaptive_simpson, _fit_loglog_slope,
                                    bd_condition_check, bd_scaled_mean_gap,
                                    clt_empirical_check, default_phi_grid,
                                    euler_maclaurin_identity_check,
                                    fulcrum_asymptotic_check,
                                    gaussianity_ratios, run_all, run_suite,
                                    strong_gauss_l1, twl_bound_scan)
from powerparts.family import char_fn_normalized, pgf_modulus_ratio

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT


class TestGaussianityRatios:
    def test_slope_k1(self):
        seq = [gaussianity_ratios(U, 1, s, m_max=3)[0] for s in DEFAULT_S_GRID]
        slope = _fit_loglog_slope(DEFAULT_S_GRID[3:], seq[3:])
        assert abs(slope - 0.5) < 0.05

    def test_slope_distinct_k2(self):
        seq = [gaussianity_ratios(D, 2, s, m_max=3)[0] for s in DEFAULT_S_GRID]
        slope = _fit_loglog_slope(DEFAULT_S_GRID[3:], seq[3:])
        assert abs(slope - 0.25) < 0.05

    def test_positive_and_decreasing(self):
        seq = [gaussianity_ratios(U, 1, s, m_max=3)[0] for s in DEFAULT_S_GRID]
        assert all(v > 0 for v in seq)
        assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_all_orders_returned(self):
        vals = gaussianity_ratios(U, 2, 0.1, m_max=6)
        assert len(vals) == 4

    def test_m_max_validated(self):
        with pytest.raises(ValueError):
            gaussianity_ratios(U, 1, 0.1, m_max=2)


class TestFulcrumAsymptoticCheck:
    @pytest.mark.parametrize("k", ["1", "2"])
    @pytest.mark.parametrize("m", ["0", "1", "2", "3"])
    def test_fixture_tolerances(self, thresholds, k, m):
        fx = thresholds["fulcrum_asymptotics"][k][m]
        vals = fulcrum_asymptotic_check(U, int(k), int(m), fx["s_grid"])
        assert abs(vals[-1] - 1.0) <= fx["dev_at_1e-4_tol"]
        gaps = [abs(v - 1.0) for v in vals]
        burn = fx["burn_in"]
        assert all(b < a for a, b in zip(gaps[burn:], gaps[burn + 1:]))

    def test_distinct_scaling(self):
        vals = fulcrum_asymptotic_check(D, 2, 1, [1e-3, 1e-4])
        assert abs(vals[-1] - 1.0) < 1e-6  # 1/s corrections cancel in F(s)-2F(2s)

    def test_distinct_scaling_fulcrum_itself(self):
        for k in (1, 2):
            vals = fulcrum_asymptotic_check(D, k, 0, [1e-3, 1e-4])
            assert abs(vals[-1] - 1.0) < 0.05
            assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fulcrum_asymptotic_check(U, 1, -1, [0.1])


class TestStrongGaussL1:
    def test_k1_strictly_decreasing(self, thresholds):
        fx = thresholds["strong_gauss"]["1"]
        vals = [strong_gauss_l1(U, 1, s) for s in fx["s_grid"]]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= fx["final_threshold"]

    def test_k2_tail_comparison(self, thresholds):
        fx = thresholds["strong_gauss"]["2"]
        v_02 = strong_gauss_l1(U, 2, 0.2)
        v_005 = strong_gauss_l1(U, 2, 0.05)
        assert v_005 < v_02
        assert v_005 <= fx["final_threshold"]

    def test_integrand_zero_at_origin(self):
        cf = char_fn_normalized(U, 1, 0.2, 0.0)
        assert abs(cf - 1.0) == 0.0

    def test_split_invariance(self):
        quad_tol = 1e-6
        base = strong_gauss_l1(U, 1, 0.1, quad_tol=quad_tol, split_c=1.0)
        for c in (0.5, 2.0):
            other = strong_gauss_l1(U, 1, 0.1, quad_tol=quad_tol, split_c=c)
            assert abs(other - base) < quad_tol * 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            strong_gauss_l1(U, 1, -0.1)
        with pytest.raises(ValueError):
            strong_gauss_l1(U, 1, 0.1, quad_tol=0.0)

    def test_quadrature_failure_raises(self):
        with pytest.raises(QuadratureError) as exc:
            strong_gauss_l1(U, 1, 0.2, quad_tol=1e-300)
        assert exc.value.estimate > 0.0


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        val, err = _adaptive_simpson(lambda x: x**3, 0.0, 2.0, 1e-12)
        assert math.isclose(val, 4.0, rel_tol=1e-12)

    def test_gaussian_integral(self):
        val, _ = _adaptive_simpson(lambda x: math.exp(-x * x / 2.0), 0.0, 40.0, 1e-10)
        assert math.isclose(val, math.sqrt(math.pi / 2.0), rel_tol=1e-9)

    def test_empty_interval(self):
        assert _adaptive_simpson(math.sin, 1.0, 1.0, 1e-8) == (0.0, 0.0)


class TestTwlScan:
    @pytest.mark.parametrize("k", ["1", "2"])
    def test_fixture_floors(self, thresholds, k):
        fx = thresholds["twl"][k]
        d1s, d2s = [], []
        for s in TWL_S_GRID:
            scan = twl_bound_scan(int(k), s)
            assert scan.d1 > fx["d1_floor"]
            assert scan.d2 > fx["d2_floor"]
            assert scan.violations == 0
            d1s.append(scan.d1)
            d2s.append(scan.d2)
        factor = fx["stability_factor"]
        assert max(d1s) / min(d1s) < factor
        assert max(d2s) / min(d2s) < factor

    @pytest.mark.parametrize("k", [1, 2])
    def test_outer_decay_beats_inner_regime_start(self, k):
        # the modulus ratio at pi sits far below the early inner regime but
        # ABOVE the knee value: the dip bottoms out near 2*pi*s and partially
        # recovers toward pi (even-index factors stop decaying there)
        for s in (0.3, 0.1, 0.03):
            at_pi = pgf_modulus_ratio(U, k, s, math.pi)
            at_inner = pgf_modulus_ratio(U, k, s, s / 2.0)
            at_knee = pgf_modulus_ratio(U, k, s, 2.0 * math.pi * s)
            assert at_pi < at_inner
            assert at_knee < at_pi

    def test_distinct_is_exploratory(self):
        scan = twl_bound_scan(2, 0.1, kind=D)
        assert not scan.normative
        assert twl_bound_scan(2, 0.1).normative

    def test_domain(self):
        with pytest.raises(ValueError):
            twl_bound_scan(1, 0.8)  # >= ln 2
        with pytest.raises(ValueError):
            twl_bound_scan(1, 0.1, phi_grid=[0.2, 0.1])

    def test_default_grid_covers_both_regimes(self):
        s = 0.1
        g = default_phi_grid(s)
        assert g[0] < 2.0 * math.pi * s < g[-1] <= math.pi + 1e-12


class TestBdCondition:
    @pytest.mark.parametrize("k", ["1", "2"])
    def test_slope(self, thresholds, k):
        fx = thresholds["bd_condition"][k]
        gaps = bd_condition_check(int(k), fx["s_grid"])
        burn = fx["burn_in"]
        slope = _fit_loglog_slope(fx["s_grid"][burn:], gaps[burn:])
        assert abs(slope - fx["slope_expected"]) < fx["slope_band"]

    def test_goes_to_zero_from_below(self):
        gaps = bd_condition_check(1, DEFAULT_S_GRID)
        assert all(g < 0 for g in gaps)
        assert all(abs(b) < abs(a) for a, b in zip(gaps[1:], gaps[2:]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_scaled_gap_in_unit_interval(self, k):
        for g in bd_scaled_mean_gap(k, DEFAULT_S_GRID):
            assert 0.0 <= g <= 1.0


class TestEulerMaclaurinIdentity:
    def test_identity(self):
        lhs, rhs = euler_maclaurin_identity_check(1e-10)
        assert abs(lhs - rhs) <= 1e-8
        assert math.isclose(rhs, 1.0 - math.log(math.sqrt(2.0 * math.pi)),
                            rel_tol=1e-15)

    def test_bernoulli_endpoints(self):
        b2 = lambda t: t * t - t + 1.0 / 6.0
        assert b2(0.0) == b2(1.0) == 1.0 / 6.0

    def test_interval_closed_form_vs_quadrature(self):
        # per-interval closed form against direct numeric integration on [1, 2]
        m = 1
        closed = 0.5 * (1.0 - 3.0 * math.log1p(1.0)
                        + (m * m + m + 1.0 / 6.0) / (m * (m + 1.0)))
        b2 = lambda t: t * t - t + 1.0 / 6.0
        val, _ = _adaptive_simpson(lambda x: b2(x - 1.0) / (2.0 * x * x),
                                   1.0, 2.0, 1e-12)
        assert math.isclose(closed, val, rel_tol=1e-10)

    def test_interval_term_bound(self):
        # |integral over [m, m+1]| <= 1/(12 m^4)
        for m in (1, 5, 20, 100):
            closed = 0.5 * (1.0 - (2 * m + 1) * math.log1p(1.0 / m)
                            + (m * m + m + 1.0 / 6.0) / (m * (m + 1.0)))
            assert abs(closed) <= 1.0 / (12.0 * m**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_maclaurin_identity_check(0.0)


class TestCltEmpirical:
    def test_k1_fixture_seed(self, thresholds):
        fx = thresholds["clt"]
        ks = clt_empirical_check(U, 1, 0.02, fx["draws"], fx["seed"])
        assert ks < fx["threshold"]
        ks_coarse = clt_empirical_check(U, 1, 0.2, fx["draws"], fx["seed"])
        assert ks < ks_coarse

    def test_deterministic(self):
        a = clt_empirical_check(U, 1, 0.1, 10**4, 5)
        b = clt_empirical_check(U, 1, 0.1, 10**4, 5)
        assert a == b

    def test_degenerate_large_s(self):
        # almost point mass at 0: KS ~ 1/2 against a centered normal
        ks = clt_empirical_check(U, 1, 8.0, 10**4, 1)
        assert ks > 0.4

    def test_distinct_k2_matches_oracle_value(self, thresholds):
        # exact-lattice oracle value ~0.103; the spec sketch expected <0.05,
        # which the oracle contradicts (see decisions ledger)
        fx = thresholds["clt"]
        ks = clt_empirical_check(D, 2, 0.02, 10**5, fx["seed"])
        assert 0.08 < ks < 0.13
        assert abs(ks - fx["distinct_k2_s0.02_measured"]) < 5e-3

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            clt_empirical_check(U, 1, 0.1, 9999, 0)


class TestSuites:
    def test_gauss_report_shape(self):
        rep = run_suite(U, 1, "gauss")
        assert isinstance(rep, DiagnosticsReport)
        assert set(rep.metrics) == {f"gaussianity_ratio_m{j}" for j in range(3, 7)}
        for seq in rep.metrics.values():
            assert len(seq) == len(rep.grid)
        assert all(v["pass"] for v in rep.verdicts.values())

    def test_strong_k1_passes(self):
        rep = run_suite(U, 1, "strong")
        assert rep.verdicts["strong_gauss_l1"]["pass"]

    def test_strong_k2_burn_in(self):
        rep0 = run_suite(U, 2, "strong")
        assert not rep0.verdicts["strong_gauss_l1"]["pass"]  # honest default
        rep1 = run_suite(U, 2, "strong", burn_in=1)
        assert rep1.verdicts["strong_gauss_l1"]["pass"]
        assert rep1.verdicts["strong_gauss_l1"]["burn_in"] == 1

    def test_em_suite(self):
        rep = run_suite(U, 1, "em")
        assert rep.grid == ()
        assert rep.verdicts["euler_maclaurin_identity"]["pass"]

    def test_bd_suite_distinct_not_applicable(self):
        rep = run_suite(D, 1, "bd")
        assert rep.verdicts["bd_condition"]["pass"] is None

    def test_twl_suite(self):
        rep = run_suite(U, 1, "twl")
        assert rep.verdicts["twl_bound"]["pass"]
        assert rep.verdicts["twl_bound"]["normative"]

    def test_clt_suite_deterministic(self):
        a = run_suite(U, 1, "clt", draws=10**4, seed=11, s_grid=[0.2, 0.05])
        b = run_suite(U, 1, "clt", draws=10**4, seed=11, s_grid=[0.2, 0.05])
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("suite, grid, burn_in, verdict", [
        ("gauss", DEFAULT_S_GRID, 2, "gaussianity_ratio_m3"),
        ("bd", DEFAULT_S_GRID, 3, "bd_normalized_gap"),
        ("strong", STRONG_GAUSS_GRID, 0, "strong_gauss_l1"),
        ("clt", CLT_S_GRID, 0, "clt_ks"),
    ])
    def test_defaults_reach_report(self, monkeypatch, suite, grid, burn_in, verdict):
        # the layers are looked up by module attribute at call time, so these
        # stand-ins replace them; each metric then equals the grid itself
        fakes = {
            "gaussianity_ratios": lambda kind, k, s, m_max, eps: [s] * 4,
            "bd_condition_check": lambda k, grid, eps: list(grid),
            "bd_scaled_mean_gap": lambda k, grid, eps: [0.5] * len(grid),
            "strong_gauss_l1": lambda kind, k, s, quad_tol, eps: s,
            "clt_empirical_check": lambda kind, k, s, draws, seed, eps: s,
        }
        for name, fake in fakes.items():
            monkeypatch.setattr(diagnostics, name, fake)
        rep = run_suite(U, 1, suite)
        assert rep.grid == grid and rep.metrics[verdict] == grid
        assert rep.verdicts[verdict]["burn_in"] == burn_in
        rep = run_suite(U, 1, suite, s_grid=[0.3, 0.2, 0.1], burn_in=1)
        assert rep.grid == (0.3, 0.2, 0.1)
        assert rep.verdicts[verdict]["burn_in"] == 1

    @pytest.mark.parametrize("kind, suite", [(U, "em"), (D, "bd")])
    def test_no_metrics_no_grid(self, kind, suite):
        rep = run_suite(kind, 1, suite, s_grid=[0.2, 0.1])
        assert rep.grid == () and rep.metrics == {}

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(U, 1, "nope")

    def test_run_all_keys(self):
        reps = run_all(U, 1, draws=10**4, seed=2)
        assert set(reps) == {"gauss", "strong", "twl", "bd", "em", "clt"}

    def test_report_alignment_enforced(self):
        with pytest.raises(ValueError):
            DiagnosticsReport(kind=U, k=1, grid=(0.1, 0.2),
                              metrics={"x": (1.0,)}, verdicts={})
