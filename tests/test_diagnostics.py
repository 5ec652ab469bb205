import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from powerparts.family import (char_fn_normalized, family_point, fulcrum,
                               mean, pgf_modulus_ratio, variance)

from _oracles import QuadratureFailed, depth_first_simpson

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT


class TestGaussianityRatios:
    @pytest.mark.parametrize("kind", [U, D])
    def test_one_real_axis_pass_per_s(self, axis_passes, kind):
        for s in (0.5, 0.05):
            gaussianity_ratios(kind, 2, s)
        assert axis_passes == [[2, 3, 4, 5, 6]] * 2 * (1 if kind is U else 2)

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
    @pytest.mark.parametrize("kind", [U, D])
    def test_one_real_axis_pass(self, axis_passes, kind):
        strong_gauss_l1(kind, 1, 0.3)
        assert axis_passes == [[0, 1, 2]] * (1 if kind is U else 2)

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
        cf = char_fn_normalized(family_point(U, 1, 0.2), 0.0)
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
        val, _ = _adaptive_simpson(lambda x: np.exp(-x * x / 2.0), 0.0, 40.0, 1e-10)
        assert math.isclose(val, math.sqrt(math.pi / 2.0), rel_tol=1e-9)

    def test_empty_interval(self):
        assert _adaptive_simpson(math.sin, 1.0, 1.0, 1e-8) == (0.0, 0.0)


def _strong_integrand(kind, k, s):
    """The strong suite's integrand over an array of theta, and pi*sigma."""
    pt = family_point(kind, k, s)

    def f(theta):
        cfs = char_fn_normalized(pt, theta).tolist()
        return np.array([abs(cf - math.exp(-0.5 * t * t)) for cf, t in zip(cfs, theta.tolist())])

    return f, math.pi * math.sqrt(pt.variance)


def _depth_first_strong_gauss_l1(kind, k, s, quad_tol):
    """strong_gauss_l1 from one scalar fulcrum call per node, integrated by the
    depth-first reference rule on the same seed panels."""
    m = mean(kind, k, s)
    sigma = math.sqrt(variance(kind, k, s))
    base = fulcrum(kind, k, complex(-s)).real

    def integrand(theta):
        val = fulcrum(kind, k, complex(-s, theta / sigma))
        cf = cmath.exp(complex(val.real - base, val.imag - theta * m / sigma))
        return abs(cf - math.exp(-0.5 * theta * theta))

    theta_max = math.pi * sigma
    theta_split = min(s ** (-1.0 / (2.0 * k)), theta_max)
    total = 0.0
    for lo, hi, panels in ((0.0, theta_split, 4), (theta_split, theta_max, 8)):
        edges = np.linspace(lo, hi, panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            total += depth_first_simpson(integrand, float(a), float(b), quad_tol / 48.0)[0]
    return 2.0 * total


# s = 0.503465 is where the rule accepts a panel too early (an error of about
# 1.7e-4); the last three were drawn at random from (0.02, ln 2)
IDENTITY_S = (0.503465, 0.05, 0.171893, 0.664738, 0.339307)


class TestLevelwiseSimpson:
    """One integrand call per refinement level gives the depth-first rule's
    (value, err) bit for bit, and the same failures."""

    @pytest.mark.parametrize("s", IDENTITY_S)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", [U, D])
    def test_strong_gauss_l1_identity(self, kind, k, s):
        for quad_tol in (1e-6, 1e-8):
            assert (strong_gauss_l1(kind, k, s, quad_tol=quad_tol)
                    == _depth_first_strong_gauss_l1(kind, k, s, quad_tol))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), shape=st.sampled_from(["poly", "gauss", "abs_cos", "strong"]),
           log_tol=st.floats(-12.0, -3.0))
    def test_matches_depth_first(self, data, shape, log_tol):
        lo, hi, width = -5.0, 5.0, 10.0
        if shape == "poly":
            coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
            f = lambda x: np.polyval(coeffs, x)
            lo, hi, width = -2.0, 2.0, 4.0
        elif shape == "gauss":
            f = lambda x: np.exp(-0.5 * x * x)
        elif shape == "abs_cos":  # kinks at the zeros of cos: sharp dips
            omega = data.draw(st.floats(1.0, 20.0))
            f = lambda x: np.abs(np.cos(omega * x))
        else:
            kind = data.draw(st.sampled_from([U, D]))
            k = data.draw(st.integers(1, 2))
            f, hi = _strong_integrand(kind, k, data.draw(st.floats(0.05, 0.6)))
            lo, width = 0.0, 1.0
        a = data.draw(st.floats(lo, hi))
        b = min(hi, a + data.draw(st.floats(0.0, width)))
        tol = 10.0 ** log_tol
        try:
            expected = depth_first_simpson(lambda x: float(f(np.array([x]))[0]), a, b, tol)
        except QuadratureFailed as failed:
            with pytest.raises(QuadratureError) as exc:
                _adaptive_simpson(f, a, b, tol)
            assert (exc.value.achieved, exc.value.estimate) == (failed.achieved, failed.estimate)
        else:
            assert _adaptive_simpson(f, a, b, tol) == expected


class TestStrongCallCount:
    """strong_gauss_l1 calls char_fn_normalized once per refinement level of
    each of its 12 seed panels, plus once for each panel's start."""

    @staticmethod
    def _counting(monkeypatch, inner=char_fn_normalized) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "char_fn_normalized", counted)
        return calls

    def test_sweep_strong_points(self, monkeypatch):
        # the 12 strong points of the diagnostics-sweep benchmark's round 0:
        # geometric:0.5:0.04:3 for both kinds and k = 1, 2
        calls = self._counting(monkeypatch)
        grid = [0.5 * (0.04 / 0.5) ** (i / 2) for i in range(3)]
        for kind in (U, D):
            for k in (1, 2):
                for s in grid:
                    before = len(calls)
                    strong_gauss_l1(kind, k, s)
                    assert len(calls) - before <= 12 * 26
        assert len(calls) < 1000

    def test_budget_stops_before_a_level(self, monkeypatch):
        # a stand-in too wild to converge on any panel: the panels double each
        # level, and the level that would pass 200,000 evaluations (level
        # 16) is never evaluated
        calls = self._counting(
            monkeypatch, lambda point, theta: np.exp(1e6j * theta))
        with pytest.raises(QuadratureError) as exc:
            strong_gauss_l1(U, 1, 0.2, quad_tol=1e-300)
        assert calls == [3] + [2 * 2**level for level in range(16)]
        assert 0.0 < exc.value.achieved < math.inf and exc.value.estimate > 0.0


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
            pt = family_point(U, k, s)
            at_pi = pgf_modulus_ratio(pt, math.pi)
            at_inner = pgf_modulus_ratio(pt, s / 2.0)
            at_knee = pgf_modulus_ratio(pt, 2.0 * math.pi * s)
            assert at_pi < at_inner
            assert at_knee < at_pi

    def test_small_s_where_the_ratio_underflows(self):
        s = 0.002
        assert np.min(pgf_modulus_ratio(family_point(U, 1, s), default_phi_grid(s))) == 0.0
        scan = twl_bound_scan(1, s)
        assert math.isclose(scan.d1, 0.0406, rel_tol=1e-3)
        assert math.isclose(scan.d2, 1.233, rel_tol=1e-3)
        assert scan.violations == 0

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", [U, D])
    def test_agrees_with_the_modulus_ratio(self, kind, k):
        # where |f|/f does not underflow, d1 and d2 from -log of it agree
        for s in TWL_S_GRID + (0.06, 0.02):
            scan = twl_bound_scan(k, s, kind=kind)
            grid = default_phi_grid(s)
            neg_log = -np.log(pgf_modulus_ratio(family_point(kind, k, s), grid))
            inner = grid <= 2.0 * math.pi * s
            d1 = np.min(neg_log[inner] * s ** (2.0 + 1.0 / k) / grid[inner] ** 2)
            d2 = np.min(neg_log[~inner] * s ** (1.0 / k))
            assert math.isclose(scan.d1, d1, rel_tol=1e-13)
            assert math.isclose(scan.d2, d2, rel_tol=1e-13)

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
