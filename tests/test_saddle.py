import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerparts.bigcount import PartitionKind, count_partitions, log_integer
from powerparts.family import family_point, fulcrum
from powerparts.saddle import (ConvergenceError, EstimateFormula, SaddleMethod,
                               bd_saddle, exact_saddle, hayman_estimate,
                               hr_closed_form, qk_closed_form, second_order_logP)
from powerparts.special import constants

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT


class TestBdSaddle:
    def test_k1_closed_form(self):
        r = bd_saddle(1, 100)
        assert math.isclose(r.s, math.sqrt(math.pi**2 / 6 / 100), rel_tol=1e-14)
        assert r.method is SaddleMethod.BAEZ_DUARTE and r.residual == 0.0

    def test_inverts_approximate_mean(self):
        # Omega_k / s^(1+1/k) = n holds by construction
        for k, n in ((1, 12345), (2, 10**6), (3, 999)):
            s = bd_saddle(k, n).s
            approx = constants(k).Omega * s ** (-1.0 - 1.0 / k)
            assert math.isclose(approx, n, rel_tol=1e-12)

    def test_k2_value(self):
        r = bd_saddle(2, 10**6)
        assert math.isclose(r.s, (constants(2).Omega / 10**6) ** (2.0 / 3.0),
                            rel_tol=1e-14)

    def test_distinct_uses_phi(self):
        r = bd_saddle(1, 1000, kind=D)
        assert math.isclose(r.s, (constants(1).Phi / 1000) ** 0.5, rel_tol=1e-14)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            bd_saddle(1, 0)


class TestExactSaddle:
    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k,n", [(1, 100), (1, 10**4), (2, 10**4)])
    def test_residual_contract(self, kind, k, n):
        rtol = 1e-10
        r = exact_saddle(kind, k, n, rtol=rtol)
        assert abs(family_point(kind, k, r.s).mean - n) <= rtol * n
        assert abs(r.residual) <= rtol * n
        assert r.method is SaddleMethod.EXACT_ROOT

    def test_close_to_bd(self):
        ex = exact_saddle(U, 1, 100)
        bd = bd_saddle(1, 100)
        assert 0.8 <= ex.s / bd.s <= 1.25

    def test_smallest_target(self):
        r = exact_saddle(U, 1, 1)
        assert abs(family_point(U, 1, r.s).mean - 1.0) <= 1e-10

    def test_k3_converges(self):
        r = exact_saddle(U, 3, 5000)
        assert abs(family_point(U, 3, r.s).mean - 5000.0) <= 1e-10 * 5000.0

    def test_rtol_validated(self):
        with pytest.raises(ValueError):
            exact_saddle(U, 1, 100, rtol=0.5)
        with pytest.raises(ValueError):
            exact_saddle(U, 1, 100, rtol=0.0)

    def test_stall_raises_at_once(self, axis_passes):
        # rtol * n = 1e-10 lies below the rounding of a mean of 1e6
        n = 10**6
        with pytest.raises(ConvergenceError) as info:
            exact_saddle(U, 1, n, rtol=1e-16)
        passes = len(axis_passes)
        lo, hi = info.value.bracket
        best = info.value.best
        assert 0.0 < lo <= best <= hi
        # the stall is at the root: the mean misses n by at most its change
        # over one ulp of s
        pt = family_point(U, 1, best)
        assert abs(pt.mean - n) <= pt.variance * math.ulp(best)
        assert family_point(U, 1, lo).mean > n > family_point(U, 1, hi).mean
        assert passes <= 9

    def test_k1_deep_saddle(self, axis_passes):
        # the real-axis series would need about 2e7 parts per pass here
        n = 10**12
        r = exact_saddle(U, 1, n)
        assert abs(r.residual) <= 1e-10 * n
        assert r.evaluations <= 5 and len(axis_passes) == r.evaluations

    @pytest.mark.parametrize("kind", [U, D])
    def test_evaluations_counted(self, kind, axis_passes):
        terms = 1 if kind is U else 2
        r = exact_saddle(kind, 2, 10**5)
        assert axis_passes == [[0, 1, 2]] * (terms * r.evaluations) and r.evaluations > 0
        axis_passes.clear()
        assert bd_saddle(2, 10**5, kind).evaluations == 1
        assert axis_passes == [[0, 2]] * terms

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_evaluations_bounded(self, kind, k):
        # Newton from s_bd: at most four steps from n = 10^3 on
        for e in range(3, 9 if k == 1 else 14):
            assert exact_saddle(kind, k, 10**e).evaluations <= 5, e
        for n in (1, 2, 3, 10, 100, 999):
            assert exact_saddle(kind, k, n).evaluations <= 9, n

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), k=st.integers(1, 6),
           log_n=st.floats(0.0, 13.0), log_rtol=st.floats(-13.0, -3.0))
    @example(kind=U, k=1, log_n=13.0 * 6.0 / 8.0, log_rtol=-3.0)  # accepts s_bd as it is
    @example(kind=U, k=1, log_n=13.0, log_rtol=-13.0)
    @example(kind=D, k=2, log_n=13.0, log_rtol=-13.0)
    def test_root_property(self, kind, k, log_n, log_rtol):
        n = round(10.0 ** (log_n if k > 1 else log_n * 8.0 / 13.0))
        rtol = 10.0 ** log_rtol
        r = exact_saddle(kind, k, n, rtol=rtol)
        assert abs(r.residual) <= rtol * n
        assert r.residual == family_point(kind, k, r.s).mean - n
        # the root lies within a relative 1e-6 of s, or within 4 rtol where
        # rtol allows more: over a relative step delta near the root the
        # mean moves by about (1 + 1/k) n delta, more than rtol * n
        delta = max(1e-6, 4.0 * rtol)
        assert (family_point(kind, k, r.s * (1.0 - delta)).mean > n
                > family_point(kind, k, r.s * (1.0 + delta)).mean)


class TestHaymanEstimate:
    @pytest.mark.parametrize("kind", [U, D])
    def test_one_real_axis_pass(self, axis_passes, kind):
        # the closed-form saddle sums F(-s) and the variance in one pass, and
        # the estimate reads them from the saddle
        saddle = bd_saddle(2, 1000, kind)
        assert axis_passes == [[0, 2]] * (1 if kind is U else 2)
        hayman_estimate(saddle)
        assert axis_passes == [[0, 2]] * (1 if kind is U else 2)

    def test_ratio_n500(self, thresholds):
        table = count_partitions(U, 1, 500)
        est = hayman_estimate(exact_saddle(U, 1, 500))
        ratio = math.exp(est.log_value - log_integer(table.coeffs[500]))
        assert 0.9 < ratio < 1.1
        assert math.isclose(ratio, thresholds["spot_ratios"]["hayman_exact_k1_n500"],
                            rel_tol=1e-9)

    def test_ratio_approaches_one(self):
        table = count_partitions(U, 1, 1024)
        devs = []
        for n in (128, 256, 512, 1024):
            est = hayman_estimate(exact_saddle(U, 1, n))
            devs.append(abs(math.exp(est.log_value - log_integer(table.coeffs[n])) - 1.0))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_bd_converges_to_exact(self):
        diffs = []
        for n in (128, 1024, 8192, 65536):
            e_exact = hayman_estimate(exact_saddle(U, 1, n)).log_value
            e_bd = hayman_estimate(bd_saddle(1, n)).log_value
            diffs.append(abs(e_exact - e_bd))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_formula_tags(self):
        assert (hayman_estimate(exact_saddle(U, 1, 50)).formula
                is EstimateFormula.HAYMAN)
        assert (hayman_estimate(bd_saddle(1, 50)).formula
                is EstimateFormula.HAYMAN_BD)

    def test_distinct_flagged_heuristic(self):
        est = hayman_estimate(exact_saddle(D, 1, 50))
        assert est.heuristic
        assert not hayman_estimate(exact_saddle(U, 1, 50)).heuristic

    def test_saddle_mismatch(self):
        # the estimate takes kind, k and n from its saddle, so it cannot be
        # made for one (kind, k, n) from the saddle of another
        cases = [(U, 1, 50), (U, 2, 50), (D, 1, 50), (U, 1, 51)]
        ests = [hayman_estimate(exact_saddle(*case)) for case in cases]
        assert [(e.kind, e.k, e.n) for e in ests] == cases
        assert len({e.log_value for e in ests}) == len(cases)


class TestClosedForms:
    def test_hr_k1_constants(self):
        est = hr_closed_form(1, 1000)
        alpha = 1.0 / (4.0 * math.sqrt(3.0))
        beta = math.pi * math.sqrt(2.0 / 3.0)
        expected = math.log(alpha) - 1.0 * math.log(1000) + beta * math.sqrt(1000)
        assert math.isclose(est.log_value, expected, rel_tol=1e-12)

    def test_hr_ratio_improves(self):
        table = count_partitions(U, 1, 1000)
        r100 = math.exp(hr_closed_form(1, 100).log_value
                        - log_integer(table.coeffs[100]))
        r1000 = math.exp(hr_closed_form(1, 1000).log_value
                         - log_integer(table.coeffs[1000]))
        assert 0.9 < r1000 < 1.1
        assert abs(r1000 - 1.0) < abs(r100 - 1.0)

    def test_hr_equals_bd_hayman_in_the_limit(self):
        diffs = []
        for n in (128, 1024, 8192, 65536):
            bd = hayman_estimate(bd_saddle(2, n)).log_value
            hr = hr_closed_form(2, n).log_value
            diffs.append(abs(bd - hr))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_qk_ratio_n1000(self, thresholds):
        table = count_partitions(D, 1, 1000)
        ratio = math.exp(qk_closed_form(1, 1000).log_value
                         - log_integer(table.coeffs[1000]))
        assert 0.8 < ratio < 1.2
        assert math.isclose(ratio, thresholds["spot_ratios"]["qk_closed_k1_n1000"],
                            rel_tol=1e-9)

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_qk_trend(self, thresholds, k):
        fx = thresholds["qk_ratio"][k]
        table = count_partitions(D, int(k), fx["n_grid"][-1])
        devs = []
        for n in fx["n_grid"]:
            est = qk_closed_form(int(k), n)
            devs.append(abs(math.exp(est.log_value - log_integer(table.coeffs[n])) - 1.0))
        if fx["strict"]:
            burn = fx["burn_in"]
            assert all(b < a for a, b in zip(devs[burn:], devs[burn + 1:]))
        else:
            # oscillatory ratios (distinct squares): the envelope decreases
            half = len(devs) // 2
            assert max(devs[half:]) < max(devs[:half])
        assert devs[-1] <= fx["final_dev_threshold"]

    def test_kind_tags(self):
        assert hr_closed_form(3, 10).kind is U
        assert qk_closed_form(3, 10).kind is D
        assert hr_closed_form(3, 10).formula is EstimateFormula.CLOSED_FORM_HR
        assert qk_closed_form(3, 10).formula is EstimateFormula.CLOSED_FORM_Q


class TestSecondOrderLogP:
    def test_structure(self):
        for k in (1, 2, 3):
            cs = constants(k)
            for s in (0.03, 0.4):
                residual = (second_order_logP(k, s) - cs.omega[0] * s ** (-1.0 / k)
                            - 0.5 * math.log(s))
                assert math.isclose(residual, -k * math.log(math.sqrt(2 * math.pi)),
                                    rel_tol=1e-12)

    def test_gap_decreasing_k1(self, thresholds):
        fx = thresholds["second_order_gap"]["1"]
        gaps = [abs(fulcrum(U, 1, complex(-s)).real - second_order_logP(1, s))
                for s in fx["s_grid"]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= fx["abs_final_threshold"]

    def test_gap_below_noise_floor_k2(self, thresholds):
        fx = thresholds["second_order_gap"]["2"]
        gaps = [abs(fulcrum(U, 2, complex(-s)).real - second_order_logP(2, s))
                for s in fx["s_grid"]]
        assert all(g <= fx["noise_floor"] for g in gaps)

    def test_k1_gap_is_eta_correction(self):
        # exact transformation term: gap -> -s/24
        for s in (0.1, 0.02):
            gap = fulcrum(U, 1, complex(-s)).real - second_order_logP(1, s)
            assert math.isclose(gap, -s / 24.0, rel_tol=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            second_order_logP(1, 0.0)
