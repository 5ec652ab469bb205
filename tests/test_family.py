import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerparts import family
from powerparts.bigcount import PartitionKind, count_partitions
from powerparts.family import (SAMPLE_TAIL_EPS, SERIES_CAP, FamilyPoint,
                               TruncationError, _axis, _axis_series,
                               _derivatives, _eta_axis, _eta_line_row,
                               _eta_log_bound, _fulcrum_at, _h_deriv_poly,
                               _mean_bound, _row_sums, _series_terms,
                               char_fn_normalized, family_point, fulcrum,
                               pgf_modulus_ratio, pmf, sample)

from _oracles import (char_fn_from_table, dense_sample, mp_err_mod_2pi_i,
                      mp_eta_fulcrum, mp_fulcrum, mp_qp_fulcrum, mp_rel_err)

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT


class TestFulcrum:
    def test_matches_direct_product_k1(self):
        direct = -math.fsum(math.log(1.0 - math.exp(-j)) for j in range(1, 61))
        assert math.isclose(fulcrum(U, 1, -1.0).real, direct, rel_tol=1e-12)

    def test_distinct_matches_direct_product(self):
        direct = math.fsum(math.log(1.0 + math.exp(-j)) for j in range(1, 61))
        assert math.isclose(fulcrum(D, 1, -1.0).real, direct, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_real_axis_is_real(self, k, s):
        assert fulcrum(U, k, complex(-s)).imag == 0.0

    def test_reflection(self):
        z = complex(-0.3, 0.7)
        for kind in (U, D):
            assert fulcrum(kind, 2, z.conjugate()) == fulcrum(kind, 2, z).conjugate()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fulcrum(U, 1, 0.5)
        with pytest.raises(ValueError):
            fulcrum(U, 1, complex(0.0, 1.0))

    def test_truncation_failure_reports_bound(self):
        with pytest.raises(TruncationError) as exc:
            fulcrum(U, 1, complex(-1e-9, 1e-3), eps=1e-12)
        assert exc.value.achieved > exc.value.requested
        assert exc.value.terms >= 10**8

    @pytest.mark.parametrize("m, s", [(0, 1e-7), (2, 3e-7), (0, 1e-300)])
    def test_seed_past_the_cap_stops_at_the_cap(self, m, s):
        # arithmetic only: a closed-form seed past SERIES_CAP (4.4e8 terms at
        # s = 1e-7, 1.4e8 at 3e-7, inf at 1e-300) is certified at the cap
        with pytest.raises(TruncationError) as exc:
            _series_terms(1, s, 1e-12, m)
        assert exc.value.terms == SERIES_CAP

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("s, m", [(0.02, 0), (0.02, 3), (0.002, 0)])
    def test_batch_equals_single_points(self, kind, s, m):
        # 60 points off the real axis span several blocks; at k = 1 and m = 0
        # each point's series at s = 0.02 has its own length (the eta row),
        # and at s = 0.002 the eta row's points mix with the direct series'
        zs = [complex(-s, t) for t in np.linspace(-3.0, 3.0, 60)]
        assert all(z.imag != 0.0 for z in zs)
        batch = _fulcrum_at(kind, 1, (m,), zs, 1e-12)[0]
        assert batch == [fulcrum(kind, 1, z, m=m) for z in zs]

    def test_order_range(self):
        fulcrum(U, 1, complex(-0.5, 1.0), m=8)
        with pytest.raises(ValueError):
            fulcrum(U, 1, complex(-0.5, 1.0), m=9)
        with pytest.raises(ValueError):
            fulcrum(U, 1, complex(-0.5, 1.0), m=-1)

    def test_tail_certificate_is_a_bound(self):
        # the certified truncation really bounds what a longer sum adds
        for k, s in ((1, 0.05), (2, 0.2)):
            tr = _series_terms(k, s, 1e-8)
            extra = math.fsum(
                -math.log(-math.expm1(-float(j) ** k * s))
                for j in range(tr.terms + 1, tr.terms + 5001))
            assert extra <= tr.tail_bound <= 1e-8

    def test_looser_eps_stays_within_its_bound(self):
        tight = fulcrum(U, 1, complex(-0.1), eps=1e-13).real
        loose = fulcrum(U, 1, complex(-0.1), eps=1e-6).real
        assert abs(tight - loose) <= 1e-6


class TestRealAxisPass:
    """One real-axis pass sums every order asked of it, each bit for bit the
    value of a pass for that order alone."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), k=st.integers(1, 4),
           log_s=st.floats(-3.0, math.log10(5.0)),
           ms=st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True),
           eps=st.sampled_from([1e-12, 1e-8]))
    @example(kind=U, k=1, log_s=-3.0, ms=[8, 0, 2, 1], eps=1e-12)
    @example(kind=D, k=1, log_s=-3.0, ms=[2, 0, 5], eps=1e-8)
    def test_orders_together_equal_orders_alone(self, kind, k, log_s, ms, eps):
        s = 10.0**log_s
        assert _derivatives(kind, k, s, ms, eps) == [fulcrum(kind, k, -s, eps, m).real
                                                     for m in ms]

    def test_long_pass(self):
        # every order needs more than 4096 parts at s = 1e-3, k = 1
        s, orders = 1e-3, [(m, 1e-12) for m in range(9)]
        assert min(_series_terms(1, s, eps, m).terms for m, eps in orders) > 4096
        assert _axis(1, s, orders) == [_axis(1, s, [o])[0] for o in orders]

    def test_long_series_pass(self):
        # the same at s = 1e-3 through the series, which k = 1 leaves to the
        # closed form there
        s, orders = 1e-3, [(m, 1e-12) for m in range(9)]
        assert (_axis_series(1, s, orders)
                == [_axis_series(1, s, [o])[0] for o in orders])

    @pytest.mark.parametrize("kind", [U, D])
    def test_family_point_is_one_pass(self, axis_passes, kind):
        family_point(kind, 2, 0.1)
        assert axis_passes == [[0, 1, 2]] * (1 if kind is U else 2)

    def test_char_fn_pgf_and_pmf_make_none(self, axis_passes, tables_2000):
        pt = family_point(U, 1, 0.3)
        axis_passes.clear()
        char_fn_normalized(pt, np.linspace(0.0, 3.0, 7))
        char_fn_normalized(pt, 0.0)
        pgf_modulus_ratio(pt, [0.0, 0.5])
        for n in range(50):
            pmf(pt, n, tables_2000[(U, 1)])
        assert axis_passes == []


def _eta_edge(m: int, eps: float) -> tuple:
    """(lo, hi) about the largest s whose order-m eta bound is within eps:
    lo takes the closed form, hi the series."""
    lo, hi = 1e-3, 2.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if _eta_log_bound(mid, m) <= math.log(eps):
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestEtaRegime:
    """At k = 1 the real axis takes each order from the eta transformation
    whenever the Cauchy bound on the dropped F(-4 pi^2/s) is within eps."""

    def test_regime_edges(self):
        # eps = 1e-12: orders 0..2 up to s ~ 0.88, all of 0..8 up to 0.54
        edges = [_eta_edge(m, 1e-12)[0] for m in range(9)]
        assert edges == sorted(edges, reverse=True)
        assert 0.87 < edges[2] < 0.89 and 0.5 < edges[8] < 0.55

    @pytest.mark.parametrize("kind", [U, D])
    def test_closed_form_matches_series(self, kind):
        # the series' certified tail is at most eps; past that the two
        # agree to a few ulps of the largest term
        eps = 1e-12
        for m in range(9):
            # the distinct kind's F(-2s) takes eps/2^(m+1) and so sets its edge
            edge = (_eta_edge(m, eps)[0] if kind is U
                    else _eta_edge(m, eps / 2**(m + 1))[0] / 2.0)
            for s in np.geomspace(1e-4, edge, 5).tolist():
                closed = _derivatives(kind, 1, s, (m,), eps)[0]
                if kind is U:
                    series, scale = _axis_series(1, s, [(m, eps)])[0], 0.0
                else:
                    a = _axis_series(1, s, [(m, eps / 2)])[0]
                    b = 2**m * _axis_series(1, 2.0 * s, [(m, eps / 2**(m + 1))])[0]
                    series, scale = a - b, a
                ulp = math.ulp(max(abs(series), abs(scale)))
                assert abs(closed - series) <= eps + 4.0 * ulp, (m, s)

    @pytest.mark.parametrize("m", range(9))
    def test_hands_over_to_the_series_at_the_edge(self, m):
        lo, hi = _eta_edge(m, 1e-12)
        assert _axis(1, lo, [(m, 1e-12)]) == [_eta_axis(lo, m)]
        assert _axis(1, hi, [(m, 1e-12)]) == _axis_series(1, hi, [(m, 1e-12)])

    @pytest.mark.parametrize("s", [0.01, 0.3, 0.7])
    def test_qp_40_digits(self, s):
        # -log (q; q)_inf with q = e^(-s) is F(-s); mpmath's q-Pochhammer
        # symbol is a reference independent of both regimes
        with mpmath.workdps(40):
            def phi(x):
                q = mpmath.exp(-x)
                return -mpmath.log(mpmath.qp(q, q))
            x = mpmath.mpf(s)
            refs = [phi(x), -mpmath.diff(phi, x, 1), mpmath.diff(phi, x, 2)]
            for m, ref in enumerate(refs):
                got = fulcrum(U, 1, -s, m=m).real
                assert abs((got - ref) / ref) <= 1e-15, m

    def test_not_finite_raises(self):
        # the variance, 2 (pi^2/6) s^-3, is past float64 at s = 1e-103
        with pytest.raises(OverflowError):
            family_point(U, 1, 1e-103)
        with pytest.raises(OverflowError):
            _eta_axis(1e-300, 8)
        assert math.isfinite(family_point(U, 1, 3e-103).variance)


class TestEtaLine:
    """At k = 1 a point off the real axis takes its value from the eta
    transformation at w = -4 pi^2/tau when (a) the series at w is shorter
    and (b) the rounding of w costs at most eps/2; otherwise the direct
    series."""

    def test_qp_30_digits(self, monkeypatch):
        # Worst error over the audit points of both kinds, against mpmath's
        # q-Pochhammer symbol: 2.7e-12 for the direct series (F at s = 1e-3,
        # phi = pi, where the row refuses the point) and no more with the
        # row.  The row spends up to eps/2 on the rounding of w: at s = 0.02
        # its points are off by up to 8.7e-13 where the direct series is off
        # by 3.5e-14.  At s = 1e-3, phi = pi the distinct kind's two direct
        # errors cancel to 4.7e-13; with F(2z) from the row, G is off by F's
        # own 2.7e-12.
        rng = np.random.default_rng(16)
        phis = [math.pi, 2.0 * math.pi / 3.0, math.pi / 2.0,
                *rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)]
        zs = [complex(-s, phi) for s in (1e-3, 0.02, 0.3) for phi in phis]
        f = [mp_qp_fulcrum(z) for z in zs]
        refs = {U: f, D: [a - mp_qp_fulcrum(2 * z) for a, z in zip(f, zs)]}

        def errors():
            return {kind: [mp_err_mod_2pi_i(fulcrum(kind, 1, z), ref)
                           for z, ref in zip(zs, refs[kind])] for kind in (U, D)}

        errs = errors()
        monkeypatch.setitem(family._ETA_ROWS, False, lambda *args: None)
        direct = errors()
        assert errs[U] != direct[U] and errs[D] != direct[D]  # the row takes some points
        assert max(errs[U] + errs[D]) <= max(direct[U] + direct[D]) < 4e-12

    @pytest.mark.parametrize("s, phi, refused_by", [
        (1e-3, math.pi, "b"),     # the cusp: w = -4 pi i + 0.004
        (0.005, 2.0, "b"),
        (5.0, 1.0, "a"),          # both series take 8 terms
        (6.0, 3.0, "a"),          # Re(-w) < s: the series at w is longer
    ])
    def test_refused_point_is_the_direct_series(self, s, phi, refused_by):
        eps, z = 1e-12, complex(-s, phi)
        terms = _series_terms(1, s, eps).terms
        assert _eta_line_row(0, eps, z, terms) is None
        w = -4.0 * math.pi**2 / complex(s, -phi)
        x = -w.real
        shorter = x > s and _series_terms(1, x, eps).terms < terms
        conditioned = math.ulp(abs(w)) * _mean_bound(x) <= 0.5 * eps
        assert (shorter, conditioned) == ((True, False) if refused_by == "b" else (False, True))
        assert fulcrum(U, 1, z, eps) == _row_sums(1, 0, [z], [terms])[0]

    @pytest.mark.parametrize("kind", [U, D])
    def test_row_point_past_the_direct_cap(self, kind):
        # at s = 1e-9 the direct series is not certified within SERIES_CAP
        # terms, but the row sums 8 terms at Re w = -4 pi^2 s/|tau|^2 ~ -39478
        z = complex(-1e-9, 1e-6)
        with pytest.raises(TruncationError):
            _series_terms(1, -z.real, 1e-12)
        ref = mp_eta_fulcrum(z) - (mp_eta_fulcrum(2 * z) if kind is D else 0)
        got = fulcrum(kind, 1, z)
        assert mp_err_mod_2pi_i(got, ref) <= math.ulp(abs(got))

    def test_uncertified_direct_point_raises(self):
        # phi = pi at the same s is a cusp that no row takes, alone or in a
        # batch with a point the row takes; k = 2 has no row
        row, cusp = complex(-1e-9, 1e-6), complex(-1e-9, math.pi)
        for kind in (U, D):
            with pytest.raises(TruncationError):
                fulcrum(kind, 1, cusp)
            with pytest.raises(TruncationError):
                _fulcrum_at(kind, 1, (0,), [row, cusp], 1e-12)
            with pytest.raises(TruncationError):
                fulcrum(kind, 1, row, m=1)  # no row for the derivative orders
            with pytest.raises(TruncationError):
                fulcrum(kind, 2, complex(-1e-15, 1e-6))

    def test_mean_bound(self):
        for x in (1e-3, 0.1, 1.0, 5.0, 40.0):
            mean = _axis_series(1, x, [(1, 1e-15)])[0]
            assert mean <= _mean_bound(x) <= 1.01 * mean + 1e-300

    def test_only_k1_off_axis_points_enter_the_row(self, monkeypatch):
        seen = []
        row = family._ETA_ROWS[False]

        def spy(m, eps, p, terms):
            seen.append(p)
            return row(m, eps, p, terms)

        monkeypatch.setitem(family._ETA_ROWS, False, spy)
        off = [complex(-0.1, t) for t in (0.5, 1.0, 3.0)]
        for kind in (U, D):
            _fulcrum_at(kind, 2, (0, 1), off, 1e-12)
            _fulcrum_at(kind, 3, (0,), off, 1e-12)
            _fulcrum_at(kind, 1, (0, 1, 2), [complex(-0.1)] * 3, 1e-12)
            family_point(kind, 1, 0.01)
            pgf_modulus_ratio(family_point(kind, 2, 0.1), [0.0, 1.0])
        assert seen == []
        _fulcrum_at(D, 1, (0,), off, 1e-12)
        assert seen == off + [2 * p for p in off]


class TestMpmathAudit:
    @pytest.mark.parametrize("kind", [U, D])
    def test_fulcrum_40_digits(self, thresholds, kind):
        fx = thresholds["mpmath_audit"]
        grid = fx["fulcrum_grid"]
        worst = [0.0] * (grid["m_max"] + 1)
        for k in grid["k"]:
            for s in grid["s"]:
                refs = mp_fulcrum(kind, k, s, grid["m_max"], fx["dps"])
                for m, ref in enumerate(refs):
                    err = mp_rel_err(fulcrum(kind, k, -s, m=m).real, ref, fx["dps"])
                    worst[m] = max(worst[m], err)
        for m, err in enumerate(worst):
            assert err <= fx[f"fulcrum_{kind.value}"][str(m)]["threshold"], m


class TestFulcrumDerivative:
    def test_first_derivative_formula(self):
        direct = math.fsum(j * math.exp(-j) / (1.0 - math.exp(-j))
                           for j in range(1, 61))
        assert math.isclose(fulcrum(U, 1, -1.0, m=1).real, direct, rel_tol=1e-13)

    def test_second_derivative_formula(self):
        direct = math.fsum(j * j * math.exp(-j) / (1.0 - math.exp(-j)) ** 2
                           for j in range(1, 61))
        assert math.isclose(fulcrum(U, 1, -1.0, m=2).real, direct, rel_tol=1e-13)

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_finite_difference(self, kind, k):
        s, h = 0.5, 1e-6
        fd = (fulcrum(kind, k, complex(-(s - h))).real
              - fulcrum(kind, k, complex(-(s + h))).real) / (2.0 * h)
        assert math.isclose(fd, fulcrum(kind, k, -s, m=1).real, rel_tol=1e-6)

    def test_polynomial_coefficients(self):
        assert _h_deriv_poly(1) == (0, 1)
        assert _h_deriv_poly(2) == (0, 1, 1)
        assert _h_deriv_poly(3) == (0, 1, 3, 2)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_higher_orders_consistent(self, m):
        # each order must be the derivative in -s of the one below it
        s, h = 0.7, 1e-4
        fd = (fulcrum(U, 1, -(s - h), m=m - 1).real
              - fulcrum(U, 1, -(s + h), m=m - 1).real) / (2.0 * h)
        assert math.isclose(fd, fulcrum(U, 1, -s, m=m).real, rel_tol=1e-6)

    def test_order_cap(self):
        fulcrum(U, 1, -0.5, m=8)
        with pytest.raises(ValueError):
            fulcrum(U, 1, -0.5, m=9)
        with pytest.raises(ValueError):
            fulcrum(U, 1, -0.5, m=-1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_domination_third_derivative(self, k):
        # complex-argument modulus never exceeds the real-axis value
        for s in (0.05, 0.3, 1.0):
            ref = fulcrum(U, k, complex(-s), m=3).real
            for theta in (-2.0, -0.5, 0.1, 1.3, 3.0):
                val = abs(fulcrum(U, k, complex(-s, theta), m=3))
                assert val <= ref * (1.0 + 1e-12)


class TestMeanVariance:
    def test_mean_large_s_single_term(self):
        assert math.isclose(family_point(U, 1, 20.0).mean, math.exp(-20.0), rel_tol=1e-7)

    def test_variance_is_t_dm_dt(self):
        s, h = 0.3, 1e-6
        fd = -(family_point(U, 1, s + h).mean
               - family_point(U, 1, s - h).mean) / (2.0 * h)
        assert math.isclose(family_point(U, 1, s).variance, fd, rel_tol=1e-5)

    def test_mean_asymptotic_head_k2(self):
        from powerparts.special import constants
        approx = constants(2).Omega * 0.01 ** -1.5
        assert abs(family_point(U, 2, 0.01).mean / approx - 1.0) < 0.05

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mean_strictly_decreasing(self, kind, k):
        grid = [0.5 * 2.0**-i for i in range(8)]
        vals = [family_point(kind, k, s).mean for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # decreasing s, growing mean

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), k=st.integers(1, 5),
           log_s=st.floats(-3.0, 1.3), log_step=st.floats(-6.0, 0.0))
    def test_mean_strictly_decreasing_property(self, kind, k, log_s, log_step):
        # a relative step of 1e-6 moves the mean by about 1e-6 relative, far
        # above the 1e-12 series tolerance
        s = 10.0**log_s
        assert (family_point(kind, k, s).mean
                > family_point(kind, k, s * (1.0 + 10.0**log_step)).mean)

    @pytest.mark.parametrize("kind", [U, D])
    def test_variance_positive(self, kind):
        for s in (0.01, 0.1, 1.0, 5.0):
            assert family_point(kind, 2, s).variance > 0.0

    def test_moments_match_table(self, tables_2000):
        table = tables_2000[(U, 1)]
        pt = family_point(U, 1, 0.3)
        probs = [pmf(pt, n, table) for n in range(601)]
        m1 = math.fsum(n * p for n, p in enumerate(probs))
        assert math.isclose(m1, pt.mean, rel_tol=1e-6)


class TestCharFn:
    def test_at_origin(self):
        assert char_fn_normalized(family_point(U, 1, 0.1), 0.0) == 1.0 + 0.0j

    @pytest.mark.parametrize("kind", [U, D])
    def test_batch_equals_single_thetas(self, kind):
        thetas = np.linspace(0.0, 5.0, 21)
        pt = family_point(kind, 2, 0.05)
        batch = char_fn_normalized(pt, thetas)
        assert batch[0] == 1.0 + 0.0j
        assert list(batch) == [char_fn_normalized(pt, t) for t in thetas]

    def test_modulus_bounded(self):
        pt = family_point(U, 1, 0.08)
        for theta in (0.3, 1.0, 4.0, 11.0):
            assert abs(char_fn_normalized(pt, theta)) <= 1.0 + 1e-12

    def test_modulus_equals_pgf_ratio(self):
        s, theta = 0.1, 1.7
        pt = family_point(U, 1, s)
        sigma = math.sqrt(pt.variance)
        lhs = abs(char_fn_normalized(pt, theta))
        rhs = pgf_modulus_ratio(pt, theta / sigma)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_against_pmf_sum(self):
        # direct summation over an exact table with support past mean + 20 sigma
        s = 0.05
        table = count_partitions(U, 1, 4096)
        expected = char_fn_from_table(table, s, 1.0)
        got = char_fn_normalized(family_point(U, 1, s), 1.0)
        assert abs(got - expected) < 1e-6


class TestPgfModulusRatio:
    def test_phi_zero(self):
        assert pgf_modulus_ratio(family_point(U, 1, 0.2), 0.0) == 1.0

    @pytest.mark.parametrize("kind", [U, D])
    def test_batch_equals_single_phis(self, kind):
        phis = np.geomspace(0.01, math.pi, 40)
        pt = family_point(kind, 1, 0.1)
        batch = pgf_modulus_ratio(pt, phis)
        assert list(batch) == [pgf_modulus_ratio(pt, p) for p in phis]

    @pytest.mark.parametrize("k", [1, 2])
    def test_full_turn(self, k):
        assert math.isclose(pgf_modulus_ratio(family_point(U, k, 0.5), 2.0 * math.pi), 1.0,
                            rel_tol=1e-12)

    def test_in_unit_interval(self):
        pt = family_point(U, 1, 0.1)
        for phi in (0.05, 0.3, 1.0, math.pi):
            v = pgf_modulus_ratio(pt, phi)
            assert 0.0 < v < 1.0

    def test_bounded_by_inner_regime_fit(self, thresholds):
        d1 = thresholds["twl"]["1"]["d1_floor"]
        s, phi = 0.1, 0.05
        assert pgf_modulus_ratio(family_point(U, 1, s), phi) <= math.exp(-d1 * phi**2 * s**-3.0)


class TestPmf:
    def test_n_zero(self, tables_2000):
        pt = family_point(U, 1, 0.5)
        expected = math.exp(-fulcrum(U, 1, complex(-0.5)).real)
        assert math.isclose(pmf(pt, 0, tables_2000[(U, 1)]), expected, rel_tol=1e-12)

    def test_n_one_direct(self, tables_2000):
        pt = family_point(U, 1, 1.0)
        p1 = math.exp(-1.0) * math.exp(-fulcrum(U, 1, complex(-1.0)).real)
        assert math.isclose(pmf(pt, 1, tables_2000[(U, 1)]), p1, rel_tol=1e-12)

    def test_normalization(self, tables_2000):
        pt = family_point(U, 1, 0.3)  # mean ~16, sigma ~11; 15 sigma inside 2000
        total = math.fsum(pmf(pt, n, tables_2000[(U, 1)]) for n in range(2001))
        assert abs(total - 1.0) < 1e-9

    def test_zero_coefficient(self, tables_2000):
        pt = family_point(D, 2, 0.2)
        assert pmf(pt, 2, tables_2000[(D, 2)]) == 0.0

    def test_mismatch_rejected(self, tables_2000):
        pt = family_point(U, 1, 0.5)
        with pytest.raises(ValueError):
            pmf(pt, 1, tables_2000[(U, 2)])
        with pytest.raises(ValueError):
            pmf(pt, 5000, tables_2000[(U, 1)])


class TestSample:
    @pytest.mark.parametrize("kind,k,s", [(U, 1, 0.1), (U, 2, 0.05),
                                          (D, 1, 0.1), (D, 2, 0.05)])
    def test_moments(self, kind, k, s):
        pt = family_point(kind, k, s)
        draws = sample(pt, 100_000, seed=1234)
        se_mean = math.sqrt(pt.variance / draws.size)
        assert abs(draws.mean() - pt.mean) < 5.0 * se_mean
        # variance of the sample variance ~ (m4 - var^2)/n; use a loose z-test
        sample_var = draws.var()
        z4 = np.mean(((draws - pt.mean) / math.sqrt(pt.variance)) ** 4)
        se_var = pt.variance * math.sqrt(max(z4 - 1.0, 0.1) / draws.size)
        assert abs(sample_var - pt.variance) < 5.0 * se_var

    def test_empirical_pmf_at_zero(self, tables_2000):
        pt = family_point(U, 1, 0.5)
        p0 = pmf(pt, 0, tables_2000[(U, 1)])
        draws = sample(pt, 100_000, seed=99)
        emp = float(np.mean(draws == 0))
        se = math.sqrt(p0 * (1.0 - p0) / draws.size)
        assert abs(emp - p0) < 5.0 * se

    def test_deterministic(self):
        pt = family_point(D, 1, 0.2)
        a = sample(pt, 1000, seed=7)
        b = sample(pt, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_nonnegative_integers(self):
        pt = family_point(U, 2, 0.3)
        draws = sample(pt, 5000, seed=3)
        assert draws.min() >= 0

    def test_count_validated(self):
        pt = family_point(U, 1, 0.5)
        with pytest.raises(ValueError):
            sample(pt, 0, seed=1)

    def test_tail_eps_constant(self):
        assert SAMPLE_TAIL_EPS == 1e-9

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k,s", [(1, 0.2), (1, 0.018), (2, 0.2), (2, 0.018)])
    def test_two_sample_ks_against_dense_draws(self, kind, k, s):
        # Both samplers draw the same truncated law.  By Massart's DKW
        # inequality each empirical CDF is farther than r from that law with
        # probability at most 2 exp(-2 n r^2) = 5e-10, so the two are
        # farther than 2r apart with probability at most 1e-9.
        n = 100_000
        terms = _series_terms(k, s, SAMPLE_TAIL_EPS).terms
        a = np.sort(sample(family_point(kind, k, s), n, seed=17))
        b = np.sort(dense_sample(kind, k, s, terms, n, seed=18))
        grid = np.union1d(a, b)
        gap = np.abs(np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right"))
        assert gap.max() / n <= 2.0 * math.sqrt(math.log(2.0 / 5e-10) / (2.0 * n))

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2])
    def test_empirical_pmf_at_small_n(self, tables_2000, kind, k):
        pt = family_point(kind, k, 0.5)
        draws = sample(pt, 100_000, seed=5)
        for n in range(11):
            p = pmf(pt, n, tables_2000[(kind, k)])
            emp = float(np.mean(draws == n))
            assert abs(emp - p) <= 5.0 * math.sqrt(p * (1.0 - p) / draws.size), (n, emp, p)


class TestFamilyPoint:
    @pytest.mark.parametrize("kind", [U, D])
    def test_log_f_is_the_fulcrum(self, kind):
        for k, s, eps in ((1, 0.3, 1e-12), (2, 0.05, 1e-8), (3, 2.0, 1e-12)):
            assert family_point(kind, k, s, eps).log_f == fulcrum(kind, k, -s, eps).real

    def test_fields(self):
        pt = family_point(U, 2, 0.25, eps=1e-10)
        assert isinstance(pt, FamilyPoint)
        assert pt.tail_eps == 1e-10
        assert pt.variance > 0.0
        assert pt.mean > 0.0
