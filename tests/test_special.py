import math

import mpmath
import pytest

from powerparts.special import constants, gamma_fn, riemann_zeta

from _oracles import mp_rel_err, zeta_bracket


class TestZeta:
    def test_basel(self):
        assert math.isclose(riemann_zeta(2.0), math.pi**2 / 6, rel_tol=1e-13)

    def test_zeta_four(self):
        assert math.isclose(riemann_zeta(4.0), math.pi**4 / 90, rel_tol=1e-13)

    def test_bracketed_by_partial_sums(self):
        for x in (1.2, 1.5, 2.5, 3.0):
            lo, hi = zeta_bracket(x)
            assert lo <= riemann_zeta(x) <= hi, x

    def test_decreasing(self):
        xs = [1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0]
        vals = [riemann_zeta(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_limit_one(self):
        assert abs(riemann_zeta(30.0) - 1.0) < 2**-29

    def test_domain(self):
        for x in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                riemann_zeta(x)


class TestGamma:
    def test_factorial_point(self):
        assert math.isclose(gamma_fn(2.0), 1.0, rel_tol=1e-13)

    def test_half(self):
        assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-13)

    def test_half_vs_quadrature(self):
        # Gamma(1/2) = 2 * integral_0^inf e^(-u^2) du, by trapezoid: the
        # integrand is analytic and even, so uniform trapezoid converges fast
        h = 1e-3
        grid_sum = math.fsum(math.exp(-(i * h) ** 2) for i in range(1, 9001))
        integral = h * (0.5 + grid_sum)
        assert math.isclose(gamma_fn(0.5), 2 * integral, rel_tol=1e-10)

    def test_three_halves(self):
        assert math.isclose(gamma_fn(1.5), math.sqrt(math.pi) / 2, rel_tol=1e-13)

    def test_functional_equation(self):
        x = 0.1
        while x <= 10.0:
            assert math.isclose(gamma_fn(x + 1.0), x * gamma_fn(x), rel_tol=1e-12)
            x += 0.37

    def test_against_stdlib(self):
        x = 0.05
        while x < 60.0:
            assert math.isclose(gamma_fn(x), math.gamma(x), rel_tol=1e-13), x
            x *= 1.31

    def test_domain(self):
        for x in (0.0, -1.5):
            with pytest.raises(ValueError):
                gamma_fn(x)


class TestConstants:
    def test_k1_closed_forms(self):
        cs = constants(1)
        assert math.isclose(cs.Omega, math.pi**2 / 6, rel_tol=1e-12)
        assert math.isclose(cs.alpha, 1.0 / (4.0 * math.sqrt(3.0)), rel_tol=1e-12)
        assert math.isclose(cs.beta, math.pi * math.sqrt(2.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(cs.omega[0], cs.Omega, rel_tol=1e-12)  # k*Omega at k=1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_internal_relations(self, k):
        cs = constants(k)
        assert math.isclose(cs.omega[0], k * cs.Omega, rel_tol=1e-12)
        assert math.isclose(cs.omega[2], (1.0 + 1.0 / k) * cs.Omega, rel_tol=1e-12)
        assert math.isclose(cs.Phi, (1.0 - 2.0 ** (-1.0 / k)) * cs.Omega, rel_tol=1e-12)
        assert math.isclose(cs.beta, (k + 1.0) * cs.Omega ** (k / (k + 1.0)),
                            rel_tol=1e-12)
        expected_alpha = (cs.Omega ** (k / (k + 1.0))
                          / ((2.0 * math.pi) ** ((k + 1.0) / 2.0)
                             * math.sqrt(1.0 + 1.0 / k)))
        assert math.isclose(cs.alpha, expected_alpha, rel_tol=1e-12)

    def test_k2_factorization(self):
        # Gamma(3/2) = sqrt(pi)/2 exactly, so Omega_2 = zeta(3/2) sqrt(pi)/4
        lo, hi = zeta_bracket(1.5)
        cs = constants(2)
        assert lo * math.sqrt(math.pi) / 4 <= cs.Omega <= hi * math.sqrt(math.pi) / 4

    def test_omega_positive_and_increasing_in_m(self):
        cs = constants(3, m_max=8)
        assert len(cs.omega) == 9
        assert all(v > 0 for v in cs.omega)
        assert all(b > a for a, b in zip(cs.omega[2:], cs.omega[3:]))

    def test_json_digits(self):
        d = constants(1).to_json_dict()
        assert isinstance(d["omega"], dict)
        assert math.isclose(d["beta"], 2.565099660323728, rel_tol=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            constants(0)
        with pytest.raises(ValueError):
            constants(2, m_max=1)


class TestMpmathAudit:
    def test_zeta_40_digits(self, thresholds):
        fx = thresholds["mpmath_audit"]
        with mpmath.workdps(fx["dps"]):
            worst = max(mp_rel_err(riemann_zeta(1.0 + 1.0 / k),
                                   mpmath.zeta(mpmath.mpf(1.0 + 1.0 / k)), fx["dps"])
                        for k in range(1, 7))
        assert worst <= fx["riemann_zeta"]["threshold"]

    def test_gamma_40_digits(self, thresholds):
        fx = thresholds["mpmath_audit"]
        with mpmath.workdps(fx["dps"]):
            worst = max(mp_rel_err(gamma_fn(m + 1.0 / k),
                                   mpmath.gamma(mpmath.mpf(m + 1.0 / k)), fx["dps"])
                        for k in range(1, 7) for m in range(9))
        assert worst <= fx["gamma_fn"]["threshold"]
