"""Special-function core against independent oracles.

Oracles: integral representations integrated by scipy.integrate.quad,
scipy.special reference implementations, the 50-digit Pearcey series and
closed-form identities (see oracles.py).
Frozen numbers below were produced by the stated oracle, not by the code
under test.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sps

import kickedrotor
from kickedrotor import specfun as sf
from oracles import airy_mp, p1_contour_oracle, pearcey_series_mp

# --- frozen oracle values ---
# (1/pi) int_0^pi cos(5t - 85 sin t) dt by adaptive quadrature
J5_85_ORACLE = 0.03866907228468065
# sqrt(pi/(2x)) J_{10.5}(x) at x = 75 (half-integer Bessel oracle)
J10_SPH_75_ORACLE = -0.004421028503169618
# rotated-contour quadrature of the Pearcey integral at (1, 1)
PEARCEY_11_ORACLE = 1.207586451141857 + 0.6015340860570983j
# rotated-contour quadrature of int_0^inf i u e^{i(u^4+xu^2+yu)} du at (1, 2)
DP1_12_ORACLE = -0.13553650455293442 - 0.06930232086140939j
# direct series summation of 1F1(1/2, 3/2, 5i)
HYP_5_ORACLE = 0.1840996497350341 + 0.2611597996730183j


class TestBesselJ:
    def test_zero_arguments(self):
        assert sf.bessel_jn_array(0, 0.0)[0] == 1.0
        assert sf.bessel_jn_array(1, 0.0)[1] == 0.0
        assert sf.bessel_jn_array(7, 0.0)[7] == 0.0

    def test_integral_representation_oracle(self):
        assert sf.bessel_jn_array(5, 85.0)[5] == pytest.approx(J5_85_ORACLE, abs=1e-10)

    def test_sum_rule(self):
        for P in (1.0, 10.0, 85.0):
            n_max = int(math.ceil(P + 8 * P ** (1 / 3) + 20))
            j = sf.bessel_jn_array(n_max, P)
            total = j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2)
            assert abs(total - 1.0) < 1e-10

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(0, 400))
            x = float(rng.uniform(0.0, 500.0))
            mine = sf.bessel_jn_array(n, x)[n]
            ref = sps.jv(n, x)
            # relative accuracy away from zeros, absolute near them
            assert mine == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_deep_tail_relative_accuracy(self):
        # n >> x: tiny values must keep relative accuracy
        mine = sf.bessel_jn_array(120, 20.0)[120]
        ref = sps.jv(120, 20.0)
        assert abs(ref) < 1e-79
        assert mine == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.bessel_jn_array(10 ** 6 + 1, 1.0)
        with pytest.raises(sf.DomainError):
            sf.bessel_jn_array(1, 10 ** 4 + 1.0)

    def test_vectorized_j0_j1(self):
        # a sweep, the series/Hankel cut at 12 and tiny arguments, both signs
        x = np.concatenate([np.linspace(0.0, 300.0, 5001), np.linspace(11.9, 12.1, 2001),
                            np.geomspace(1e-300, 1e-8, 300)])
        x = np.concatenate([x, -x])
        assert np.max(np.abs(sf.bessel_j0(x) - sps.j0(x))) < 1e-9
        assert np.max(np.abs(sf.bessel_j1(x) - sps.j1(x))) < 1e-9

    def test_vectorized_j0_even_j1_odd(self):
        x = np.concatenate([np.linspace(0.0, 40.0, 801), [1e-300, 1e-8, 11.999, 12.0]])
        assert np.array_equal(sf.bessel_j0(-x), sf.bessel_j0(x))
        assert np.array_equal(sf.bessel_j1(-x), -sf.bessel_j1(x))


class TestSphericalJ:
    def test_limits_at_zero(self):
        assert sf.spherical_jn_array(0, 0.0)[0] == 1.0
        assert sf.spherical_jn_array(3, 0.0)[3] == 0.0

    def test_half_integer_oracle(self):
        assert sf.spherical_jn_array(10, 75.0)[10] == pytest.approx(J10_SPH_75_ORACLE, rel=1e-11)

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            l = int(rng.integers(0, 250))
            x = float(rng.uniform(0.0, 300.0))
            assert sf.spherical_jn_array(l, x)[l] == pytest.approx(
                sps.spherical_jn(l, x), rel=1e-11, abs=1e-14)

    def test_near_sine_zero_anchor(self):
        # x = k pi makes j_0 vanish; the anchor must switch to j_1
        for x in (math.pi, 2 * math.pi, 3 * math.pi):
            assert sf.spherical_jn_array(4, x)[4] == pytest.approx(
                sps.spherical_jn(4, x), rel=1e-10)

    def test_negative_order_rejected(self):
        with pytest.raises(sf.DomainError):
            sf.spherical_jn_array(-1, 1.0)


class TestAiry:
    def test_value_at_zero(self):
        ai, aip = sf.airy(0.0)
        assert ai == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-14)
        assert aip == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-14)

    def test_decay(self):
        assert sf.airy(10.0)[0] < 1e-9

    def test_first_maximum_of_ai_squared(self):
        # golden-section search on the ray-quadrature evaluation
        phi = (math.sqrt(5) - 1) / 2
        a, b = 0.5, 1.5
        f = lambda x: -sf.airy(-x)[0] ** 2
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
        assert 0.5 * (a + b) == pytest.approx(1.0187929565, abs=1e-4)

    def test_against_scipy_sweep(self):
        xs = np.linspace(-60.0, 20.0, 641)
        ai_ref, aip_ref, _, _ = sps.airy(xs)
        ai, aip = sf.airy(xs)
        assert np.max(np.abs(ai - ai_ref)) < 1e-10
        assert np.max(np.abs(aip - aip_ref)) < 1e-10

    @pytest.mark.parametrize("cut", [-7.0, 0.0, 5.5])
    def test_against_scipy_across_branch_cuts(self, cut):
        # both sides of a former series/asymptotic cut, or of the x = 0
        # join of the real and complex saddles, in one array
        xs = cut + np.linspace(-1e-9, 1e-9, 201)
        ai_ref, aip_ref, _, _ = sps.airy(xs)
        ai, aip = sf.airy(xs)
        assert np.max(np.abs(ai - ai_ref)) < 1e-10
        assert np.max(np.abs(aip - aip_ref)) < 1e-10

    # the nonnegative axis, with dense points around the former cut at 5.5
    # and the x = 0 join of the two saddles
    _POS = np.concatenate([np.linspace(0.0, 20.0, 81), 5.5 + np.linspace(-0.5, 0.5, 21),
                           np.linspace(0.0, 0.05, 11)])
    # the negative axis, dense around the former cut at -7 and below 0
    _NEG = np.concatenate([np.linspace(-60.0, -0.25, 120), -7.0 + np.linspace(-0.5, 0.5, 21),
                           -np.geomspace(1e-12, 0.05, 11)])

    def test_relative_error_on_nonnegative_axis(self):
        ref = airy_mp(self._POS)
        got = np.array(sf.airy(self._POS))
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_absolute_error_on_negative_axis(self):
        ref = airy_mp(self._NEG)
        got = np.array(sf.airy(self._NEG))
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_column_longer_than_one_block(self, monkeypatch):
        # several row blocks, each ray call within _CONTOUR_BLOCK entries,
        # equal to the scalar calls
        rows = sf._CONTOUR_BLOCK // (sf._GL_NODES.size * sf._AIRY_PANELS)
        xs = np.linspace(-60.0, 20.0, 2 * rows + 7)
        calls = []
        segment = sf.gauss_segment

        def counted(f, z0, z1, n_panels):
            calls.append(np.size(z1) * n_panels * sf._GL_NODES.size)
            return segment(f, z0, z1, n_panels)

        monkeypatch.setattr(sf, "gauss_segment", counted)
        ai, aip = sf.airy(xs)
        assert len(calls) >= 3 and max(calls) <= sf._CONTOUR_BLOCK
        monkeypatch.undo()
        for i in list(range(0, xs.size, 5)) + [rows - 1, rows, 2 * rows - 1, 2 * rows]:
            assert (ai[i], aip[i]) == pytest.approx(sf.airy(float(xs[i])), rel=1e-13, abs=1e-300)

    def test_array_contract(self):
        xs = np.linspace(-60.0, 20.0, 24).reshape(4, 6)
        ai, aip = sf.airy(xs)
        assert ai.shape == aip.shape == (4, 6)
        for x, a, ap in zip(xs.ravel(), ai.ravel(), aip.ravel()):
            assert (a, ap) == pytest.approx(sf.airy(float(x)), rel=1e-13, abs=1e-300)
        scalar = sf.airy(-3.0)
        assert type(scalar) is tuple and all(type(v) is float for v in scalar)
        ai, aip = sf.airy(np.array([]))
        assert ai.shape == aip.shape == (0,)

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.airy(21.0)
        with pytest.raises(sf.DomainError):
            sf.airy(-61.0)
        with pytest.raises(sf.DomainError, match="21.0"):
            sf.airy(np.array([[0.0, 1.0], [21.0, -3.0]]))
        with pytest.raises(sf.DomainError):
            sf.airy(np.array([0.0, np.nan]))


class TestGamma:
    def test_known_values(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        const = math.gamma(0.25) ** 2 * math.sqrt(6.0) / (8.0 * math.pi ** 2)
        assert const == pytest.approx(0.4078, abs=2e-5)

    def test_relative_accuracy(self):
        for x in np.linspace(0.05, 170.0, 400):
            assert math.gamma(float(x)) == pytest.approx(sps.gamma(x), rel=1e-13)


_GRID = [(x, b) for x in (-8.0, -4.0, 0.0, 4.0, 8.0) for b in (-8.0, -4.0, 0.0, 4.0, 8.0)]
# inside |x|, |beta| <= 12, where the 50-digit series runs out of terms
_DOMAIN_EDGE = [(-12.0, 6.0), (-12.0, 9.0), (-12.0, 12.0), (12.0, 3.0), (12.0, 6.0),
                (12.0, 9.0), (12.0, 12.0), (11.5, 8.6), (-11.5, 8.6), (11.5, 11.5),
                (-11.5, 11.5)]
# where the series converges; each point costs it 20-400 ms
_SERIES_POINTS = [(-11.5, 0.0), (0.0, 11.5), (11.5, 0.0), (3.0, -5.0)]


def p1(x, y):
    # P1(x, y), the half-range Pearcey integral, by the runtime contour
    return complex(sf._p1_contour(x, y))


def p1_dy(x, y):
    # dP1/dy(x, y) by the same contour
    return complex(sf._p1_contour(x, y, power=1))


class TestPearcey:
    def test_value_at_origin(self):
        # only the n = m = 0 term of the double series survives
        expected = 0.5 * math.gamma(0.25) * np.exp(1j * np.pi / 8)
        assert sf.pearcey(0.0, 0.0) == pytest.approx(expected, abs=1e-13)

    def test_symmetry_bitwise(self):
        a = sf.pearcey(2.0, 3.0)
        b = sf.pearcey(2.0, -3.0)
        assert a.real == b.real and a.imag == b.imag

    def test_point_oracle(self):
        assert sf.pearcey(1.0, 1.0) == pytest.approx(PEARCEY_11_ORACLE, abs=1e-8)

    @pytest.mark.parametrize("x,beta", _GRID + _DOMAIN_EDGE)
    def test_series_vs_quadrature_grid(self, x, beta):
        mine = sf.pearcey(x, beta)
        oracle = p1_contour_oracle(x, abs(beta)) + p1_contour_oracle(x, -abs(beta))
        assert abs(mine - oracle) < 1e-8

    @pytest.mark.parametrize("x,beta", _SERIES_POINTS)
    def test_against_series_oracle(self, x, beta):
        assert abs(sf.pearcey(x, beta) - pearcey_series_mp(x, beta)) < 1e-12

    def test_continuous_across_beta_12(self):
        # central difference across beta = 12 against
        # dP/dbeta = dP1/dy(x, b) - dP1/dy(x, -b)
        h = 0.01
        for x in (-12.0, 0.0, 12.0):
            step = (sf.pearcey(x, 12.0 + h) - sf.pearcey(x, 12.0 - h)) / (2 * h)
            deriv = p1_dy(x, 12.0) - p1_dy(x, -12.0)
            assert abs(step - deriv) < 5e-4

    def test_large_argument_quadrature_regime(self):
        for (x, b) in [(0.0, 41.6), (13.0, 20.0), (0.0, 240.0)]:
            mine = sf.pearcey(x, b)
            oracle = p1_contour_oracle(x, abs(b)) + p1_contour_oracle(x, -abs(b))
            assert abs(mine - oracle) < 1e-7

    def test_p1_decomposition(self):
        for (x, y) in [(1.0, 2.0), (0.0, 0.0), (3.0, -5.0), (-6.0, 4.0)]:
            lhs = p1(x, y) + p1(x, -y)
            assert abs(lhs - sf.pearcey(x, y)) < 1e-10


class TestPearceyHalfDy:
    def test_value_at_origin(self):
        # int_0^inf i u e^{iu^4} du = (1/4) Gamma(1/2) e^{i 3 pi/4}
        expected = 0.25 * math.gamma(0.5) * np.exp(1j * 3 * np.pi / 4)
        assert p1_dy(0.0, 0.0) == pytest.approx(expected, abs=1e-13)

    def test_point_oracle(self):
        assert p1_dy(1.0, 2.0) == pytest.approx(DP1_12_ORACLE, abs=1e-8)

    @pytest.mark.parametrize(
        "x,y", [(0.0, 0.0), (-4.0, 6.0), (8.0, -8.0), (5.0, 5.0)] + _DOMAIN_EDGE)
    def test_against_contour_oracle(self, x, y):
        oracle = p1_contour_oracle(x, y, power=1)
        assert abs(p1_dy(x, y) - oracle) < 1e-8

    @pytest.mark.parametrize("x,y", _SERIES_POINTS)
    def test_against_series_oracle(self, x, y):
        assert abs(p1_dy(x, y) - pearcey_series_mp(x, y, half_dy=True)) < 1e-12

    def test_derivative_consistency_with_p1(self):
        # centered finite difference of P1 in y
        x, y, h = 1.0, 2.0, 1e-5
        fd = (p1(x, y + h) - p1(x, y - h)) / (2 * h)
        assert abs(fd - p1_dy(x, y)) < 1e-7


class TestHyp1F1Focus:
    def test_at_zero(self):
        assert sf.hyp1f1_focus(0.0) == 1.0 + 0.0j

    def test_series_oracle(self):
        assert sf.hyp1f1_focus(5.0) == pytest.approx(HYP_5_ORACLE, abs=1e-12)

    def test_conjugate_symmetry(self):
        assert sf.hyp1f1_focus(-7.0) == pytest.approx(
            sf.hyp1f1_focus(7.0).conjugate(), rel=1e-12)

    def test_both_regimes_against_mpmath(self):
        import mpmath
        for z in (0.5, 12.0, 29.999, 30.001, 60.0, 133.33):
            ref = complex(mpmath.hyp1f1(0.5, 1.5, 1j * z))
            assert sf.hyp1f1_focus(z) == pytest.approx(ref, abs=1e-9)

    def test_large_z_focal_limit(self):
        # |(PL^2/2) 1F1|^2/(4 pi) -> 3P/8 for P L^4/24 -> infinity
        P, L = 1e7, 2.0
        z = P * L ** 4 / 24.0
        dens = abs(P * L * L / 2.0 * sf.hyp1f1_focus(z)) ** 2 / (4 * math.pi)
        assert dens == pytest.approx(3 * P / 8, rel=2e-3)


def test_import_leaves_mpmath_unloaded():
    # the runtime is numpy-only: importing the package must not load
    # mpmath (which would also reset its global precision)
    src = os.path.dirname(os.path.dirname(kickedrotor.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, kickedrotor; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
