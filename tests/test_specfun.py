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
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

import kickedrotor
from kickedrotor import specfun as sf
import bessel_coefficients
from oracles import (airy_mp, bessel_j_mp, bessoid_contour_oracle, bessoid_oracle, hyp1f1_focus, p1_contour_complex,
                     p1_contour_oracle, pearcey_series_mp, sincos_mp)

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


def _sincos_arguments():
    # near k pi/2 (the double nearest and its neighbours, |k| <= 200), the
    # edges +-0, subnormals, 1e15, 1e300, uniform on [-10, 10] and
    # log-uniform over 1e-300 .. 1e300 with either sign: 3,014 arguments
    rng = np.random.default_rng(14)
    near = np.arange(-200, 201) * (np.pi / 2)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e15, -1e15, 1e300, -1e300,
             np.finfo(float).max]
    return np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
                           edges, rng.uniform(-10.0, 10.0, 1000),
                           rng.choice([-1.0, 1.0], 800) * 10.0 ** rng.uniform(-300, 300, 800)])


class TestSincos:
    def test_against_mpmath(self):
        x = _sincos_arguments()
        s, c = sf.sincos(x)
        ref_s, ref_c = sincos_mp(x)
        assert np.max(np.abs(s - ref_s)) <= 2.3e-16
        assert np.max(np.abs(c - ref_c)) <= 2.3e-16
        assert np.all(np.abs(s - ref_s) <= 4 * np.spacing(np.abs(ref_s)))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_libm_and_parity(self, x):
        s, c = sf.sincos(np.array([x, -x]))
        assert abs(s[0] - np.sin(x)) <= 2.3e-16 and abs(c[0] - np.cos(x)) <= 2.3e-16
        assert s[1] == -s[0] and c[1] == c[0]

    def test_nan_and_inf(self):
        s, c = sf.sincos(np.array([math.nan]))
        assert np.isnan(s[0]) and np.isnan(c[0])
        for x in (math.inf, -math.inf):
            with pytest.warns(RuntimeWarning, match="invalid value"):
                np.sin(np.array([x]))
            with pytest.warns(RuntimeWarning, match="invalid value"):
                s, c = sf.sincos(np.array([x]))
            assert np.isnan(s[0]) and np.isnan(c[0])


class TestBesselJ:
    def test_zero_arguments(self):
        assert sf.bessel_jn_array(0, 0.0)[0] == 1.0
        assert sf.bessel_jn_array(1, 0.0)[1] == 0.0
        assert sf.bessel_jn_array(7, 0.0)[7] == 0.0

    @pytest.mark.parametrize("x", [1e-100, 1e-60, 1e-20, -1e-100])
    def test_tiny_arguments_keep_the_leading_terms(self, x):
        # below about 1.6e-58 one recurrence step outgrows the rescaling and
        # overflowed to NaN; J_0 = 1 - x^2/4 and J_1 = x/2 - x^3/16
        j = sf.bessel_jn_array(25, x)
        assert np.all(np.isfinite(j))
        assert j[0] == pytest.approx(1.0, rel=1e-15, abs=0)
        assert j[1] == pytest.approx(x / 2, rel=1e-15, abs=0)

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
        with pytest.raises(sf.DomainError):
            sf.bessel_jn_array(3, math.nan)

    def test_vectorized_j0_j1(self):
        # 30-digit mpmath on [0, 100]: a sweep, the split at 12 and its
        # neighbourhood, tiny arguments
        x = np.concatenate([np.linspace(0.0, 100.0, 801), np.linspace(11.5, 12.5, 201),
                            [12.0 - 2e-15, 12.0 + 2e-15], np.geomspace(1e-300, 1e-3, 20)])
        assert np.max(np.abs(sf.bessel_j0(x) - bessel_j_mp(0, x))) < 1e-15
        assert np.max(np.abs(sf.bessel_j1(x) - bessel_j_mp(1, x))) < 1e-15

    @pytest.mark.parametrize("n", [0, 1])
    def test_vectorized_j0_j1_large_arguments(self, n):
        # beyond 100 the rounding of chi = x - (2n + 1) pi/4, half an ulp of
        # x, sets the error: ulp(x) times the amplitude sqrt(2/(pi x))
        x = np.geomspace(100.0, 1e4, 200)
        err = np.abs((sf.bessel_j1 if n else sf.bessel_j0)(x) - bessel_j_mp(n, x))
        assert np.all(err < np.spacing(x) * np.sqrt(2.0 / (np.pi * x)) + 1e-15)

    def test_vectorized_j0_even_j1_odd(self):
        x = np.concatenate([np.linspace(0.0, 40.0, 801), [1e-300, 1e-8, 11.999, 12.0]])
        assert np.array_equal(sf.bessel_j0(-x), sf.bessel_j0(x))
        assert np.array_equal(sf.bessel_j1(-x), -sf.bessel_j1(x))

    @pytest.mark.parametrize("f", [sf.bessel_j0, sf.bessel_j1])
    def test_j0_j1_at_the_ends_of_the_domain(self, f):
        # the limit at +-inf is 0; a huge finite x warns of nothing (Tier-1
        # makes a RuntimeWarning an error); NaN stays NaN
        assert np.array_equal(f(np.array([np.inf, -np.inf])), [0.0, 0.0])
        assert f(np.inf) == 0.0 and f(-np.inf) == 0.0
        huge = f(np.array([1e300, -1e300, np.finfo(float).max]))
        assert np.all(np.isfinite(huge)) and np.all(np.abs(huge) < 1e-150)
        assert np.isnan(f(np.nan)) and np.isnan(f(np.array([1.0, np.nan])))[1]

    def test_j0_j1_shapes_and_scalars(self):
        assert type(sf.bessel_j0(3.0)) is float and type(sf.bessel_j1(np.float64(-3.0))) is float
        grid = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        assert sf.bessel_j0(grid).shape == (3, 4) and sf.bessel_j1(grid[:0]).shape == (0, 4)
        mixed = np.array([-3.0, 3.0, -20.0, 20.0, np.nan])
        assert np.array_equal(sf.bessel_j1(mixed), [sf.bessel_j1(v) for v in mixed], equal_nan=True)
        # slices of the work array do not change a value: one long call equals per-element calls
        x = np.linspace(0.0, 40.0, 20001)
        assert np.array_equal(sf.bessel_j0(x)[::997], [sf.bessel_j0(v) for v in x[::997]])

    def test_coefficient_literals_rebuild(self):
        # tests/bessel_coefficients.py, 30-digit mpmath, gives the committed literals
        for name, values in bessel_coefficients.coefficients().items():
            assert getattr(sf, name) == values, name


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
        for x in (-1.0, math.nan):
            with pytest.raises(sf.DomainError):
                sf.spherical_jn_array(3, x)

    @pytest.mark.parametrize("x", [1e-6, 9.82836333277001, 300.5, 1000.0])
    def test_backward_recurrence_on_either_side_of_the_turning_point(self, x):
        # one backward recurrence for every x, also past the turning point
        # x > l_max, against sqrt(pi/2x) J_{l+1/2}(x) at 40 digits
        import mpmath
        l = np.r_[0:6, 60:300:40, 299, 300]
        with mpmath.workdps(40):
            ref = [float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x)))
                         * mpmath.besselj(k + mpmath.mpf(1) / 2, x)) for k in l]
        assert np.max(np.abs(sf.spherical_jn_array(300, x)[l] - ref)) < 1e-15


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

    @pytest.mark.parametrize("power", [0, 1])
    @pytest.mark.parametrize("x,y", [(-400.0, 400.0), (400.0, -400.0)])
    def test_domain_corners_against_contour_oracle(self, x, y, power):
        # corners of |x|, |y| <= 400, where the real leg carries 3e5 rad
        oracle = p1_contour_oracle(x, y, power=power)
        assert abs(complex(sf._p1_contour(x, y, power)) - oracle) <= 1e-10

    def test_long_row_in_bounded_pieces(self, monkeypatch):
        # one row at the domain corner x = -400 is ~11,200 panels: its legs
        # go in pieces of at most _CONTOUR_BLOCK nodes, so the temporaries
        # stay a few MB
        nodes = []
        layout = sf._gl_panels

        def counted(z0, z1, n_panels):
            nodes.append(n_panels * sf._GL_NODES.size)
            return layout(z0, z1, n_panels)

        monkeypatch.setattr(sf, "_gl_panels", counted)
        tracemalloc.start()
        try:
            sf.pearcey(-400.0, 400.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(nodes) > 4 and max(nodes) <= sf._CONTOUR_BLOCK
        assert peak < 8e6

    def test_p1_decomposition(self):
        for (x, y) in [(1.0, 2.0), (0.0, 0.0), (3.0, -5.0), (-6.0, 4.0)]:
            lhs = p1(x, y) + p1(x, -y)
            assert abs(lhs - sf.pearcey(x, y)) < 1e-10


_PEARCEY_ARG = st.floats(-400.0, 400.0)


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(x=_PEARCEY_ARG, beta=_PEARCEY_ARG)
def test_pearcey_even_and_sum_of_half_ranges(x, beta):
    # bit for bit: pearcey drops the sign of beta, and two separate
    # half-range calls at +-y size their contours from the same |y|
    p, q = sf.pearcey(x, beta), sf.pearcey(x, -beta)
    assert (p.real, p.imag) == (q.real, q.imag)
    assert p == p1(x, beta) + p1(x, -beta)


@pytest.mark.parametrize("fn", [sf.pearcey, sf.bessoid], ids=["pearcey", "bessoid"])
def test_pearcey_array_matches_scalar_calls(fn):
    # one call for the whole array, its contour or proxy sized by the
    # largest |beta|; a scalar or 0-d beta gives a complex
    beta = np.array([[0.0, 3.0, -7.5], [12.0, -0.5, 20.0]])
    vals = fn(-4.0, beta)
    assert vals.shape == beta.shape and vals.dtype == complex
    each = np.array([[fn(-4.0, b) for b in row] for row in beta])
    assert np.max(np.abs(vals - each)) < 1e-13 * np.max(np.abs(each))
    assert type(fn(-4.0, 3.0)) is complex and fn(-4.0, np.array(3.0)) == fn(-4.0, 3.0)
    empty = fn(-4.0, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    with pytest.raises(sf.DomainError):
        fn(-4.0, np.array([1.0, math.nan]))
    for x, b in ((-4.0, math.inf), (-4.0, -400.5), (math.nan, 1.0), (math.inf, 1.0), (400.5, 1.0)):
        with pytest.raises(sf.DomainError):
            fn(x, np.array([1.0, b]))


def test_pearcey_long_array_takes_the_proxy(proxies):
    # 65 points are 130 contour rows, more than the 2 x 64 that the N = 64
    # proxy accepted at (-3, B = 15) costs (test_p1_chebyshev_proxy_and_budget)
    beta = np.linspace(-15.0, 15.0, 65)
    vals = sf.pearcey(-3.0, beta)
    assert proxies[0].size == 65
    halves = sf._p1_contour(-3.0, beta) + sf._p1_contour(-3.0, -beta)
    assert np.max(np.abs(vals - halves)) < 1e-13 * np.max(np.abs(halves))


# the fig09 x = sqrt(6/P)(1/tau - P) at P = 50, s = 1.0, 1.1, 1.2, 1.4, with
# the window's largest beta, and x = -6 inside the oracle's cancellation limit
_BESSOID_COLUMNS = [(math.sqrt(0.12) * (50.0 / s - 50.0), 0.3 * math.sqrt(2.0) * (50.0 / s) * 0.12 ** 0.25)
                    for s in (1.0, 1.1, 1.2, 1.4)] + [(-6.0, 5.0)]


@pytest.mark.parametrize("x,top", _BESSOID_COLUMNS)
def test_bessoid_against_oracle(x, top, proxies):
    # 41 points take the Chebyshev proxy of dP1/dy, one point at beta <= 10
    # (a midpoint rule of 21-26 phi nodes) the contour; the oracle's own
    # cancellation error reaches ~1e-13 of max |S| at x = -5
    for beta in (np.linspace(0.0, top, 41), np.array([0.6 * top])):
        got = sf.bessoid(x, beta)
        ref = bessoid_oracle(x, beta)
        assert np.max(np.abs(got - ref)) < 3e-13 * np.max(np.abs(ref))
    long, short = proxies
    assert long is not None and short is None


# (x, B, points) from x in {-400, -100, -31.3, -10, 0, 10, 100, 400} x B in
# {10, 100, 400}: points beta = B, ..., 0, few where the contour's rows are
# long (about 10,000 panels each at x = -400), and one point at the corners,
# where the phi rule's direct path runs
_BESSOID_EDGES = [(-400.0, 10.0, 1), (-100.0, 100.0, 1), (-31.3, 10.0, 9), (-31.3, 100.0, 9),
                  (-10.0, 400.0, 1), (0.0, 100.0, 9), (10.0, 100.0, 9), (100.0, 100.0, 9),
                  (100.0, 400.0, 3), (400.0, 10.0, 3), (400.0, 400.0, 1)]


@pytest.mark.parametrize("x,top,points", _BESSOID_EDGES)
def test_bessoid_at_the_domain_edges(x, top, points):
    # against the two-leg oracle, which reaches every |x|, |beta| <= 400:
    # within 5e-11 of max |S| for x <= 10 (the oracle's own 6- against 3-rad
    # panel gap is up to 5e-12 there), and for x >= 100, where |S| is 9e-5
    # to 6e-6 of the integral of |integrand|, within 1e3 eps of that integral
    beta = top * np.linspace(1.0, 0.0, points)
    got = sf.bessoid(x, beta)
    ref, scale = bessoid_contour_oracle(x, beta)
    if x <= 10.0:
        assert np.max(np.abs(got - ref)) <= 5e-11 * np.max(np.abs(ref))
    else:
        assert np.all(np.abs(got - ref) <= 1e3 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("n", [8, 64, 4096])
def test_chebyshev_helpers_on_a_polynomial(n):
    # f = T_3 + 2i T_4 - 1/2 at the n + 1 second-kind points: the cosine sum
    # gives its coefficients, and the even part is 2i T_4 - 1/2
    cheb_t = lambda k, t: np.cos(k * np.arccos(t))
    t = np.cos(np.pi / n * np.arange(n + 1))
    c = sf._cosine_sum(cheb_t(3, t) + 2j * cheb_t(4, t) - 0.5)
    expected = np.zeros(n + 1, dtype=complex)
    expected[[0, 3, 4]] = -0.5, 1.0, 2j
    assert np.max(np.abs(c - expected)) < 1e-15
    s = np.linspace(-1.0, 1.0, 7)
    assert np.max(np.abs(sf._chebyshev_even(c, s) - (2j * cheb_t(4, s) - 0.5))) < 1e-14
    # random complex coefficients of degree n, summed by numpy's chebval in
    # long double at the points in long double (the double-precision sum
    # alone is 1.6e-12 off at n = 4096), are recovered by the FFT
    a = [1.0, 1j] @ np.random.default_rng(n).standard_normal((2, n + 1))
    k = np.arange(n + 1, dtype=np.longdouble)
    f = np.polynomial.chebyshev.chebval(np.cos(np.arccos(np.longdouble(-1.0)) / n * k), a.astype(np.clongdouble))
    assert np.max(np.abs(sf._cosine_sum(f.astype(complex)) - a)) < 1e-14 * np.max(np.abs(a))


def test_p1_chebyshev_proxy_and_budget():
    # twice the proxy's even part is P(x, beta); no proxy when 2N = 64 would
    # reach the row budget, or on [-0, 0]
    c = sf._p1_chebyshev(-3.0, 15.0, 0, 10**6)
    assert c.size == 65
    beta = np.linspace(0.0, 15.0, 31)
    direct = sf.pearcey(-3.0, beta)
    assert np.max(np.abs(2.0 * sf._chebyshev_even(c, beta / 15.0) - direct)) < 1e-13 * np.max(np.abs(direct))
    assert sf._p1_chebyshev(-3.0, 15.0, 0, 64) is None
    assert sf._p1_chebyshev(-3.0, 0.0, 0, 10**6) is None


def test_p1_chebyshev_doubles_until_the_row_budget(monkeypatch):
    # y -> 1 + exp(5000 i y/top) needs N = 8192 (its trailing coefficients
    # are 4e-2 of the largest at N = 4096, 7e-15 at 8192; the 1 lifts the
    # largest coefficient above the rounding of the 5000-rad phase):
    # accepted when 2N is below the caller's rows, None once it is not
    monkeypatch.setattr(sf, "_p1_contour", lambda x, y, power=0: 1.0 + np.exp(5000j * y / 8.0))
    c = sf._p1_chebyshev(0.0, 8.0, 0, 2 * 8192 + 1)
    assert c.size == 8193
    t = np.linspace(-1.0, 1.0, 11)
    assert np.max(np.abs(np.polynomial.chebyshev.chebval(t, c) - 1.0 - np.exp(5000j * t))) < 1e-11
    assert sf._p1_chebyshev(0.0, 8.0, 0, 2 * 8192) is None


def test_p1_chebyshev_accepts_the_noise_plateau():
    # at x = 100, B = 60 the contour once carried a coefficient noise
    # plateau at 2.9e-13 of the largest, which N = 128 was accepted on; the
    # real leg now ends where the phase turns to decay, and the trailing
    # coefficients fall to 1e-15 of the largest by N = 64, so the chop
    # rule alone accepts it.  The proxy is 4e-15 of max |P| from the
    # direct contour
    c = sf._p1_chebyshev(100.0, 60.0, 0, 10**6)
    assert c.size == 65
    assert np.max(np.abs(c[-8:])) <= 1e-13 * np.max(np.abs(c))
    beta = np.linspace(0.0, 60.0, 41)
    direct = sf._p1_contour(100.0, beta, 0) + sf._p1_contour(100.0, -beta, 0)
    assert np.max(np.abs(2.0 * sf._chebyshev_even(c, beta / 60.0) - direct)) < 5e-12 * np.max(np.abs(direct))


def test_real_leg_ends_where_the_phase_turns_to_decay(monkeypatch):
    # at (400, 400) the worst row's phase decays along the ray from R = 1,
    # so the real leg takes 67 panels (26,472 while it ran out to
    # 1 + (B/4)^(1/3) + sqrt(|x|/2))
    panels = []
    layout = sf._gl_panels

    def counted(z0, z1, n_panels):
        if complex(z1).imag == 0:
            panels.append(n_panels)
        return layout(z0, z1, n_panels)

    monkeypatch.setattr(sf, "_gl_panels", counted)
    sf._p1_contour(400.0, 400.0, 0)
    assert 0 < sum(panels) <= 100


# (x, B): the degree N at which the chop rule alone accepts the proxy of P1
# and of dP1/dy on [-B, B] (the same N at both powers)
_CHOPPED = {(-100.0, 100.0): 1024, (-31.3, 100.0): 512, (-10.0, 10.0): 64, (10.0, 100.0): 256,
            (100.0, 100.0): 128, (100.0, 400.0): 512, (400.0, 100.0): 64, (400.0, 400.0): 256}


@pytest.mark.parametrize("x,top", list(_CHOPPED))
def test_p1_chebyshev_is_chopped_across_the_domain(x, top):
    for power in (0, 1):
        c = sf._p1_chebyshev(x, top, power, 10**7)
        assert c.size - 1 == _CHOPPED[x, top]
        assert np.max(np.abs(c[-8:])) <= 1e-13 * np.max(np.abs(c))


def _contour_phase(x, y):
    # R^4 + |x| R^2 + |y| R for R = 1 + (|y|/4)^(1/3) + sqrt(|x|/2): the
    # phase of a real leg deliberately wider than the runtime's, which ends
    # where the phase turns to decay.  It is the contour the oracles take
    # (p1_contour_oracle, p1_contour_complex), so the bounds below hold for
    # either contour's rounding (the runtime's own 12- against 6-rad panel
    # noise stays within 1e-15 of it, asserted below)
    R = 1.0 + (abs(y) / 4.0) ** (1.0 / 3.0) + math.sqrt(abs(x) / 2.0)
    return max(1.0, R ** 4 + abs(x) * R * R + abs(y) * R)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(x=_PEARCEY_ARG, y=_PEARCEY_ARG, power=st.sampled_from([0, 1]))
def test_contour_sizing_has_converged(x, y, power):
    # half the phase per panel and a ray that ends at e^-60 move the value
    # by rounding on the phase R^4 + |x| R^2 + |y| R of the real leg only
    # panels are summed per leg: a long leg goes in several pieces
    phase = _contour_phase(x, y)
    panels = []  # [real leg, ray] per call
    layout = sf._gl_panels

    def counted(z0, z1, n_panels):
        panels[-1][complex(z1).imag > 0] += n_panels
        return layout(z0, z1, n_panels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf, "_gl_panels", counted)
        panels.append([0, 0])
        value = complex(sf._p1_contour(x, y, power))
        mp.setattr(sf, "_PANEL_PHASE", 6.0)
        mp.setattr(sf, "_RAY_DECAY", 60.0)
        panels.append([0, 0])
        finer = complex(sf._p1_contour(x, y, power))
    (leg, ray), (leg_fine, ray_fine) = panels
    assert leg_fine >= leg and ray_fine > ray
    assert abs(finer - value) <= 1e-15 * phase


_SWEEP_Y = np.array([0.0, 10.0, -10.0, 60.0, -60.0, 400.0, -400.0])


@pytest.mark.parametrize("power", [0, 1])
@pytest.mark.parametrize("x", [-400.0, -100.0, 0.0, 100.0, 400.0])
def test_contour_against_complex_exp_oracle(x, power):
    # the real-arithmetic integrand (one contour for the whole row array,
    # sized by |y| = 400) against one complex exp per node (a contour per y)
    got = sf._p1_contour(x, _SWEEP_Y, power)
    want = np.array([p1_contour_complex(x, y, power) for y in _SWEEP_Y])
    assert np.all(np.abs(got - want) <= 1e-15 * _contour_phase(x, 400.0))


@pytest.mark.parametrize("x,y,power", [(100.0, -60.0, 1), (-100.0, 10.0, 0), (0.0, 400.0, 0)])
def test_contour_sweep_points_against_scipy(x, y, power):
    got = complex(sf._p1_contour(x, y, power))
    assert abs(got - p1_contour_oracle(x, y, power=power)) <= 1e-15 * _contour_phase(x, y)


@pytest.mark.parametrize("x,top,power", [(0.0, 10.0, 0), (-3.0, 15.0, 1), (40.0, 40.0, 0),
                                         (100.0, 60.0, 1), (-100.0, 300.0, 0)])
def test_contour_row_is_independent_of_its_neighbours(x, top, power):
    # bit for bit: |y| = top alone (0-d or one row), as the pair pearcey
    # forms, and as the first and last rows of a 65-row Chebyshev sample
    block = sf._p1_contour(x, top * np.cos(np.pi / 64 * np.arange(65)), power)
    pair = sf._p1_contour(x, np.array([top, -top]), power)
    for k, y in ((0, top), (1, -top)):
        alone = (sf._p1_contour(x, y, power), sf._p1_contour(x, np.array([y]), power)[0])
        assert {complex(v) for v in (*alone, pair[k], block[-k])} == {complex(alone[0])}


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
        assert hyp1f1_focus(0.0) == 1.0 + 0.0j

    def test_series_oracle(self):
        assert hyp1f1_focus(5.0) == pytest.approx(HYP_5_ORACLE, abs=1e-12)

    def test_conjugate_symmetry(self):
        assert hyp1f1_focus(-7.0) == pytest.approx(
            hyp1f1_focus(7.0).conjugate(), rel=1e-12)

    def test_both_regimes_against_mpmath(self):
        import mpmath
        for z in (0.5, 12.0, 29.999, 30.001, 60.0, 133.33):
            ref = complex(mpmath.hyp1f1(0.5, 1.5, 1j * z))
            assert hyp1f1_focus(z) == pytest.approx(ref, abs=1e-9)

    def test_large_z_focal_limit(self):
        # |(PL^2/2) 1F1|^2/(4 pi) -> 3P/8 for P L^4/24 -> infinity
        P, L = 1e7, 2.0
        z = P * L ** 4 / 24.0
        dens = abs(P * L * L / 2.0 * hyp1f1_focus(z)) ** 2 / (4 * math.pi)
        assert dens == pytest.approx(3 * P / 8, rel=2e-3)


def test_import_leaves_mpmath_unloaded():
    # the runtime is numpy-only: importing the package must not load
    # mpmath (which would also reset its global precision)
    src = os.path.dirname(os.path.dirname(kickedrotor.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, kickedrotor; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
