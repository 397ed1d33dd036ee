"""3D rotor evolution: recurrence table, kick-coefficient projection
oracles, evolution phases, densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_legendre, spherical_jn

from kickedrotor import quantum3d as q3
from oracles import sphere_norm

FOUR_PI = 4.0 * math.pi


class TestRecurrenceTable:
    def test_column_zero(self):
        d = q3.build_recurrence(40)
        assert d[0, 0] == 1.0
        assert np.max(np.abs(d[1:, 0])) == 0.0

    def test_column_sums_are_one(self):
        sums = q3.build_recurrence(220).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_odd_rows_vanish(self):
        assert np.max(np.abs(q3.build_recurrence(220)[1::2, :])) == 0.0

    def test_hand_columns(self):
        # P_1(2x^2-1) = (4 P_2 - P_0)/3; P_2(2x^2-1) = (48 P_4 - 20 P_2 + 7 P_0)/35
        d = q3.build_recurrence(8)
        assert d[0, 1] == pytest.approx(-1 / 3)
        assert d[2, 1] == pytest.approx(4 / 3)
        assert d[0, 2] == pytest.approx(7 / 35)
        assert d[2, 2] == pytest.approx(-20 / 35)
        assert d[4, 2] == pytest.approx(48 / 35)

    def test_reexpansion_identity(self):
        # P_l(2x^2 - 1) = sum_L d[L, l] P_L(x) pointwise
        d = q3.build_recurrence(60)
        x = np.linspace(-1, 1, 101)
        for l in (3, 10, 25):
            lhs = eval_legendre(l, 2 * x * x - 1)
            rhs = sum(d[L, l] * eval_legendre(L, x) for L in range(0, 2 * l + 1, 2))
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("L_max", [8, 60, 220])
    def test_gauss_legendre_projection_oracle(self, L_max):
        # d[L, l] = (2L+1)/2 int_{-1}^{1} P_L(x) P_l(2x^2 - 1) dx: the
        # integrand has degree L + 2l <= 2 L_max, which L_max + 2 nodes
        # integrate exactly
        x, w = np.polynomial.legendre.leggauss(L_max + 2)
        L = np.arange(L_max + 1)[:, None]
        l = np.arange(L_max // 2 + 1)[:, None]
        oracle = (2 * L + 1) / 2.0 * ((w * eval_legendre(L, x)) @ eval_legendre(l, 2 * x * x - 1).T)
        assert np.max(np.abs(q3.build_recurrence(L_max) - oracle)) < 1e-11

    def test_immutable(self):
        d = q3.build_recurrence(20)
        with pytest.raises(ValueError):
            d[0, 0] = 2.0

    def test_rejects_odd_lmax(self):
        with pytest.raises(ValueError):
            q3.build_recurrence(21)


class TestDipoleKick:
    def test_zero_strength(self):
        p = q3.dipole_kick_ground(0.0)
        assert p.coeffs[0] == 1.0
        assert np.max(np.abs(p.coeffs[1:])) == 0.0

    def test_tiny_kick_keeps_the_dipole_order(self):
        # c_1 = i sqrt(3) j_1(P) = i P/sqrt(3) to first order in P
        c = q3.dipole_kick_ground(1e-13).coeffs
        assert c[1] == pytest.approx(1j * 1e-13 / math.sqrt(3.0), rel=1e-15, abs=0.0)
        assert c[2] == pytest.approx(-math.sqrt(5.0) * 1e-26 / 15.0, rel=1e-15, abs=0.0)

    def test_coefficients(self):
        P = 75.0
        p = q3.dipole_kick_ground(P)
        l = p.orders
        expected = (1j) ** (l % 4) * np.sqrt(2 * l + 1.0) * spherical_jn(l, P)
        assert np.max(np.abs(p.coeffs - expected)) < 1e-12

    def test_uniform_density_right_after_kick(self):
        p = q3.dipole_kick_ground(75.0)
        d = q3.density_3d(p, np.linspace(0.01, math.pi - 0.01, 64))
        assert np.allclose(d, 1.0 / FOUR_PI, atol=1e-10)

    def test_projection_oracle(self):
        # c_l = int Y_l^0 e^{iP cos th} 2 pi sin th dth / sqrt(4 pi)
        P = 11.0
        p = q3.dipole_kick_ground(P)
        for l in (0, 1, 5, 12):
            yl = math.sqrt((2 * l + 1) / FOUR_PI)

            def f(t):
                return (yl * eval_legendre(l, np.cos(t))
                        * np.exp(1j * P * np.cos(t)) * 2 * np.pi * np.sin(t)
                        / math.sqrt(FOUR_PI))

            re, _ = quad(lambda t: f(t).real, 0, np.pi, limit=300)
            im, _ = quad(lambda t: f(t).imag, 0, np.pi, limit=300)
            assert p.coeffs[l] == pytest.approx(complex(re, im), abs=1e-8)

    def test_focal_peak_proportional_to_P(self):
        P = 75.0
        p = q3.free_evolve_3d(q3.dipole_kick_ground(P), 1.0 / P)
        d0 = q3.density_3d(p, np.array([0.0]))[0]
        assert d0 == pytest.approx(3.0 * P / 8.0, rel=0.15)


class TestPolarizationKick:
    def test_zero_strength(self):
        p = q3.polarization_kick_ground(0.0)
        assert p.coeffs[0] == 1.0
        assert np.max(np.abs(p.coeffs[1:])) == 0.0

    def test_even_harmonics_only(self):
        p = q3.polarization_kick_ground(20.0)
        assert np.max(np.abs(p.coeffs[1::2])) == 0.0

    @pytest.mark.parametrize("P", [5.0, 20.0])
    def test_projection_oracle(self, P):
        p = q3.polarization_kick_ground(P)
        for L in (0, 2, 10, 16):
            yl = math.sqrt((2 * L + 1) / FOUR_PI)

            def f(t):
                return (yl * eval_legendre(L, np.cos(t))
                        * np.exp(1j * P * np.cos(t) ** 2) * 2 * np.pi * np.sin(t)
                        / math.sqrt(FOUR_PI))

            re, _ = quad(lambda t: f(t).real, 0, np.pi, limit=300)
            im, _ = quad(lambda t: f(t).imag, 0, np.pi, limit=300)
            assert p.coeffs[L] == pytest.approx(complex(re, im), abs=1e-8)

    def test_density_symmetric_about_equator(self):
        P = 75.0
        p = q3.free_evolve_3d(q3.polarization_kick_ground(P), 0.8 / P)
        th = np.linspace(0.05, 1.5, 33)
        d1 = q3.density_3d(p, th)
        d2 = q3.density_3d(p, math.pi - th)
        assert np.max(np.abs(d1 - d2)) < 1e-10

    def test_double_focus_at_polarization_focal_time(self):
        # peaks near both poles at tau = 1/(2P)
        P = 75.0
        p = q3.free_evolve_3d(q3.polarization_kick_ground(P), 1.0 / (2 * P))
        grid = np.linspace(0.0, math.pi, 721)
        d = q3.density_3d(p, grid)
        # both ends dominate the equator region by a large factor
        assert d[0] > 20 * np.median(d)
        assert d[-1] > 20 * np.median(d)


class TestFreeEvolve3D:
    def test_identity(self):
        p = q3.dipole_kick_ground(30.0)
        assert np.array_equal(q3.free_evolve_3d(p, 0.0).coeffs, p.coeffs)

    def test_revival_at_two_pi(self):
        p = q3.free_evolve_3d(q3.dipole_kick_ground(40.0), 0.13)
        rev = q3.free_evolve_3d(p, 2.0 * math.pi)
        grid = np.linspace(0, math.pi, 301)
        d0 = q3.density_3d(p, grid)
        d1 = q3.density_3d(rev, grid)
        assert np.max(np.abs(d0 - d1)) < 1e-8

    def test_norm_conserved(self):
        p = q3.free_evolve_3d(q3.dipole_kick_ground(75.0), 0.4)
        assert abs(p.norm() - 1.0) < 1e-10

    def test_focus_lands_at_north_pole(self):
        # the sign convention: dipole kick with P > 0 focuses at theta = 0
        P = 75.0
        p = q3.free_evolve_3d(q3.dipole_kick_ground(P), 1.0 / P)
        grid = np.linspace(0, math.pi, 721)
        d = q3.density_3d(p, grid)
        assert np.argmax(d) == 0

    def test_glory_snapshot_at_late_time(self):
        # at P tau = 4 the forward peak persists alongside the rainbow
        P = 75.0
        p = q3.free_evolve_3d(q3.dipole_kick_ground(P), 4.0 / P)
        grid = np.linspace(0, math.pi, 1441)
        d = q3.density_3d(p, grid)
        assert d[0] > 10 * np.median(d)  # glory peak at the pole
        rainbow_zone = (grid > 2.2) & (grid < 2.6)
        assert d[rainbow_zone].max() > 3 * np.median(d)


class TestDensity3D:
    def test_ground_state_uniform(self):
        p = q3.polarization_kick_ground(0.0)
        d = q3.density_3d(p, np.linspace(0, math.pi, 50))
        assert np.allclose(d, 1.0 / FOUR_PI, atol=1e-14)

    def test_weighted_normalization(self):
        P = 75.0
        p = q3.free_evolve_3d(q3.dipole_kick_ground(P), 2.0 / P)
        norm = sphere_norm(lambda th: q3.density_3d(p, th), p.l_max)
        assert abs(norm - 1.0) < 1e-8

    def test_norm_check_reads_no_grid(self):
        # the density integrates to 1 (Gauss-Legendre on the oracle's own
        # nodes), and the packet's Parseval check, which reads no grid,
        # rejects a packet whose norm is 1.0201 as a numerical fault
        p = q3.free_evolve_3d(q3.polarization_kick_ground(75.0), 2.0 / 75.0)
        norm = sphere_norm(lambda th: q3.density_3d(p, th), p.l_max)
        assert abs(norm - 1.0) < 1e-8
        assert p.check() is p
        off = q3.LegendrePacket3D(1.01 * p.coeffs)
        with pytest.raises(q3.TruncationError, match="norm 1.0201"):
            off.check()

    def test_l_max_follows_the_coefficients(self):
        assert q3.LegendrePacket3D(np.ones(1)).l_max == 0
        p = q3.dipole_kick_ground(20.0)
        assert p.l_max == p.coeffs.size - 1 == q3.kick_order_margin(20.0)
        assert np.array_equal(p.orders, np.arange(p.l_max + 1))

    @pytest.mark.parametrize("coeffs", [np.ones(0), np.ones((2, 2)), 1.0])
    def test_rejects_empty_or_non_vector_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            q3.LegendrePacket3D(coeffs)

    def test_copies_the_callers_array(self):
        c = np.array([1.0, 0.0], dtype=complex)
        p = q3.LegendrePacket3D(c)
        c[1] = 0.5
        assert c.flags.writeable and c[1] == 0.5
        assert np.array_equal(p.coeffs, [1.0, 0.0]) and not p.coeffs.flags.writeable

    def test_nan_packet_fails_its_check(self):
        c = np.zeros(3, dtype=complex)
        c[0], c[1] = 1.0, np.nan
        with pytest.raises(q3.TruncationError, match="norm nan"):
            q3.LegendrePacket3D(c).check()

    def test_rejects_out_of_range_grid(self):
        p = q3.dipole_kick_ground(5.0)
        with pytest.raises(ValueError):
            q3.density_3d(p, np.array([-0.2]))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(P=st.floats(0.0, 200.0), polarization=st.booleans(), dtau=st.floats(-50.0, 50.0))
def test_kick_and_evolve_preserve_norm(P, polarization, dtau):
    kicked = (q3.polarization_kick_ground if polarization else q3.dipole_kick_ground)(P)
    assert abs(kicked.norm() - 1.0) < 1e-12
    assert abs(q3.free_evolve_3d(kicked, dtau).norm() - 1.0) < 1e-12
