"""3D rotor evolution: the kick against the Chebyshev-series oracle, the
spherical-Bessel closed form and the re-expansion table (itself checked
here), kick-coefficient projection oracles, evolution phases, densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_legendre, spherical_jn

from kickedrotor import quantum2d as q2
from kickedrotor import quantum3d as q3
from kickedrotor.classical import Coupling
from oracles import build_recurrence, chebyshev_kick_3d, legendre_density_mp, sphere_norm

FOUR_PI = 4.0 * math.pi
GROUND = q3.LegendrePacket3D(np.ones(1))


def kicked(P, coupling=Coupling.DIPOLE, packet=GROUND):
    return q2.apply_kick(packet, P, coupling)


def padded_gap(a, b):
    # the largest coefficient gap, the shorter vector zero past its end
    n = max(a.size, b.size)
    return np.max(np.abs(np.pad(a, (0, n - a.size)) - np.pad(b, (0, n - b.size))))


class TestRecurrenceTable:
    def test_column_zero(self):
        d = build_recurrence(40)
        assert d[0, 0] == 1.0
        assert np.max(np.abs(d[1:, 0])) == 0.0

    def test_column_sums_are_one(self):
        sums = build_recurrence(220).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_odd_rows_vanish(self):
        assert np.max(np.abs(build_recurrence(220)[1::2, :])) == 0.0

    def test_hand_columns(self):
        # P_1(2x^2-1) = (4 P_2 - P_0)/3; P_2(2x^2-1) = (48 P_4 - 20 P_2 + 7 P_0)/35
        d = build_recurrence(8)
        assert d[0, 1] == pytest.approx(-1 / 3)
        assert d[2, 1] == pytest.approx(4 / 3)
        assert d[0, 2] == pytest.approx(7 / 35)
        assert d[2, 2] == pytest.approx(-20 / 35)
        assert d[4, 2] == pytest.approx(48 / 35)

    def test_reexpansion_identity(self):
        # P_l(2x^2 - 1) = sum_L d[L, l] P_L(x) pointwise
        d = build_recurrence(60)
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
        assert np.max(np.abs(build_recurrence(L_max) - oracle)) < 1e-11

    def test_immutable(self):
        d = build_recurrence(20)
        with pytest.raises(ValueError):
            d[0, 0] = 2.0

    def test_rejects_odd_lmax(self):
        with pytest.raises(ValueError):
            build_recurrence(21)


class TestDipoleKick:
    def test_zero_strength(self):
        # the packet itself, as in 2D
        assert kicked(0.0) is GROUND and np.array_equal(GROUND.coeffs, [1.0])

    def test_tiny_kick_keeps_the_dipole_order(self):
        # c_1 = i sqrt(3) j_1(P) = i P/sqrt(3) to first order in P
        c = kicked(1e-13).coeffs
        assert c[1] == pytest.approx(1j * 1e-13 / math.sqrt(3.0), rel=1e-15, abs=0.0)
        assert c[2] == pytest.approx(-math.sqrt(5.0) * 1e-26 / 15.0, rel=1e-15, abs=0.0)

    def test_coefficients(self):
        P = 75.0
        p = kicked(P)
        l = p.orders
        expected = (1j) ** (l % 4) * np.sqrt(2 * l + 1.0) * spherical_jn(l, P)
        assert np.max(np.abs(p.coeffs - expected)) < 1e-12

    def test_uniform_density_right_after_kick(self):
        p = kicked(75.0)
        d = q2.density(p, np.linspace(0.01, math.pi - 0.01, 64))
        assert np.allclose(d, 1.0 / FOUR_PI, atol=1e-10)

    def test_projection_oracle(self):
        # c_l = int Y_l^0 e^{iP cos th} 2 pi sin th dth / sqrt(4 pi)
        P = 11.0
        p = kicked(P)
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
        p = q2.free_evolve(kicked(P), 1.0 / P)
        d0 = q2.density(p, np.array([0.0]))[0]
        assert d0 == pytest.approx(3.0 * P / 8.0, rel=0.15)


class TestPolarizationKick:
    def test_zero_strength(self):
        p = q2.free_evolve(kicked(20.0, Coupling.POLARIZATION), 0.3)
        assert kicked(0.0, Coupling.POLARIZATION, p) is p

    def test_even_harmonics_only(self):
        p = kicked(20.0, Coupling.POLARIZATION)
        assert np.max(np.abs(p.coeffs[1::2])) == 0.0

    @pytest.mark.parametrize("P", [5.0, 20.0])
    def test_projection_oracle(self, P):
        p = kicked(P, Coupling.POLARIZATION)
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
        p = q2.free_evolve(kicked(P, Coupling.POLARIZATION), 0.8 / P)
        th = np.linspace(0.05, 1.5, 33)
        d1 = q2.density(p, th)
        d2 = q2.density(p, math.pi - th)
        assert np.max(np.abs(d1 - d2)) < 1e-10

    def test_double_focus_at_polarization_focal_time(self):
        # peaks near both poles at tau = 1/(2P)
        P = 75.0
        p = q2.free_evolve(kicked(P, Coupling.POLARIZATION), 1.0 / (2 * P))
        grid = np.linspace(0.0, math.pi, 721)
        d = q2.density(p, grid)
        # both ends dominate the equator region by a large factor
        assert d[0] > 20 * np.median(d)
        assert d[-1] > 20 * np.median(d)


class TestKickOracles:
    # the runtime kick of the ground state against scipy's spherical j_l and
    # against the re-expansion table; a second kick, after a flight, against
    # the Chebyshev-series oracle, which shares no code with the kick
    @pytest.mark.parametrize("P", [10.0, 50.0, 200.0, 800.0])
    def test_dipole_ground_is_spherical_bessel(self, P):
        c = kicked(P).coeffs
        l = np.arange(c.size)
        assert c.size == q2.kick_order_margin(P) + 1
        assert np.max(np.abs(c - 1j ** (l % 4) * np.sqrt(2 * l + 1.0) * spherical_jn(l, P))) < 2e-15

    @pytest.mark.parametrize("P", [10.0, 50.0, 200.0, 800.0])
    def test_polarization_ground_is_the_table(self, P):
        # e^{iP/2} (2L+1)^{-1/2} sum_m i^m (2m+1) j_m(P/2) d[L, m], the
        # plane-wave expansion of exp(i(P/2) cos 2 theta) re-expanded in P_L
        c = kicked(P, Coupling.POLARIZATION).coeffs
        half = q2.kick_order_margin(P / 2.0)
        m, L = np.arange(half + 1), np.arange(2 * half + 1)
        weights = 1j ** (m % 4) * (2 * m + 1.0) * spherical_jn(m, P / 2.0)
        table = np.exp(0.5j * P) / np.sqrt(2 * L + 1.0) * (build_recurrence(2 * half) @ weights)
        assert c.size == table.size
        assert np.max(np.abs(c - table)) < 2e-15
        assert np.max(np.abs(c[1::2])) == 0.0

    @pytest.mark.parametrize("P", [10.0, 200.0])
    @pytest.mark.parametrize("coupling", list(Coupling))
    def test_oracle_from_the_ground_state(self, P, coupling):
        # the oracle agrees with the closed form, so it can check a second kick
        assert padded_gap(chebyshev_kick_3d(np.ones(1), P, coupling), kicked(P, coupling).coeffs) < 1e-14

    @pytest.mark.parametrize("P", [25.0, 100.0])
    @pytest.mark.parametrize("coupling", list(Coupling))
    def test_second_kick_matches_the_chebyshev_oracle(self, P, coupling):
        flown = q2.free_evolve(kicked(P, coupling), 0.7 / P)
        oracle = chebyshev_kick_3d(flown.coeffs, P, coupling)
        assert padded_gap(kicked(P, coupling, flown).coeffs, oracle) < 1e-14
        # a kick 1e-9 too strong is seen
        assert padded_gap(kicked(P * (1.0 + 1e-9), coupling, flown).coeffs, oracle) > 1e-14


class TestChangeOfBasis:
    # the 3D packet's coefficients of e^{in theta}, and back
    def test_harmonics_are_the_same_function(self):
        # sum_n d_n e^{in theta} = sum_l c_l sqrt(2l+1) P_l(cos theta)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        d = q3.LegendrePacket3D(c)._harmonics
        theta = np.linspace(0.0, math.pi, 37)
        n = np.arange(-40, 41)
        l = np.arange(41)
        lhs = np.exp(1j * np.outer(theta, n)) @ d
        rhs = (np.sqrt(2 * l + 1.0) * eval_legendre(l, np.cos(theta)[:, None])) @ c
        assert d.size == 81 and np.array_equal(d, d[::-1])
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("l_max", [0, 1, 2, 7, 300])
    def test_round_trip(self, l_max):
        rng = np.random.default_rng(l_max)
        p = q3.LegendrePacket3D(rng.standard_normal(l_max + 1) + 1j * rng.standard_normal(l_max + 1))
        back = q3.LegendrePacket3D._from_harmonics(p._harmonics)
        assert type(back) is q3.LegendrePacket3D and back.l_max == l_max
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-14 * np.max(np.abs(p.coeffs))

    @pytest.mark.parametrize("P", [-1.0, math.nan])
    def test_bad_strength_rejected(self, P):
        with pytest.raises(ValueError, match="kick strength must be >= 0"):
            kicked(P)


class TestFreeEvolve3D:
    def test_identity(self):
        p = kicked(30.0)
        assert np.array_equal(q2.free_evolve(p, 0.0).coeffs, p.coeffs)

    def test_revival_at_two_pi(self):
        p = q2.free_evolve(kicked(40.0), 0.13)
        rev = q2.free_evolve(p, 2.0 * math.pi)
        grid = np.linspace(0, math.pi, 301)
        d0 = q2.density(p, grid)
        d1 = q2.density(rev, grid)
        assert np.max(np.abs(d0 - d1)) < 1e-8

    def test_norm_conserved(self):
        p = q2.free_evolve(kicked(75.0), 0.4)
        assert abs(p.norm() - 1.0) < 1e-10

    def test_focus_lands_at_north_pole(self):
        # the sign convention: dipole kick with P > 0 focuses at theta = 0
        P = 75.0
        p = q2.free_evolve(kicked(P), 1.0 / P)
        grid = np.linspace(0, math.pi, 721)
        d = q2.density(p, grid)
        assert np.argmax(d) == 0

    def test_glory_snapshot_at_late_time(self):
        # at P tau = 4 the forward peak persists alongside the rainbow
        P = 75.0
        p = q2.free_evolve(kicked(P), 4.0 / P)
        grid = np.linspace(0, math.pi, 1441)
        d = q2.density(p, grid)
        assert d[0] > 10 * np.median(d)  # glory peak at the pole
        rainbow_zone = (grid > 2.2) & (grid < 2.6)
        assert d[rainbow_zone].max() > 3 * np.median(d)


class TestDensity3D:
    @pytest.mark.parametrize("P,s,coupling", [(50.0, 1.0, Coupling.DIPOLE), (75.0, 2.0, Coupling.DIPOLE),
                                              (75.0, 2.4, Coupling.POLARIZATION), (800.0, 1.0, Coupling.DIPOLE)])
    def test_matches_the_legendre_oracle(self, P, s, coupling):
        # the Fourier sum of quantum2d.wavefunction against the Legendre
        # series at 30 digits, on 60 angles from pole to pole
        p = q2.free_evolve(kicked(P, coupling), s / P)
        grid = np.linspace(0.0, math.pi, 60)
        ref = legendre_density_mp(p.coeffs, grid)
        assert np.max(np.abs(q2.density(p, grid) - ref)) <= 2e-14 * np.max(ref)

    def test_ground_state_uniform(self):
        p = kicked(0.0, Coupling.POLARIZATION)
        d = q2.density(p, np.linspace(0, math.pi, 50))
        assert np.allclose(d, 1.0 / FOUR_PI, atol=1e-14)

    def test_weighted_normalization(self):
        P = 75.0
        p = q2.free_evolve(kicked(P), 2.0 / P)
        norm = sphere_norm(lambda th: q2.density(p, th), p.l_max)
        assert abs(norm - 1.0) < 1e-8

    def test_norm_check_reads_no_grid(self):
        # the density integrates to 1 (Gauss-Legendre on the oracle's own
        # nodes), and the packet's Parseval check, which reads no grid,
        # rejects a packet whose norm is 1.0201 as a numerical fault
        p = q2.free_evolve(kicked(75.0, Coupling.POLARIZATION), 2.0 / 75.0)
        norm = sphere_norm(lambda th: q2.density(p, th), p.l_max)
        assert abs(norm - 1.0) < 1e-8
        assert p.check() is p
        off = q3.LegendrePacket3D(1.01 * p.coeffs)
        with pytest.raises(q2.TruncationError, match="packet norm") as fault:
            off.check()
        assert float(str(fault.value).split()[2]) == pytest.approx(1.0201, rel=1e-12)

    def test_l_max_follows_the_coefficients(self):
        assert q3.LegendrePacket3D(np.ones(1)).l_max == 0
        p = kicked(20.0)
        assert p.l_max == p.coeffs.size - 1 == q2.kick_order_margin(20.0)
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
        with pytest.raises(q2.TruncationError, match="norm nan"):
            q3.LegendrePacket3D(c).check()

    def test_rejects_out_of_range_grid(self):
        # the sphere's angles are [0, pi] within 1e-12; the circle's any angle
        p = kicked(5.0)
        for bad in (-0.2, -2e-12, math.pi + 2e-12, 7.0):
            with pytest.raises(ValueError, match=r"3D grid angles must lie in \[0, pi\]"):
                q2.density(p, np.array([0.5, bad]))
        assert np.all(np.isfinite(q2.density(p, np.array([-1e-12, math.pi + 1e-12]))))
        flat = q2.FourierPacket2D(np.ones(1))
        assert np.allclose(q2.density(flat, np.array([-0.2, 7.0, -100.0])), 1.0 / (2.0 * math.pi))

    def test_n_max_is_l_max(self):
        # psi's highest harmonic e^{i l_max theta}, which the shared sum reads
        for p in (GROUND, kicked(5.0), kicked(20.0, Coupling.POLARIZATION)):
            assert p.n_max == p.l_max == p._harmonics.size // 2


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(P=st.floats(0.0, 200.0), polarization=st.booleans(), dtau=st.floats(-50.0, 50.0))
def test_kick_and_evolve_preserve_norm(P, polarization, dtau):
    # the ground state kicked, evolved freely and kicked again
    coupling = Coupling.POLARIZATION if polarization else Coupling.DIPOLE
    first = kicked(P, coupling)
    assert abs(first.norm() - 1.0) < 1e-12
    flown = q2.free_evolve(first, dtau)
    assert abs(flown.norm() - 1.0) < 1e-12
    assert abs(kicked(P, coupling, flown).norm() - 1.0) < 1e-12
