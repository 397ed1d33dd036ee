"""Exact 2D quantum evolution against propagator quadrature and
closed-form focal values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import jv

from kickedrotor import quantum2d as q2
from kickedrotor import quantum3d as q3
from kickedrotor.classical import Coupling
from oracles import circle_norm, wavefunction_direct

TWO_PI = 2.0 * math.pi


def kicked_ground(P, coupling=Coupling.DIPOLE):
    return q2.apply_kick(q2.ground_packet(), P, coupling)


class TestGroundPacket:
    def test_normalized(self):
        g = q2.ground_packet()
        assert g.norm() == 1.0

    def test_uniform_density(self):
        g = q2.ground_packet()
        d = q2.density(g, np.linspace(0, TWO_PI, 200, endpoint=False))
        assert np.allclose(d, 1.0 / TWO_PI, atol=1e-14)

    def test_stationary_under_free_evolution(self):
        g = q2.ground_packet()
        ev = q2.free_evolve(g, 3.7)
        d0 = q2.density(g, np.linspace(0, TWO_PI, 64, endpoint=False))
        d1 = q2.density(ev, np.linspace(0, TWO_PI, 64, endpoint=False))
        assert np.allclose(d0, d1, atol=1e-15)


class TestPacket:
    def test_orders_follow_the_coefficients(self):
        for n_max in (0, 1, 7):
            p = q2.FourierPacket2D(np.ones(2 * n_max + 1) / math.sqrt(2 * n_max + 1))
            assert p.n_max == n_max
            assert np.array_equal(p.orders, np.arange(-n_max, n_max + 1))
        assert kicked_ground(20.0).n_max == q2.kick_order_margin(20.0)

    @pytest.mark.parametrize("coeffs", [np.ones(2), np.ones(0), np.ones((3, 3)), 1.0])
    def test_rejects_even_or_non_vector_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="odd length"):
            q2.FourierPacket2D(coeffs)

    def test_copies_the_callers_array(self):
        c = np.array([0.0, 1.0, 0.0], dtype=complex)
        p = q2.FourierPacket2D(c)
        c[0] = 0.5
        assert c.flags.writeable and c[0] == 0.5
        assert np.array_equal(p.coeffs, [0.0, 1.0, 0.0]) and not p.coeffs.flags.writeable


class TestSharedPacketBody:
    # the one packet body, run on both kinds: the 2D Fourier packet and the
    # 3D Legendre packet
    KINDS = [q2.FourierPacket2D, q3.LegendrePacket3D]

    @pytest.mark.parametrize("kind,coeffs", [
        (q2.FourierPacket2D, np.ones(4)), (q2.FourierPacket2D, np.ones(0)),
        (q2.FourierPacket2D, np.ones((3, 3))), (q3.LegendrePacket3D, np.ones(0)),
        (q3.LegendrePacket3D, np.ones((2, 2))), (q3.LegendrePacket3D, 1.0)])
    def test_bad_shape_raises(self, kind, coeffs):
        with pytest.raises(ValueError, match="1-D array"):
            kind(coeffs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_is_read_only(self, kind):
        c = np.array([0.0, 1.0, 0.0])
        p = kind(c)
        c[1] = 0.5
        assert np.array_equal(p.coeffs, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            p.coeffs[1] = 0.5

    @pytest.mark.parametrize("kind", KINDS)
    def test_free_evolve_keeps_the_kind(self, kind):
        p = q2.free_evolve(kind(np.array([0.0, 1.0, 0.0])), 0.7)
        assert type(p) is kind and p.coeffs.size == 3

    def test_free_evolve_phases_bit_for_bit(self):
        # the two free spectra, 2E = n^2 and l(l+1), from the orders alone;
        # coefficients first, as numpy's complex product need not commute
        dtau = 0.377
        p2 = kicked_ground(20.0)
        n = np.arange(-p2.n_max, p2.n_max + 1)
        assert np.array_equal(q2.free_evolve(p2, dtau).coeffs,
                              p2.coeffs * np.exp(-0.5j * n * n * dtau))
        p3 = q3.polarization_kick_ground(20.0)
        l = np.arange(p3.coeffs.size)
        assert np.array_equal(q2.free_evolve(p3, dtau).coeffs,
                              p3.coeffs * np.exp(-0.5j * l * (l + 1.0) * dtau))

    @pytest.mark.parametrize("kind,low_is_edge", [(q2.FourierPacket2D, True),
                                                  (q3.LegendrePacket3D, False)])
    def test_edge_coefficients(self, kind, low_is_edge):
        # the top order is an edge of both kinds; the lowest stored order is
        # an edge of the 2D packet (n = -n_max), the bulk of the 3D one (l = 0)
        with pytest.raises(q2.TruncationError, match="edge"):
            kind(np.array([0.0, 0.6, 0.8])).check()
        low = kind(np.array([0.6, 0.8j, 0.0]))
        if low_is_edge:
            with pytest.raises(q2.TruncationError, match="edge"):
                low.check()
        else:
            assert low.check() is low


class TestApplyKick:
    def test_dipole_ground_reproduces_bessel_coefficients(self):
        P = 85.0
        packet = kicked_ground(P)
        n = packet.orders
        # i^n J_n(P) = i^|n| J_|n|(P) since i^(-n) (-1)^n = i^n
        expected = (1j) ** np.abs(n) * jv(np.abs(n), P)
        assert np.max(np.abs(packet.coeffs - expected)) < 1e-12

    def test_zero_strength_is_identity(self):
        g = q2.ground_packet()
        assert q2.apply_kick(g, 0.0) is g

    def test_kick_is_pure_phase_at_time_zero(self):
        packet = kicked_ground(1.0)
        d = q2.density(packet, np.linspace(0, TWO_PI, 128, endpoint=False))
        assert np.allclose(d, 1.0 / TWO_PI, atol=1e-12)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError, match="kick strength must be >= 0"):
            q2.apply_kick(q2.ground_packet(), -1.0)

    def test_nan_packet_fails_the_checks(self):
        # a NaN norm compares false both ways: the checks must fail closed
        c = np.zeros(5, dtype=complex)
        c[2], c[3] = 1.0, np.nan
        packet = q2.FourierPacket2D(c)
        with pytest.raises(q2.TruncationError, match="norm nan"):
            packet.check()
        with pytest.raises(q2.TruncationError, match="leaked"):
            q2.apply_kick(packet, 1.0)

    def test_norm_preserved(self):
        for P in (1.0, 20.0, 85.0):
            for c in (Coupling.DIPOLE, Coupling.POLARIZATION):
                packet = kicked_ground(P, c)
                assert abs(packet.norm() - 1.0) < 1e-10

    def test_polarization_even_harmonics_only(self):
        packet = kicked_ground(10.0, Coupling.POLARIZATION)
        n = packet.orders
        odd = packet.coeffs[n % 2 != 0]
        assert np.max(np.abs(odd)) == 0.0

    def test_polarization_against_projection_oracle(self):
        # c_n = (1/2pi) int e^{iP cos^2 th} e^{-i n th} dth
        P = 7.0
        packet = kicked_ground(P, Coupling.POLARIZATION)
        for n in (0, 2, 6):
            f = lambda t: np.exp(1j * (P * np.cos(t) ** 2 - n * t)) / TWO_PI
            re, _ = quad(lambda t: f(t).real, 0, TWO_PI, limit=200)
            im, _ = quad(lambda t: f(t).imag, 0, TWO_PI, limit=200)
            mine = packet.coeffs[n + packet.n_max]
            assert mine == pytest.approx(complex(re, im), abs=1e-10)


class TestFreeEvolve:
    def test_identity_at_zero(self):
        p = kicked_ground(10.0)
        ev = q2.free_evolve(p, 0.0)
        assert np.array_equal(ev.coeffs, p.coeffs)

    def test_full_revival(self):
        p = q2.free_evolve(kicked_ground(30.0), 0.37)
        rev = q2.free_evolve(p, 4 * math.pi)
        grid = np.linspace(0, TWO_PI, 512, endpoint=False)
        d0 = q2.density(p, grid)
        d1 = q2.density(rev, grid)
        assert np.max(np.abs(d0 - d1)) < 1e-8

    def test_focal_peak_value(self):
        P = 85.0
        p = q2.free_evolve(kicked_ground(P), 1.0 / P)
        d0 = q2.density(p, np.array([0.0]))[0]
        assert d0 == pytest.approx(0.4078 * math.sqrt(P), rel=0.05)

    def test_norm_conserved(self):
        p = q2.free_evolve(kicked_ground(50.0), 0.123)
        assert abs(p.norm() - 1.0) < 1e-10


class TestDensity:
    def test_parity_of_kicked_packet(self):
        p = q2.free_evolve(kicked_ground(40.0), 0.05)
        th = np.linspace(0.1, 3.0, 37)
        d1 = q2.density(p, th)
        d2 = q2.density(p, TWO_PI - th)
        assert np.max(np.abs(d1 - d2)) < 1e-10

    def test_norm_check_passes_on_fine_grid(self):
        p = q2.free_evolve(kicked_ground(20.0), 0.4)
        grid = np.linspace(0, TWO_PI, 4 * p.n_max + 8, endpoint=False)
        assert abs(circle_norm(q2.density(p, grid)) - 1.0) < 1e-8

    def test_two_symmetric_rainbow_maxima(self):
        # P = 85 at P tau = 2: maxima straddle +-theta_r(2)
        from kickedrotor.classical import rainbow_angle
        from kickedrotor.semiclassical import airy_fringe_width
        P = 85.0
        tau = 2.0 / P
        thr = rainbow_angle(2.0)
        w = airy_fringe_width(tau, P)
        p = q2.free_evolve(kicked_ground(P), tau)
        grid = np.linspace(0.05, TWO_PI - 0.05, 2400)
        d = q2.density(p, grid)
        peak1 = grid[np.argmax(np.where(grid < np.pi, d, 0))]
        peak2 = grid[np.argmax(np.where(grid > np.pi, d, 0))]
        assert abs(peak1 - thr) < w
        assert abs(peak2 - (TWO_PI - thr)) < w
        assert abs((TWO_PI - peak2) - peak1) < 0.02  # mirror symmetry

    def test_fractional_revival_snapshot(self):
        # half-revival of the focused packet: structured, normalized, even
        P = 85.0
        p = q2.free_evolve(kicked_ground(P), 1.0 / P + 2 * math.pi)
        grid = np.linspace(0, TWO_PI, 4 * p.n_max + 8, endpoint=False)
        d = q2.density(p, grid)
        assert abs(circle_norm(d) - 1.0) < 1e-8
        assert d.max() > 3.0 * d.mean()
        sym = np.abs(d[1:] - d[1:][::-1])
        assert np.max(sym) < 1e-9


def _line_propagator_psi(theta, tau, P, n_periods=16):
    """Direct quadrature of the unrestricted free propagator applied to
    the kicked ground state:

      psi(th) = (1/(2 pi sqrt(i tau))) int dth0 e^{i(P cos th0
                + (th - th0)^2/(2 tau))},

    truncated W past the stationary zone (composite Gauss panels sized to
    the local phase slope) with two integration-by-parts boundary terms
    closing the Fresnel tails."""
    W = math.pi * math.ceil((P * tau + 12 * math.sqrt(tau) + n_periods * math.pi) / math.pi)
    xs, ws = np.polynomial.legendre.leggauss(24)
    slope = P + 2 * W / tau
    n_pan = max(64, int(slope * 2 * W / 5.0))
    edges = np.linspace(theta - W, theta + W, n_pan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    t = (mid + half * xs[None, :]).ravel()
    f = np.exp(1j * (P * np.cos(t) + (theta - t) ** 2 / (2 * tau)))
    I = np.sum(f * np.broadcast_to(ws, (n_pan, 24)).ravel()) * half

    def boundary(u, order):
        th0 = theta + u
        g = np.exp(1j * P * np.cos(th0))
        gp = -1j * P * np.sin(th0) * g
        phase = np.exp(1j * u * u / (2 * tau))
        phi_p = u / tau
        if order == 1:
            return phase * g / (1j * phi_p)
        # second-order IBP term: d/du[g/(i phi')] / (i phi')
        d = (gp / (1j * phi_p) - g / (1j * phi_p ** 2) / tau) / (1j * phi_p)
        return phase * d

    tail = -boundary(W, 1) + boundary(-W, 1) + boundary(W, 2) - boundary(-W, 2)
    return (I + tail) / (2 * math.pi * np.sqrt(1j * tau))


class TestWavefunction:
    @pytest.mark.parametrize("points", [1, 1200])
    @pytest.mark.parametrize("n_max,P", [(0, None), (1, None), (141, 85.0), (479, 400.0)])
    def test_matches_direct_sum(self, n_max, P, points):
        # random coefficients weigh every order alike; a kicked packet at
        # P' = 85 (400) fills n_max = 141 (479) as fig06 does
        rng = np.random.default_rng(n_max)
        c = rng.standard_normal(2 * n_max + 1) + 1j * rng.standard_normal(2 * n_max + 1)
        packets = [q2.FourierPacket2D(c / np.linalg.norm(c))]
        if P is not None:
            packets.append(q2.free_evolve(kicked_ground(P), 0.7 / P))
        grid = np.linspace(0.0, TWO_PI, points, endpoint=False) if points > 1 else np.array([2.5])
        for packet in packets:
            assert packet.n_max == n_max
            ref = wavefunction_direct(packet.coeffs, grid)
            got = q2.wavefunction(packet, grid)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPropagatorOracle:
    def test_exact_matches_line_quadrature(self):
        P = 50.0
        tau = 1.0 / P
        p = q2.free_evolve(kicked_ground(P), tau)
        for th in (0.0, 0.3, 1.0, 2.0):
            exact = q2.density(p, np.array([th]))[0]
            oracle = abs(_line_propagator_psi(th, tau, P)) ** 2
            assert exact == pytest.approx(oracle, abs=1e-6)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(P=st.floats(0.0, 200.0), coupling=st.sampled_from(list(Coupling)),
       dtau=st.floats(-50.0, 50.0), n_max=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_kick_and_evolve_preserve_norm(P, coupling, dtau, n_max, seed):
    # a random normalized packet, kicked and then evolved freely
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * n_max + 1) + 1j * rng.standard_normal(2 * n_max + 1)
    packet = q2.FourierPacket2D(c / np.linalg.norm(c))
    kicked = q2.apply_kick(packet, P, coupling)
    assert abs(kicked.norm() - 1.0) < 1e-12
    assert abs(q2.free_evolve(kicked, dtau).norm() - 1.0) < 1e-12
