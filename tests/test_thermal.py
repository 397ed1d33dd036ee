"""Thermal ensembles: sampling moments and stream, free flight against an
ODE oracle, conservation laws, histograms, the streamed
kick-flight-histogram pass, determinism."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from kickedrotor import thermal as th
from kickedrotor.classical import Coupling
from oracles import at_rest, driver_first_kick, ensemble_at, evolve_libm


def fly(ensemble, dt):
    # the runtime's free flight of a whole ensemble, the squeeze driver's step
    return th._fly(ensemble, th._free_flight(ensemble), dt)


def energy(ensemble):
    # per-particle free energy (p_theta'^2 + p_phi'^2/sin^2 theta)/2
    return 0.5 * (ensemble.p_theta ** 2 + (ensemble.p_phi / ensemble.sin_theta) ** 2)


@pytest.fixture(scope="module")
def big_ensemble():
    return th.sample_ensemble(10 ** 6, seed=2024)


class TestSampling:
    def test_isotropic_orientation(self, big_ensemble):
        O, A = th.orientation_alignment(big_ensemble)
        assert O == pytest.approx(1.0, abs=0.005)
        assert A == pytest.approx(2.0 / 3.0, abs=0.005)

    def test_unit_thermal_variance(self, big_ensemble):
        assert np.mean(big_ensemble.p_theta ** 2) == pytest.approx(1.0, abs=0.01)
        ratio = big_ensemble.p_phi / big_ensemble.sin_theta
        assert np.mean(ratio ** 2) == pytest.approx(1.0, abs=0.01)

    def test_theta_marginal_matches_half_sine(self, big_ensemble):
        counts, edges = np.histogram(big_ensemble.theta, bins=50, range=(0, math.pi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = counts / (10 ** 6 * np.diff(edges))
        ref = np.sin(centers) / 2
        tol = 0.02 + 4.0 / np.sqrt(np.maximum(counts, 1))  # sampling noise
        assert np.all(np.abs(dens - ref) / ref < tol)

    def test_determinism(self):
        a = th.sample_ensemble(1000, seed=5)
        b = th.sample_ensemble(1000, seed=5)
        assert np.array_equal(a.cos_theta, b.cos_theta)
        assert np.array_equal(a.p_phi, b.p_phi)
        c = th.sample_ensemble(1000, seed=6)
        assert not np.array_equal(a.cos_theta, c.cos_theta)

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 1000, 1001, 1002, 1003, 65537])
    def test_stream_kept_without_azimuth(self, n, temperature):
        # a sampler that also draws a uniform azimuth: the stream to keep,
        # by `sample_ensemble` (T = 1) and by the zero-temperature squeeze
        # driver's start, the same positions at rest kicked at P = 1 (T = 0)
        rng = np.random.Generator(np.random.Philox(key=17))
        u = rng.random(n)
        rng.random(n) * 2.0 * math.pi
        scale = math.sqrt(temperature)
        p_theta = rng.standard_normal(n) * scale
        normals = rng.standard_normal(n)
        if temperature:
            e = th.sample_ensemble(n, 17)
        else:
            e, P = driver_first_kick(n, 17, math.inf)
            assert P == 1.0
        assert np.array_equal(e.cos_theta, 1.0 - 2.0 * u)
        assert np.array_equal(e.sin_theta, 2.0 * np.sqrt(u * (1.0 - u)))
        assert np.array_equal(e.p_theta, p_theta)
        assert np.array_equal(e.p_phi, normals * e.sin_theta * scale)
        # the angle a sampler of theta itself drew, to a few ulp
        theta = np.arccos(1.0 - 2.0 * u)
        assert np.all(np.abs(e.theta - theta) <= 4 * np.spacing(theta))

    # block boundaries at BLOCK and at 2^16, a multiple of it
    @pytest.mark.parametrize("n", [1, th.BLOCK - 1, th.BLOCK, th.BLOCK + 1, 2 * th.BLOCK + 5,
                                   2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 5])
    def test_ensemble_is_the_concatenated_blocks(self, n):
        blocks = list(th.sample_blocks(n, 23))
        assert [b.n for b in blocks] == [min(th.BLOCK, n - lo) for lo in range(0, n, th.BLOCK)]
        e = th.sample_ensemble(n, 23)
        for name in ("cos_theta", "sin_theta", "p_theta", "p_phi"):
            assert np.array_equal(getattr(e, name),
                                  np.concatenate([getattr(b, name) for b in blocks]))


class TestKick:
    def test_zero_strength_identity(self):
        e = th.sample_ensemble(100, seed=1)
        k = th.kick(e, 0.0)
        assert np.array_equal(k.p_theta, e.p_theta)

    def test_momentum_transfer(self):
        e = ensemble_at([math.pi / 2], [0.0], [0.0])
        assert th.kick(e, 10.0).p_theta[0] == pytest.approx(-10.0)

    def test_positions_unchanged(self):
        e = th.sample_ensemble(50, seed=3)
        k = th.kick(e, 4.0)
        assert k.cos_theta is e.cos_theta and k.sin_theta is e.sin_theta
        assert np.array_equal(k.p_phi, e.p_phi)

    def test_polarization_double_angle(self):
        e = ensemble_at([0.3], [0.0], [0.0])
        k = th.kick(e, 2.0, Coupling.POLARIZATION)
        assert k.p_theta[0] == pytest.approx(-2.0 * math.sin(0.6))


class TestEvolve:
    def test_zero_time_identity(self):
        # cos theta exactly; sin theta and p_theta are formed anew, to rounding
        e = th.sample_ensemble(10, seed=1)
        ev = fly(e, 0.0)
        assert np.array_equal(ev.cos_theta, e.cos_theta)
        assert np.allclose(ev.sin_theta, e.sin_theta, rtol=1e-15, atol=0.0)
        assert np.allclose(ev.p_theta, e.p_theta, rtol=1e-15, atol=0.0)

    def test_planar_rotation_when_p_phi_zero(self):
        c = 0.37
        e = ensemble_at([1.0], [c], [0.0])
        ev = fly(e, 1.5)
        assert ev.theta[0] == pytest.approx(1.0 + c * 1.5, abs=1e-12)
        assert ev.p_theta[0] == pytest.approx(c, abs=1e-12)

    def test_zero_temperature_map(self):
        # kicked motionless rotor follows theta(t) = theta0 - P t sin(theta0)
        th0 = 1.1
        e = ensemble_at([th0], [0.0], [0.0])
        ev = fly(th.kick(e, 3.0), 0.2)
        assert ev.theta[0] == pytest.approx(th0 - 3.0 * 0.2 * math.sin(th0), abs=1e-12)

    def test_against_ode_oracle(self):
        # integrate theta'' = p_phi^2 cos/sin^3 directly
        th0, p0, pphi = 1.1, 0.7, 0.4
        e = ensemble_at([th0], [p0], [pphi])
        sol = solve_ivp(
            lambda t, y: [y[1], pphi ** 2 * math.cos(y[0]) / math.sin(y[0]) ** 3],
            (0.0, 2.0), [th0, p0], rtol=1e-11, atol=1e-13, dense_output=True)
        for t in (0.3, 1.0, 2.0):
            ev = fly(e, t)
            ref_th, ref_p = sol.sol(t)
            assert ev.theta[0] == pytest.approx(ref_th, abs=1e-9)
            assert ev.p_theta[0] == pytest.approx(ref_p, abs=1e-8)

    def test_energy_and_p_phi_conserved(self, big_ensemble):
        e = th.kick(big_ensemble, 1.0)
        ev = fly(e, 0.9)
        assert np.max(np.abs(energy(ev) - energy(e))) < 1e-9
        assert np.array_equal(ev.p_phi, e.p_phi)

    def test_pole_reflection(self):
        # p_phi = 0 particle passing theta = 0 reflects
        e = ensemble_at([0.3], [-1.0], [0.0])
        ev = fly(e, 0.5)
        assert ev.theta[0] == pytest.approx(0.2, abs=1e-12)
        assert ev.p_theta[0] == pytest.approx(1.0, abs=1e-12)


    def test_rest_particle_kept_and_input_untouched(self):
        # the flight reuses its temporaries in place: the input arrays must
        # survive, and a particle with p_theta = p_phi = 0 stays at theta0
        e = th.kick(th.sample_ensemble(1000, seed=6), 2.0)
        e.p_theta[0] = e.p_phi[0] = 0.0
        arrays = (e.cos_theta, e.sin_theta, e.p_theta, e.p_phi)
        before = [a.copy() for a in arrays]
        ev = fly(e, 0.8)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)
        assert (ev.cos_theta[0], ev.sin_theta[0], ev.p_theta[0]) == (e.cos_theta[0], e.sin_theta[0], 0.0)
        assert not np.array_equal(ev.cos_theta[1:], e.cos_theta[1:])


def one_shot_profile(ensemble, P, dt, bins, coupling):
    # kick, fly and histogram the whole ensemble at once
    ev = th.kick(ensemble, P, coupling)
    ev = fly(ev, dt) if dt else ev
    counts, edges = np.histogram(ev.theta, bins=bins, range=(0.0, math.pi))
    return counts, edges, th.orientation_alignment(ev)


@pytest.mark.parametrize("P_prime,t_prime", [(1.0, 1.0), (1.0, 4.5), (10.0, 1.0), (10.0, 4.5), (math.inf, 1.0)])
@pytest.mark.parametrize("coupling", [Coupling.DIPOLE, Coupling.POLARIZATION])
def test_flight_against_libm_oracle(P_prime, t_prime, coupling):
    # 2^17 particles, flown by the half-angle tangent and by np.cos and
    # np.sin; P' = inf is the zero-temperature ensemble at unit kick.
    # p_theta = g/sin theta divides the rounding of g, of order omega, by
    # sin theta: near a pole both sides sit ~1e-12 from a 40-digit flight
    n, zero_t = 2 ** 17, math.isinf(P_prime)
    P = 1.0 if zero_t else P_prime
    ens = th.sample_ensemble(n, 31)
    ens = at_rest(ens) if zero_t else ens
    kicked, dt = th.kick(ens, P, coupling), t_prime / P
    got, ref = fly(kicked, dt), evolve_libm(kicked, dt)
    assert np.max(np.abs(got.cos_theta - ref.cos_theta)) <= 1e-15
    assert np.max(np.abs(got.sin_theta - ref.sin_theta)) <= 1e-15
    gap, big = np.abs(got.p_theta - ref.p_theta), np.max(np.abs(ref.p_theta))
    omega = np.hypot(kicked.p_theta, kicked.p_phi / kicked.sin_theta)
    assert np.all(gap <= 4 * 2.0 ** -52 * np.maximum(omega, np.abs(ref.p_theta)) / ref.sin_theta)
    assert np.max(gap[ref.sin_theta > 0.01]) <= 1e-13 * big
    # the histogram pass flies cos theta alone and bins arccos(cos theta):
    # against np.histogram of the libm flight's theta = arctan2(sin, cos)
    _, dens, O, A = th.kicked_profile([ens], P, dt, 200, coupling)
    counts, edges = np.histogram(ref.theta, bins=200, range=(0.0, math.pi))
    O_ref, A_ref = th.orientation_alignment(ref)
    assert np.array_equal(dens, counts / (n * (edges[1] - edges[0])))
    assert O == pytest.approx(O_ref, rel=1e-14, abs=0)
    assert A == pytest.approx(A_ref, rel=1e-14, abs=0)


class TestHistogram:
    def test_isotropic_half_sine(self, big_ensemble):
        grid, dens, _, _ = th.kicked_profile([big_ensemble], 1.0, 0.0, 50)
        width = grid[1] - grid[0]
        assert np.sum(dens) * width == pytest.approx(1.0, rel=1e-12)
        ref = np.sin(grid) / 2
        counts = dens * (10 ** 6 * width)
        tol = 0.02 + 4.0 / np.sqrt(np.maximum(counts, 1))
        assert np.all(np.abs(dens - ref) / ref < tol)

    def test_focal_hole_at_strong_kick(self):
        # P' = 10 at P't' = 1: peak near the pole but a hole at theta = 0
        grid, dens, _, _ = th.kicked_profile(th.sample_blocks(10 ** 6, seed=42), 10.0, 0.1, 400)
        peak_zone = dens[grid < 0.3]
        assert dens[0] < 0.1 * peak_zone.max()
        assert peak_zone.max() == dens.max()

    def test_weak_kick_near_equilibrium(self):
        # P' = 1 bends the half-sine but produces no focal spike, unlike
        # the strong kick at the same P't'
        _, dens_w, _, _ = th.kicked_profile(th.sample_blocks(200000, seed=7), 1.0, 1.0, 50)
        _, dens_s, _, _ = th.kicked_profile(th.sample_blocks(200000, seed=7), 10.0, 0.1, 50)
        equilibrium_peak = 0.5
        assert dens_w.max() < 2.0 * equilibrium_peak
        assert dens_s.max() > 2.0 * dens_w.max()

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            th.kicked_profile(th.sample_blocks(10, seed=1), 1.0, 0.0, 1)

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="no particles"):
            th.kicked_profile(iter(()), 1.0, 0.1, 10)

    def test_input_untouched(self):
        e = th.sample_ensemble(th.BLOCK + 3, seed=8)
        arrays = (e.cos_theta, e.sin_theta, e.p_theta, e.p_phi)
        before = [a.copy() for a in arrays]
        th.kicked_profile([e], 3.0, 0.4, 30, Coupling.POLARIZATION)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bins", [2, 7, 90, 200, 400])
    def test_bin_rule_is_numpy_histogram_at_the_edges(self, bins):
        # theta on every edge, one ulp either side of it, and at 0 and pi
        edges = np.linspace(0.0, math.pi, bins + 1)
        theta = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 4.0),
                                [0.0, math.pi]])
        theta = theta[(theta >= 0.0) & (theta <= math.pi)]
        counts = th._bin_counts(theta, edges)
        assert np.array_equal(counts, np.histogram(theta, bins, range=(0.0, math.pi))[0])
        assert counts.sum() == theta.size

    @pytest.mark.parametrize("dt", [0.0, 0.7])
    def test_particles_on_the_poles(self, dt):
        # zero temperature, u = 0 and u = 1 (cos theta = +-1, sin theta = 0,
        # p = 0): the kick leaves them at rest, in the first and last bins.
        # Their p_phi/sin theta is 0/0, the NaN `_free_flight` maps to rest
        # without a warning (a CLI run would print one on stderr)
        e = at_rest(th.sample_ensemble(1000, seed=12))
        e.cos_theta[:3], e.cos_theta[3:5], e.sin_theta[:5] = 1.0, -1.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, dens, O, A = th.kicked_profile([e], 2.0, dt, 90)
            counts, edges, (O_ref, A_ref) = one_shot_profile(e, 2.0, dt, 90, Coupling.DIPOLE)
            _, _, omega, b = th._free_flight(th.kick(e, 2.0))
        assert np.array_equal(dens, counts / (e.n * (edges[1] - edges[0])))
        assert counts[0] >= 3 and counts[-1] >= 2
        assert (O, A) == (O_ref, A_ref)
        assert not np.any(omega[:5]) and not np.any(b[:5]) and np.all(omega[5:] > 0)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(n=st.integers(1, 3 * th.BLOCK + 7),
           P_prime=st.sampled_from([1.0, 5.0, 10.0]),
           t_prime=st.sampled_from([0.0, 0.3, 1.0, 4.5]),
           coupling=st.sampled_from([Coupling.DIPOLE, Coupling.POLARIZATION]),
           bins=st.integers(2, 200))
    @example(n=1, P_prime=10.0, t_prime=1.0, coupling=Coupling.DIPOLE, bins=7)
    @example(n=th.BLOCK - 1, P_prime=5.0, t_prime=0.0, coupling=Coupling.POLARIZATION, bins=50)
    @example(n=th.BLOCK, P_prime=10.0, t_prime=1.0, coupling=Coupling.DIPOLE, bins=200)
    @example(n=th.BLOCK + 1, P_prime=1.0, t_prime=3.0, coupling=Coupling.POLARIZATION, bins=200)
    def test_blocked_pass_matches_one_shot(self, n, P_prime, t_prime, coupling, bins):
        ens, blocks = th.sample_ensemble(n, seed=n), th.sample_blocks(n, seed=n)
        grid, dens, O, A = th.kicked_profile(blocks, P_prime, t_prime / P_prime, bins, coupling)
        counts, edges, (O_ref, A_ref) = one_shot_profile(ens, P_prime, t_prime / P_prime, bins,
                                                         coupling)
        width = edges[1] - edges[0]
        assert np.array_equal(dens, counts / (n * width))
        assert np.array_equal(grid, 0.5 * (edges[:-1] + edges[1:]))
        assert O == pytest.approx(O_ref, rel=0, abs=1e-15)
        assert A == pytest.approx(A_ref, rel=0, abs=1e-15)


    @pytest.mark.parametrize("coupling", [Coupling.DIPOLE, Coupling.POLARIZATION])
    @pytest.mark.parametrize("n", [1, th.BLOCK, th.BLOCK + 1, 2 ** 16, 2 ** 16 + 1])
    def test_streamed_profile_matches_one_shot(self, n, coupling):
        # the streamed blocks against the whole ensemble kicked, flown and
        # histogrammed at once: counts exact, (O, A) up to sum order
        dt = 0.13
        _, dens, O, A = th.kicked_profile(th.sample_blocks(n, 77), 6.0, dt, 90, coupling)
        counts, edges, (O_ref, A_ref) = one_shot_profile(
            th.sample_ensemble(n, 77), 6.0, dt, 90, coupling)
        assert np.array_equal(dens, counts / (n * (edges[1] - edges[0])))
        assert O == pytest.approx(O_ref, rel=1e-15, abs=0)
        assert A == pytest.approx(A_ref, rel=1e-15, abs=0)


class TestZeroTemperatureDegeneration:
    def test_histogram_matches_classical_density(self):
        # T = 0 ensemble kicked and evolved to P't' = 2 reproduces the
        # zero-temperature classical density at map strength s = 2
        from kickedrotor import classical as cl
        from oracles import box_means
        s = 2.0
        blocks = map(at_rest, th.sample_blocks(10 ** 6, seed=33))
        grid, dens, _, _ = th.kicked_profile(blocks, 1.0, s, 100)
        width = grid[1] - grid[0]
        params = cl.MapParams(s, geometry=cl.Geometry.SPHERE_3D)
        thr = cl.rainbow_angle(s)
        keep = np.minimum(np.abs(grid), np.abs(grid - thr)) >= 0.12
        refs = box_means(lambda t: cl.density_classical(t, params) * 2 * math.pi * np.sin(t),
                         grid[keep] - width / 2, grid[keep] + width / 2)
        for val, ref in zip(dens[keep], refs):
            counts = val * 10 ** 6 * width
            tol = 0.02 + 4.0 / math.sqrt(max(counts, 1.0))
            assert val == pytest.approx(ref, rel=tol)


class TestOrientationAlignment:
    def test_point_mass_at_pole(self):
        e = ensemble_at(np.zeros(4), np.zeros(4), np.zeros(4))
        O, A = th.orientation_alignment(e)
        assert O == 0.0 and A == 0.0

    def test_strong_kick_first_minimum(self):
        # P' = 10 squeezes O well below the isotropic value 1
        ens = th.kick(th.sample_ensemble(200000, seed=9), 10.0)
        best = min(th.orientation_alignment(fly(ens, t))[0]
                   for t in np.linspace(0.05, 0.3, 26))
        assert best < 0.3
