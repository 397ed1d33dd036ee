"""Moment recurrence, its continuum invariant (independent integrator
oracle), asymptotics, and the classical Monte Carlo driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar

from kickedrotor import squeeze as sq
from kickedrotor import thermal as th
from kickedrotor.classical import Coupling
from kickedrotor.specfun import ConvergenceError
from oracles import at_rest, driver_first_kick, ensemble_at, evolve_libm


class TestKickCycle:
    def test_hand_values(self):
        u, w, dtau = sq.kick_cycle(1.0, 1.0)
        assert u == pytest.approx(0.5)
        assert w == pytest.approx(2.0)
        assert dtau == pytest.approx(0.5)

    def test_perturbative_gain(self):
        # u << w: u' ~ u (1 - u/w)
        u, w = 1e-6, 1.0
        u1, _, _ = sq.kick_cycle(u, w)
        assert u1 == pytest.approx(u * (1 - u / w), rel=1e-5)

    def test_positivity_preserved(self):
        u, w = 3.0, 0.1
        for _ in range(200):
            u, w, _ = sq.kick_cycle(u, w)
            assert u > 0 and w > 0

    def test_stall_below_double_precision_is_a_value_error(self):
        # u - u^2/(u + w) rounds to u when u/(u + w) < 2^-53
        with pytest.raises(ValueError, match="double precision"):
            sq.run_accumulative(1e-20, 1.0, 3)

    @pytest.mark.parametrize("u0, w0", [(0.0, 1.0), (1.0, -1.0)])
    def test_nonpositive_start_is_a_value_error(self, u0, w0):
        with pytest.raises(ValueError, match="moments u, w must be positive"):
            sq.run_accumulative(u0, w0, 3)


class TestRunAccumulative:
    def test_single_kick_matches_cycle(self):
        tr = sq.run_accumulative(1.0, 1.0, 1)
        assert len(tr["k"]) == 1
        assert tr["u"][0] == pytest.approx(0.5)
        assert tr["dtau"][0] == pytest.approx(0.5)

    def test_strict_monotonicity(self):
        tr = sq.run_accumulative(2.0, 0.5, 500)
        u, w = tr["u"], tr["w"]
        assert np.all(np.diff(u) < 0)
        assert np.all(np.diff(w) > 0)

    def test_asymptotic_slope(self):
        tr = sq.run_accumulative(1.0, 1.0, 1000)
        k, u = tr["k"], tr["u"]
        m = k >= 100
        slope = np.polyfit(np.log(k[m]), np.log(u[m]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_wait_times_scale_as_inverse_k(self):
        tr = sq.run_accumulative(1.0, 1.0, 1000)
        k, dtau = tr["k"], tr["dtau"]
        prod = (k * dtau)[k >= 100]
        assert np.max(prod) / np.min(prod) - 1 < 0.10

    def test_u_times_sqrt_k_stabilizes(self):
        tr = sq.run_accumulative(1.0, 1.0, 2000)
        k, u = tr["k"], tr["u"]
        tail = (u * np.sqrt(k))[k >= 1000]
        assert np.max(tail) / np.min(tail) - 1 < 1e-3


class TestOdeInvariant:
    def test_value(self):
        assert sq.ode_invariant(1.0, 1.0) == 3.0

    def test_conserved_along_continuum_flow(self):
        # independent high-order integration of du/dk = -u^2/(w+u), dw/dk = u
        sol = solve_ivp(
            lambda k, y: [-y[0] ** 2 / (y[1] + y[0]), y[0]],
            (0.0, 200.0), [1.0, 1.0], rtol=1e-12, atol=1e-14, dense_output=True)
        ref = sq.ode_invariant(1.0, 1.0)
        for k in (1.0, 10.0, 100.0, 200.0):
            u, w = sol.sol(k)
            assert sq.ode_invariant(u, w) == pytest.approx(ref, abs=1e-9)

    def test_deep_regime_wu_constant(self):
        sol = solve_ivp(
            lambda k, y: [-y[0] ** 2 / (y[1] + y[0]), y[0]],
            (0.0, 5000.0), [1.0, 1.0], rtol=1e-12, atol=1e-14)
        u, w = sol.y[0][-5:], sol.y[1][-5:]
        wu = w * u
        assert np.max(wu) / np.min(wu) - 1 < 1e-3

    @pytest.mark.parametrize("u0,w0,kicks", [(1.0, 1.0, 100000), (5.0, 0.01, 1000), (0.01, 5.0, 1000)])
    def test_recurrence_conserves_uw_and_bounds_u(self, u0, w0, kicks):
        # u' w' = (u w/(u + w)) (u + w) = u w, so
        # 1/u_k^2 >= 1/u0^2 + 2k/(u0 w0) at every k
        tr = sq.run_accumulative(u0, w0, kicks)
        u, w, k = tr["u"], tr["w"], tr["k"]
        assert np.max(np.abs(u * w / (u0 * w0) - 1.0)) < 1e-13
        assert np.all(u <= (1.0 / u0 ** 2 + 2.0 * k / (u0 * w0)) ** -0.5)

    def test_discrete_recurrence_breaks_invariant_early(self):
        # negative control: (1,1) -> 3 but (1/2, 2) -> 2.25
        u, w, _ = sq.kick_cycle(1.0, 1.0)
        assert sq.ode_invariant(u, w) == pytest.approx(2.25)
        assert sq.ode_invariant(u, w) != pytest.approx(3.0, abs=0.5)


def zero_temp_orientation(t):
    """Quadrature oracle for O(t') of the kicked zero-temperature ensemble."""
    f = lambda th0: 0.5 * math.sin(th0) * (1 - math.cos(th0 - t * math.sin(th0)))
    return quad(f, 0, math.pi, limit=200)[0]


class TestClassicalDriver:
    def test_zero_temperature_monotone_orientation(self):
        tr = sq.classical_accumulative_3d(20000, math.inf, 10, seed=3)
        obs = tr["observable"]
        assert np.all(np.diff(obs) < 0)

    def test_first_minimum_matches_quadrature_oracle(self):
        # one kick at T=0: the O minimum sits near P't' = 1.773 (the
        # moment algebra's u/(u+w) = 1 estimate holds only for a polar
        # packet, not the full sphere)
        r = minimize_scalar(zero_temp_orientation, bounds=(1.2, 2.2),
                            method="bounded", options={"xatol": 1e-10})
        tr = sq.classical_accumulative_3d(400000, math.inf, 1, seed=12)
        assert tr["dtau"][0] == pytest.approx(r.x, abs=0.01)
        assert tr["observable"][0] == pytest.approx(
            zero_temp_orientation(r.x), abs=0.005)

    def test_finite_temperature_still_improves(self):
        strong = sq.classical_accumulative_3d(20000, 5.0, 12, seed=4)
        weak = sq.classical_accumulative_3d(20000, 1.0, 12, seed=4)
        o_strong = strong["observable"]
        o_weak = weak["observable"]
        assert np.all(np.diff(o_strong) < 0)
        assert o_weak[-1] < o_weak[0]          # improves with k
        assert o_weak[-1] > o_strong[-1]       # but more slowly than P'=5

    def test_polarization_uses_alignment(self):
        tr = sq.classical_accumulative_3d(20000, math.inf, 5, seed=5,
                                          coupling=Coupling.POLARIZATION)
        obs = tr["observable"]
        assert np.all(np.diff(obs) < 0)
        assert obs[0] < 2.0 / 3.0  # below the isotropic alignment factor

    @pytest.mark.parametrize("P_prime", [math.inf, 5.0])
    def test_first_kick_flies_the_sampled_positions(self, P_prime):
        # the driver kicks what `driver_start` builds, which the other
        # driver tests fly: at P' = inf the seed's positions at rest with
        # unit kick, else the seed's sample at P'
        e, P = driver_first_kick(3000, 13, P_prime, Coupling.POLARIZATION)
        ref, P_ref = driver_start(P_prime, 3000, 13)
        assert P == P_ref
        for name in ("cos_theta", "sin_theta", "p_theta", "p_phi"):
            assert np.array_equal(getattr(e, name), getattr(ref, name))

    @pytest.mark.parametrize("P_prime", [0.0, -1.0, -math.inf, math.nan])
    def test_nonpositive_kick_strength_rejected(self, P_prime):
        with pytest.raises(ValueError, match="P_prime must be positive"):
            sq.classical_accumulative_3d(100, P_prime, 1, seed=1)

    def test_determinism(self):
        a = sq.classical_accumulative_3d(5000, math.inf, 3, seed=9)
        b = sq.classical_accumulative_3d(5000, math.inf, 3, seed=9)
        assert np.array_equal(a["observable"], b["observable"])
        assert np.array_equal(a["dtau"], b["dtau"])


def driver_start(P_prime, n, seed):
    """(ensemble, P) the driver starts from: the seed's sample and P', or at
    P' = inf (zero temperature) its positions at rest and P = 1."""
    ens = th.sample_ensemble(n, seed)
    return (at_rest(ens), 1.0) if math.isinf(P_prime) else (ens, P_prime)


def kicked_ensemble(P_prime, coupling, seed=21, n=20000):
    ens, P = driver_start(P_prime, n, seed)
    ens = th.kick(ens, P, coupling)
    ens.p_theta[0] = ens.p_phi[0] = 0.0  # a particle at rest
    return ens, P


class TestClosedFormObservable:
    @pytest.mark.parametrize("coupling", [Coupling.DIPOLE, Coupling.POLARIZATION])
    @pytest.mark.parametrize("P_prime", [math.inf, 5.0])
    def test_matches_evolved_ensemble(self, P_prime, coupling):
        ens, P = kicked_ensemble(P_prime, coupling)
        at = sq._observable_in_flight(th._free_flight(ens), coupling)
        idx = 0 if coupling is Coupling.DIPOLE else 1
        for st_ in (0.0, 0.01, 0.5, 1.773, 3.0, 25.0):
            t = st_ / P
            ref = th.orientation_alignment(evolve_libm(ens, t))[idx]
            assert at(t)[0] == pytest.approx(ref, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("coupling", [Coupling.DIPOLE, Coupling.POLARIZATION])
    @pytest.mark.parametrize("P_prime", [math.inf, 5.0])
    def test_derivatives_match_evolved_differences(self, P_prime, coupling):
        # central differences of O or A of the evolved ensemble
        ens, P = kicked_ensemble(P_prime, coupling)
        at = sq._observable_in_flight(th._free_flight(ens), coupling)
        idx = 0 if coupling is Coupling.DIPOLE else 1
        F = lambda t: th.orientation_alignment(evolve_libm(ens, t))[idx]
        for st_ in (0.3, 1.773, 3.0):
            t, h = st_ / P, 1e-4 / P
            _, d1, d2 = at(t)
            scale = P ** 2
            assert d1 == pytest.approx((F(t + h) - F(t - h)) / (2 * h), rel=1e-6, abs=1e-8 * scale)
            assert d2 == pytest.approx((F(t + h) - 2 * F(t) + F(t - h)) / h ** 2,
                                       rel=1e-4, abs=1e-4 * scale)

    @pytest.mark.parametrize("coupling", [Coupling.DIPOLE, Coupling.POLARIZATION])
    def test_rest_particle_keeps_theta0(self, coupling):
        ens = ensemble_at([1.0], [0.0], [0.0])
        at = sq._observable_in_flight(th._free_flight(ens), coupling)
        c = math.cos(1.0)
        ref = 1.0 - c if coupling is Coupling.DIPOLE else 1.0 - c * c
        for t in (0.0, 0.3, 7.0):
            assert at(t) == (ref, 0.0, 0.0)

    def test_driver_evolves_once_per_kick(self, monkeypatch):
        # one free flight per kick, shared by the search and the step to
        # the minimum it found
        calls, flights = [], []
        fly, free_flight = th._fly, th._free_flight
        monkeypatch.setattr(th, "_fly", lambda ens, f, dt: calls.append((f, dt)) or fly(ens, f, dt))
        monkeypatch.setattr(th, "_free_flight",
                            lambda *a: flights.append(free_flight(*a)) or flights[-1])
        tr = sq.classical_accumulative_3d(2000, 5.0, 4, seed=8)
        assert len(calls) == len(flights) == 4
        assert all(f is g for (f, _), g in zip(calls, flights))
        assert [dt * 5.0 for _, dt in calls] == list(tr["dtau"])

    def test_no_minimum_is_a_convergence_error(self, monkeypatch):
        # an ensemble at rest has a flat observable: the real scan walks
        # until its (lowered) step budget runs out
        monkeypatch.setattr(sq, "_SCAN_BUDGET", 50)
        ens = ensemble_at(np.linspace(0.1, 3.0, 10), np.zeros(10), np.zeros(10))
        for coupling in (Coupling.DIPOLE, Coupling.POLARIZATION):
            with pytest.raises(ConvergenceError, match="scan budget"):
                sq._first_minimum(th._free_flight(ens), 5.0, coupling)

    def test_records_hold_the_search_counts(self):
        tr = sq.classical_accumulative_3d(2000, 5.0, 4, seed=8)
        assert np.all(tr["scan_steps"] >= 1)
        assert np.all((1 <= tr["newton_iters"]) & (tr["newton_iters"] <= sq._NEWTON_BUDGET))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(P_prime=st.sampled_from([math.inf, 0.5, 1.0, 5.0, 10.0]),
       coupling=st.sampled_from([Coupling.DIPOLE, Coupling.POLARIZATION]),
       n=st.integers(20, 3000), kicks=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_first_minimum_is_a_stationary_minimum_in_the_bracket(P_prime, coupling, n, kicks, seed):
    # after a few kicks of the driver's protocol, the search's t* has
    # dF/dt ~ 0 against the slopes on its scan bracket, and F(t*) is no
    # larger than F at either end of the bracket
    ens, P = driver_start(P_prime, n, seed)
    for _ in range(kicks):
        ens = th.kick(ens, P, coupling)
        flight = th._free_flight(ens)
        t, steps, iters = sq._first_minimum(flight, P, coupling)
        at = sq._observable_in_flight(flight, coupling)
        dt = sq._SCAN_STEP / P
        a, b = max(0.0, (steps - 2) * dt), steps * dt
        (Fa, ga, _), (Fb, gb, _), (Ft, gt, _) = at(a), at(b), at(t)
        assert a <= t <= b
        assert abs(gt) <= 1e-9 * max(abs(ga), abs(gb))
        assert Ft <= min(Fa, Fb) + 1e-15
        ens = th._fly(ens, flight, t)
