"""Accumulative squeezing by a train of kicks timed at minimal spread.

Near the pole the kick potential is harmonic, the azimuthal directions
separate, and only the second moments matter.  With u = <x^2> and
w = <p^2>/P, kicking exactly at a moment of minimal spread (vanishing
mixed moment) and waiting for the next minimum gives the exact recurrence

    u_{k+1} = u_k - u_k^2/(u_k + w_k),    w_{k+1} = w_k + u_k,

with the wait Delta tau_k = u_k/(u_k + w_k) in kick-scaled time.  The
large-k flow conserves u^2 + 2wu and drives u ~ k^(-1/2): squeezing
without saturation.  A Monte Carlo driver applies the same protocol to
the full classical 3D ensemble; it finds each minimum of the spread from
the closed-form free flight of `thermal._free_flight`, which `evolve`
shares, and evolves the ensemble once per kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import Coupling
from . import thermal
from .specfun import ConvergenceError

__all__ = [
    "MomentState",
    "SqueezeRecord",
    "SqueezeTrace",
    "kick_cycle",
    "run_accumulative",
    "ode_invariant",
    "classical_accumulative_3d",
]


@dataclass(frozen=True)
class MomentState:
    """Second moments (u, w) = (<x^2>, <p^2>/P) of the polar packet."""

    u: float
    w: float
    mixed_zero: bool = True  # the kick is applied at extreme squeezing

    def __post_init__(self):
        if self.u <= 0 or self.w <= 0:
            raise ValueError("moments u, w must be positive")


@dataclass(frozen=True)
class SqueezeRecord:
    k: int
    u: float
    w: float
    dtau: float
    observable: float | None = None  # O_k or A_k for the Monte Carlo driver


@dataclass(frozen=True)
class SqueezeTrace:
    records: tuple
    kick_strength: float | None = None  # lets callers restore physical time

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)


def kick_cycle(state, P=1.0):
    """One kick at minimal spread plus free flight to the next minimum.

    Returns (new_state, dtau) with dtau = u/(u + w) in kick-scaled time
    (multiply by 1/P for the physical delay at kick strength P).
    """
    if not state.mixed_zero:
        raise ValueError("kick_cycle requires the mixed moment to vanish")
    u, w = state.u, state.w
    dtau = u / (u + w)
    new = MomentState(u=u - u * u / (u + w), w=w + u, mixed_zero=True)
    return new, dtau


def run_accumulative(u0, w0, kicks):
    """Iterate kick_cycle, recording (k, u_k, w_k, dtau_k).

    Record k holds the state *after* k cycles; u decreases and w
    increases strictly at every step.  A start whose u0/(u0 + w0) is
    below double precision cannot show that decrease and raises
    ValueError.
    """
    if kicks < 1:
        raise ValueError("kicks must be >= 1")
    state = MomentState(u=float(u0), w=float(w0))
    records = []
    for k in range(1, kicks + 1):
        prev = state
        state, dtau = kick_cycle(state)
        if not (state.u < prev.u and state.w > prev.w):
            raise ValueError(
                f"squeezing stalls at kick {k}: u/(u + w) = "
                f"{prev.u / (prev.u + prev.w):.3g} is below double precision "
                f"(u0 = {u0!r}, w0 = {w0!r})")
        records.append(SqueezeRecord(k=k, u=state.u, w=state.w, dtau=dtau))
    return SqueezeTrace(records=tuple(records))


def ode_invariant(u, w):
    """u^2 + 2wu: conserved along the continuous (large-k) squeezing flow
    du/dk = -u^2/(w+u), dw/dk = u.  In the deep regime u << w the product
    w*u is conserved instead.  The discrete recurrence does not conserve
    either during the first few kicks."""
    if u <= 0 or w <= 0:
        raise ValueError("u, w must be positive")
    return u * u + 2.0 * w * u


def _observable_in_flight(ensemble, coupling):
    """O(t) = <1 - cos theta(t)> (dipole) or A(t) = <1 - cos^2 theta(t)>
    (polarization) of the ensemble in free flight, as a function of t.

    Closed form: the coefficients of `thermal._free_flight` are computed
    once, and each value of t costs one cos and one sin per particle; it
    agrees with `orientation_alignment(evolve(ensemble, t))` to rounding.
    """
    cos0, _, omega, b = thermal._free_flight(ensemble)
    squared = coupling is Coupling.POLARIZATION

    def value_at(t):
        wt = omega * t
        c = np.cos(wt)
        c *= cos0
        s = np.sin(wt, out=wt)
        s *= b
        c -= s
        if squared:
            c *= c
        np.subtract(1.0, c, out=c)
        return float(np.mean(c))

    return value_at


# P't' step of the scan for the first minimum, and the P't' width to which
# the golden section then narrows it
_SCAN_STEP = 0.01
_REFINE_TOL = 1e-6


def _first_minimum(ensemble, coupling):
    """Time of the first local minimum of O (dipole) or A (polarization)
    after a kick: scan in steps of P'dt = _SCAN_STEP, then refine by golden
    section.  Each probe is the closed-form `_observable_in_flight`, so
    the ensemble is never evolved here."""
    P = ensemble.kick_strength
    dt = _SCAN_STEP / P
    value_at = _observable_in_flight(ensemble, coupling)

    t_prev, f_prev = 0.0, value_at(0.0)
    t_curr, f_curr = dt, value_at(dt)
    # walk downhill until the observable turns up
    n_steps = 1
    while f_curr <= f_prev:
        t_prev, f_prev = t_curr, f_curr
        n_steps += 1
        t_curr = n_steps * dt
        f_curr = value_at(t_curr)
        if n_steps > 2_000_000:
            raise ConvergenceError("no minimum found within the scan budget")
    a = max(0.0, t_prev - dt)
    b = t_curr
    # golden-section refinement on [a, b]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = value_at(c), value_at(d)
    while (b - a) > _REFINE_TOL / P:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = value_at(d)
    return 0.5 * (a + b)


def classical_accumulative_3d(n_particles, P_prime, kicks, seed,
                              coupling=Coupling.DIPOLE):
    """Accumulative squeezing of a classical thermal ensemble.

    Each cycle kicks the ensemble, then advances to the first local
    minimum of the orientation factor O (dipole) or alignment factor A
    (polarization) and records it; the next kick fires at that instant.
    The minimum search evaluates O or A in closed form from the
    free-flight coefficients of `thermal._free_flight`, so each cycle
    calls `thermal.evolve` once, to the minimum it found.
    P_prime = inf means zero initial temperature (only P't' matters, so
    the kick strength is set to 1 and time is reported as P't').
    """
    if kicks < 1:
        raise ValueError("kicks must be >= 1")
    if math.isinf(P_prime):
        ens = thermal.sample_ensemble(n_particles, seed, kick_strength=1.0,
                                      temperature=0.0)
    else:
        if P_prime <= 0:
            raise ValueError("P_prime must be positive or inf")
        ens = thermal.sample_ensemble(n_particles, seed, kick_strength=P_prime)
    idx = 0 if coupling is Coupling.DIPOLE else 1
    records = []
    for k in range(1, kicks + 1):
        ens = thermal.kick(ens, coupling)
        t_min = _first_minimum(ens, coupling)
        ens = thermal.evolve(ens, t_min)
        obs = thermal.orientation_alignment(ens)[idx]
        c = np.cos(ens.theta)
        u = float(np.mean((1.0 - c) * 2.0))  # ~ <theta^2> near the pole
        w = float(np.mean(ens.p_theta ** 2)) / ens.kick_strength
        records.append(SqueezeRecord(k=k, u=u, w=w,
                                     dtau=t_min * ens.kick_strength,
                                     observable=obs))
    return SqueezeTrace(records=tuple(records), kick_strength=ens.kick_strength)
