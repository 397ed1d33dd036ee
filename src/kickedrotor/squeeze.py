"""Accumulative squeezing by a train of kicks timed at minimal spread.

Near the pole the kick potential is harmonic, the azimuthal directions
separate, and only the second moments matter.  With u = <x^2> and
w = <p^2>/P, kicking exactly at a moment of minimal spread (vanishing
mixed moment) and waiting for the next minimum gives the exact recurrence

    u_{k+1} = u_k - u_k^2/(u_k + w_k),    w_{k+1} = w_k + u_k,

with the wait Delta tau_k = u_k/(u_k + w_k) in kick-scaled time.  The
large-k flow conserves u^2 + 2wu and drives u ~ k^(-1/2): squeezing
without saturation.  A Monte Carlo driver applies the same protocol to
the full classical 3D ensemble; it finds each minimum of the spread on the
closed-form free flight `thermal._free_flight` of the carried (cos theta0,
sin theta0) (an angle-addition scan, then Newton on dO/dt or dA/dt) and
flies the ensemble there, once per kick.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import Coupling
from . import thermal
from .specfun import ConvergenceError, sincos

__all__ = [
    "kick_cycle",
    "run_accumulative",
    "ode_invariant",
    "classical_accumulative_3d",
]


def kick_cycle(u, w):
    """One kick at minimal spread (vanishing mixed moment) plus free flight
    to the next minimum, on the second moments (u, w) = (<x^2>, <p^2>/P).

    Returns (u, w, dtau) after the cycle, with dtau = u/(u + w) in
    kick-scaled time (multiply by 1/P for the physical delay at kick
    strength P).
    """
    dtau = u / (u + w)
    return u - u * u / (u + w), w + u, dtau


def run_accumulative(u0, w0, kicks):
    """Iterate kick_cycle from u0, w0 > 0 (ValueError otherwise): the
    columns {"k", "u", "w", "dtau"} as arrays.

    Row k holds the state *after* k cycles; u decreases and w increases
    strictly at every step.  A start whose u0/(u0 + w0) is below double
    precision cannot show that decrease and raises ValueError.
    """
    if kicks < 1:
        raise ValueError("kicks must be >= 1")
    if not (u0 > 0 and w0 > 0):
        raise ValueError("moments u, w must be positive")
    u, w = float(u0), float(w0)
    rows = []
    for k in range(1, kicks + 1):
        u_next, w_next, dtau = kick_cycle(u, w)
        if not (u_next < u and w_next > w):
            raise ValueError(
                f"squeezing stalls at kick {k}: u/(u + w) = "
                f"{u / (u + w):.3g} is below double precision "
                f"(u0 = {u0!r}, w0 = {w0!r})")
        u, w = u_next, w_next
        rows.append((u, w, dtau))
    return _columns(("u", "w", "dtau"), rows)


def _columns(names, rows):
    # {"k": 1 .. len(rows), name: that entry of every row}
    return {"k": np.arange(1, len(rows) + 1), **dict(zip(names, map(np.array, zip(*rows))))}


def ode_invariant(u, w):
    """u^2 + 2wu: conserved along the continuous (large-k) squeezing flow
    du/dk = -u^2/(w+u), dw/dk = u.  In the deep regime u << w the product
    w*u is conserved instead.  The discrete recurrence does not conserve
    either during the first few kicks."""
    if u <= 0 or w <= 0:
        raise ValueError("u, w must be positive")
    return u * u + 2.0 * w * u


def _observable_in_flight(flight, coupling):
    """t -> (F, dF/dt, d2F/dt2) for F = O = <1 - cos theta(t)> (dipole) or
    A = <1 - cos^2 theta(t)> (polarization) in free flight, in closed form
    from the `thermal._free_flight` coefficients: x = cos theta =
    cos0 cos(wt) - b sin(wt), x' = -w (cos0 sin(wt) + b cos(wt)), x'' = -w^2 x.
    Each t costs one tangent per particle (`specfun.sincos`); F agrees to
    rounding with `orientation_alignment` of the ensemble `thermal._fly` flies."""
    cos0, _, omega, b = flight
    squared = coupling is Coupling.POLARIZATION

    def at(t):
        s, c = sincos(omega * t)
        x, dx = cos0 * c - b * s, -omega * (cos0 * s + b * c)
        if squared:
            return (float(np.mean(1.0 - x * x)), -2.0 * float(np.mean(x * dx)),
                    -2.0 * float(np.mean(dx * dx - (omega * x) ** 2)))
        return float(np.mean(1.0 - x)), -float(np.mean(dx)), float(np.mean(omega * omega * x))

    return at


# P't' step and step budget of the scan; P't' step and iteration budget of Newton
_SCAN_STEP, _SCAN_BUDGET = 0.01, 2_000_000
_NEWTON_TOL, _NEWTON_BUDGET = 1e-10, 100


def _first_minimum(ensemble, coupling, flight):
    """(t, scan steps, Newton iterations) for the first local minimum of
    O (dipole) or A (polarization) on a kicked ensemble's free flight.
    The scan walks t = k dt until F turns up, advancing (cos wt, sin wt) by
    angle addition: four multiplies per particle, no transcendental.  Newton
    on dF/dt = 0 refines its lowest point inside the bracket of the scan,
    bisecting it whenever a step leaves it or the curvature is not positive.
    """
    P = ensemble.kick_strength
    dt = _SCAN_STEP / P
    cos0, _, omega, b = flight
    # x = cos theta = Re(q z), q = cos0 + i b, z = exp(i omega t); a step
    # multiplies z by exp(i omega dt): (C, S) <- (C cd - S sd, S cd + C sd)
    q, z = cos0 + 1j * b, np.ones(omega.shape, complex)
    sd, cd = sincos(omega * dt)
    rot, qz = cd + 1j * sd, np.empty_like(z)

    def spread():
        # n (F - 1), all the scan compares
        if coupling is Coupling.POLARIZATION:
            x = np.multiply(q, z, out=qz).real
            return -np.dot(x, x)
        return -np.dot(q, z).real

    f_prev = spread()
    for steps in range(1, _SCAN_BUDGET + 1):  # walk downhill until F turns up
        z *= rot
        f_curr = spread()
        if f_curr > f_prev:
            break
        f_prev = f_curr
    else:
        raise ConvergenceError("no minimum found within the scan budget")

    at, tol = _observable_in_flight(flight, coupling), _NEWTON_TOL / P
    lo, hi, t = max(0.0, (steps - 2) * dt), steps * dt, (steps - 1) * dt
    for iters in range(1, _NEWTON_BUDGET + 1):
        _, g, h = at(t)
        if g > 0:
            hi = t
        elif g < 0:
            lo = t
        step = -g / h if h > 0 else math.inf
        if not lo <= t + step <= hi:
            step = 0.5 * (lo + hi) - t
        t += step
        if abs(step) <= tol:
            return t, steps, iters
    raise ConvergenceError("Newton refinement of the minimum did not converge")


def classical_accumulative_3d(n_particles, P_prime, kicks, seed,
                              coupling=Coupling.DIPOLE):
    """Accumulative squeezing of a classical thermal ensemble.

    Each cycle kicks the ensemble, then advances to the first local
    minimum of the orientation factor O (dipole) or alignment factor A
    (polarization) and records it; the next kick fires at that instant.
    The minimum search evaluates O or A in closed form from the coefficients
    of `thermal._free_flight`, and the ensemble flies on them to the minimum.
    P_prime = inf means zero initial temperature (only P't' matters, so
    the kick strength is set to 1 and time is reported as P't').
    Returns one dict of arrays: k, u = 2 O, w = <p_theta'^2>/P', dtau (in
    P't'), observable (O or A), and each search's scan_steps and newton_iters.
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
    P = ens.kick_strength
    rows = []
    for _ in range(kicks):
        ens = thermal.kick(ens, coupling)
        flight = thermal._free_flight(ens)
        t_min, steps, iters = _first_minimum(ens, coupling, flight)
        ens = thermal._fly(ens, flight, t_min) if t_min else ens
        O, A = thermal.orientation_alignment(ens)
        w = float(np.mean(ens.p_theta ** 2)) / P
        # u = 2 O = <2 (1 - cos theta)> ~ <theta^2> near the pole
        rows.append((2.0 * O, w, t_min * P, A if coupling is Coupling.POLARIZATION else O,
                     steps, iters))
    return _columns(("u", "w", "dtau", "observable", "scan_steps", "newton_iters"), rows)
