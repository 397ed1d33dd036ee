"""Classical 3D kicked-rotor ensembles at finite temperature.

Momenta are measured in units of the thermal momentum, so the initial
distribution is exp[-(p_theta'^2 + p_phi'^2/sin^2 theta)/2] with theta
distributed as sin(theta)/2.  Free motion conserves p_phi' and the energy
(p_theta'^2 + p_phi'^2/sin^2 theta)/2; cos(theta) evolves harmonically
with frequency omega = sqrt(p_theta'^2 + p_phi'^2/sin^2 theta(0)):

    cos theta(t') = cos theta0 cos(omega t')
                    - (p_theta'/omega) sin theta0 sin(omega t')

(the sign of the second term is fixed by theta_dot = +p_theta').  A kick
of strength P' adds -P' sin(theta) (dipole) or -P' sin(2 theta)
(polarization) to p_theta'; the azimuth phi enters neither and is not kept.

Sampling uses a counter-based Philox generator keyed by (seed), so an
ensemble is reproducible regardless of how the work is split afterwards;
`kicked_profile` kicks, evolves and histograms it in blocks of BLOCK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import Coupling
from .profiles import DensityProfile
from .specfun import DomainError

__all__ = [
    "ThermalEnsemble",
    "sample_ensemble",
    "kick",
    "evolve",
    "kicked_profile",
    "orientation_alignment",
]

BLOCK = 2 ** 16  # particles per block of `kicked_profile`


@dataclass(frozen=True)
class ThermalEnsemble:
    """Particle arrays (theta, p_theta, p_phi) plus kick strength."""

    theta: np.ndarray
    p_theta: np.ndarray
    p_phi: np.ndarray
    kick_strength: float
    seed: int

    def __post_init__(self):
        n = len(self.theta)
        if n < 1:
            raise ValueError("ensemble needs at least one particle")
        if len(self.p_theta) != n or len(self.p_phi) != n:
            raise ValueError("particle arrays must share one length")

    @property
    def n(self):
        return len(self.theta)

    def energy(self):
        """Per-particle free energy (p_theta'^2 + p_phi'^2/sin^2 theta)/2."""
        return 0.5 * (self.p_theta ** 2 + (self.p_phi / np.sin(self.theta)) ** 2)


def sample_ensemble(n, seed, kick_strength=1.0, temperature=1.0):
    """Draw n particles from the thermal equilibrium distribution.

    theta ~ sin(theta)/2 on [0, pi], p_theta' standard normal, and
    p_phi' normal with standard deviation sin(theta) (so the conjugate
    velocity p_phi'/sin theta is standard normal).  The momenta start 2n
    draws into the stream, after n draws that would give a uniform phi.
    temperature=0 collapses the momentum spread (the P' -> infinity
    limit, where only the product P' t' matters).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = np.arccos(1.0 - 2.0 * rng.random(n))
    rng = np.random.Generator(np.random.Philox(key=seed).advance(n // 2))  # 4 draws a step
    rng.bit_generator.random_raw(2 * (n % 2), output=False)
    scale = math.sqrt(temperature)
    p_theta = rng.standard_normal(n) * scale
    p_phi = rng.standard_normal(n) * np.sin(theta) * scale
    return ThermalEnsemble(theta=theta, p_theta=p_theta, p_phi=p_phi,
                           kick_strength=float(kick_strength), seed=int(seed))


def kick(ensemble, coupling=Coupling.DIPOLE):
    """Instantaneous kick at the current positions: only p_theta changes."""
    return _kick(ensemble, coupling)[0]


def _kick(ensemble, coupling):
    # (`kick`, the dipole kick's sin theta or None), for `_free_flight` to reuse
    sin0 = None if coupling is Coupling.POLARIZATION else np.sin(ensemble.theta)
    dp = np.sin(2.0 * ensemble.theta) if sin0 is None else sin0
    return replace(ensemble, p_theta=ensemble.p_theta - ensemble.kick_strength * dp), sin0


def _free_flight(ensemble, sin0=None):
    """Per-particle coefficients of the free flight, fixed until the next kick.

    Returns (cos theta0, sin theta0, omega, b) with b = (p_theta'/omega)
    sin theta0, so that cos theta(t') = cos theta0 cos(omega t')
    - b sin(omega t').  A particle that does not move (omega = 0, or
    undefined at a pole) gets omega = b = 0 and so keeps theta0.
    `_fly` and the squeeze driver's search share these; sin0 is sin theta0
    if given.  A |p_theta'| above 1e100 (or NaN) raises DomainError.
    """
    p0 = ensemble.p_theta
    if not np.all(np.abs(p0) <= 1e100):  # beyond, p0^2 or the squeeze search's omega^2 overflows
        raise DomainError("|p_theta'| above 1e100 thermal momenta: the free flight would overflow")
    sin0 = np.sin(ensemble.theta) if sin0 is None else sin0
    omega = np.sqrt(p0 ** 2 + (ensemble.p_phi / sin0) ** 2)
    moving = omega > 0
    omega[~moving] = 0.0  # NaN where theta0 sits exactly on a pole
    b = p0 / np.where(moving, omega, 1.0) * sin0
    return np.cos(ensemble.theta), sin0, omega, b


def evolve(ensemble, dt):
    """Free flight for dimensionless time dt (>= 0).

    cos(theta) rotates harmonically at each particle's omega, with the
    coefficients of `_free_flight`; sin(theta) is recovered from the
    energy invariant and p_theta from the analytic time derivative, which
    also makes passage through a pole (possible only for p_phi = 0)
    reflect the momentum automatically.  Each transcendental is computed
    once per particle, and the large temporaries are freed as soon as
    they are used.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return _fly(ensemble, _free_flight(ensemble), dt) if dt else ensemble


def _fly(ensemble, flight, dt):
    # `evolve` for dt > 0 on the `_free_flight` coefficients of the ensemble
    cos0, sin0, omega, b = flight
    del flight
    wt = omega * dt
    cw = np.cos(wt)
    sw = np.sin(wt, out=wt)
    c = np.clip(cos0 * cw - b * sw, -1.0, 1.0)
    del b
    # g = -d(cos theta)/dt, used to recover sin(theta) and the momentum sign
    g = omega * cos0 * sw + ensemble.p_theta * sin0 * cw
    del cos0, sin0, cw, sw
    # energy invariant: sin^2(theta) = (g^2 + p_phi^2)/omega^2, which
    # stays well conditioned when the trajectory grazes a pole (the
    # direct sqrt(1 - c^2) loses half the digits there)
    sin_new = np.sqrt(g * g + ensemble.p_phi ** 2)
    moving = omega > 0
    np.divide(sin_new, omega, out=sin_new, where=moving)
    theta = np.arctan2(sin_new, c, out=c)
    safe = sin_new > 1e-300
    p_theta = np.divide(g, sin_new, out=g, where=safe)
    np.negative(ensemble.p_theta, out=p_theta, where=~safe)
    np.copyto(theta, ensemble.theta, where=~moving)
    np.copyto(p_theta, ensemble.p_theta, where=~moving)
    return replace(ensemble, theta=theta, p_theta=p_theta)


def kicked_profile(ensemble, dt, bins, coupling=Coupling.DIPOLE):
    """(profile, O, A) after a kick and free flight for dt: the plotted
    f(theta), normalized so sum(density * dtheta) = 1 with no 1/sin(theta)
    weighting (the isotropic ensemble shows sin(theta)/2), and
    `orientation_alignment`.  Blocks of BLOCK particles go through `kick`
    and `evolve`, sharing sin theta; counts add exactly, (O, A) up to sum order.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    n, e = ensemble.n, ensemble
    counts, sums = 0, np.zeros(2)
    for part in (slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK)):
        block = replace(e, theta=e.theta[part], p_theta=e.p_theta[part], p_phi=e.p_phi[part])
        block, sin0 = _kick(block, coupling)
        block = _fly(block, _free_flight(block, sin0), dt) if dt else block
        c, edges = np.histogram(block.theta, bins=bins, range=(0.0, math.pi))
        counts, sums = counts + c, sums + _alignment_sums(block.theta)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = counts / (n * (edges[1] - edges[0]))
    O, A = sums / n
    return DensityProfile(grid=centers, values=dens, geometry="sphere"), float(O), float(A)


def _alignment_sums(theta):
    c = np.cos(theta)  # pairwise sums of 1 - cos theta and 1 - cos^2 theta
    return np.sum(1.0 - c), np.sum(1.0 - c * c)


def orientation_alignment(ensemble):
    """(O, A) = (<1 - cos theta>, <1 - cos^2 theta>).

    Reductions use pairwise summation (numpy's default), so the result is
    independent of any outer parallel split of the particle arrays.
    """
    O, A = _alignment_sums(ensemble.theta)
    return float(O / ensemble.n), float(A / ensemble.n)
