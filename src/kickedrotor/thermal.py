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
(polarization) to p_theta'.  The azimuth phi enters neither and is not
kept; theta enters only through (cos theta, sin theta), the pair an
ensemble carries.  `_fly` moves a whole ensemble through free flight (the
squeeze driver's step); the histogram flies cos theta alone, binning its
arccos.

Sampling uses a counter-based Philox generator keyed by (seed), so an
ensemble is reproducible however it is split; `sample_blocks` streams it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import Coupling
from .specfun import DomainError, sincos

__all__ = [
    "ThermalEnsemble",
    "sample_blocks",
    "sample_ensemble",
    "kick",
    "kicked_profile",
    "orientation_alignment",
]

BLOCK = 2 ** 14  # particles per block of `sample_blocks`: its temporaries fit in L2
_ARRAYS = ("cos_theta", "sin_theta", "p_theta", "p_phi")


@dataclass(frozen=True)
class ThermalEnsemble:
    """Particle arrays (cos theta, sin theta, p_theta, p_phi) plus kick strength."""

    cos_theta: np.ndarray
    sin_theta: np.ndarray
    p_theta: np.ndarray
    p_phi: np.ndarray
    kick_strength: float

    def __post_init__(self):
        if len(self.cos_theta) < 1:
            raise ValueError("ensemble needs at least one particle")
        if len({len(getattr(self, a)) for a in _ARRAYS}) > 1:
            raise ValueError("particle arrays must share one length")

    @property
    def n(self):
        return len(self.cos_theta)

    @property
    def theta(self):
        """Polar angles in [0, pi], formed from (cos theta, sin theta)."""
        # no runtime path reads it; the benchmark tracer counts particles by it
        return np.arctan2(self.sin_theta, self.cos_theta)


def sample_blocks(n, seed, kick_strength=1.0, temperature=1.0):
    """The thermal ensemble of n particles in consecutive blocks of BLOCK.

    cos theta = 1 - 2u for a uniform u, sin theta = 2 sqrt(u (1 - u)) (exact
    near both poles), p_theta' standard normal and p_phi' normal with
    standard deviation sin theta.  The momenta start 2n draws into the
    stream, after n draws that would give a uniform phi; all n p_theta'
    come first, so only they are drawn at full size.  temperature=0
    collapses the momentum spread (the P' -> infinity limit, where only P't'
    matters)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    uniform = np.random.Generator(np.random.Philox(key=seed))
    normal = np.random.Generator(np.random.Philox(key=seed).advance(n // 2))  # 4 draws a step
    normal.bit_generator.random_raw(2 * (n % 2), output=False)
    scale = math.sqrt(temperature)
    p_theta = normal.standard_normal(n)
    p_theta *= scale
    for lo in range(0, n, BLOCK):
        u = uniform.random(min(BLOCK, n - lo))
        s = np.multiply(u, 1.0 - u)  # u (1 - u), made sin theta in place
        np.multiply(np.sqrt(s, out=s), 2.0, out=s)
        p_phi = normal.standard_normal(u.size)
        p_phi *= s
        p_phi *= scale
        yield ThermalEnsemble(1.0 - 2.0 * u, s, p_theta[lo:lo + u.size], p_phi, float(kick_strength))


def sample_ensemble(n, seed, kick_strength=1.0, temperature=1.0):
    """The n-particle thermal ensemble of `sample_blocks` as one block."""
    blocks = list(sample_blocks(n, seed, kick_strength, temperature))
    return replace(blocks[0], **{a: np.concatenate([getattr(b, a) for b in blocks])
                                 for a in _ARRAYS})


def kick(ensemble, coupling=Coupling.DIPOLE):
    """Instantaneous kick at the current positions: only p_theta changes."""
    s = ensemble.sin_theta
    dp = 2.0 * s * ensemble.cos_theta if coupling is Coupling.POLARIZATION else s
    return replace(ensemble, p_theta=ensemble.p_theta - ensemble.kick_strength * dp)


def _free_flight(ensemble):
    """Per-particle coefficients of the free flight, fixed until the next kick.

    Returns (cos theta0, sin theta0, omega, b) with b = (p_theta'/omega)
    sin theta0, so that cos theta(t') = cos theta0 cos(omega t')
    - b sin(omega t').  A particle that does not move (omega = 0, or
    undefined at a pole) gets omega = b = 0 and so keeps theta0.
    `_fly` and the squeeze driver's search share these.  A |p_theta'|
    above 1e100 (or NaN) raises DomainError.
    """
    p0, sin0 = ensemble.p_theta, ensemble.sin_theta
    if not np.all(np.abs(p0) <= 1e100):  # beyond, p0^2 or the squeeze search's omega^2 overflows
        raise DomainError("|p_theta'| above 1e100 thermal momenta: the free flight would overflow")
    with np.errstate(invalid="ignore"):  # 0/0 on a pole, mapped to rest below
        omega = np.sqrt(p0 ** 2 + (ensemble.p_phi / sin0) ** 2)
    moving = omega > 0
    omega[~moving] = 0.0  # NaN where theta0 sits exactly on a pole
    b = p0 / np.where(moving, omega, 1.0) * sin0
    return ensemble.cos_theta, sin0, omega, b


def _flown_cos(flight, dt):
    # (cos theta(dt), sin(omega dt), cos(omega dt)) on the `_free_flight`
    # coefficients; a particle at rest keeps cos theta0 exactly
    cos0, _, omega, b = flight
    sw, cw = sincos(omega * dt)
    c = cos0 * cw - b * sw
    return np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c), sw, cw


def _fly(ensemble, flight, dt):
    """The ensemble after free flight for dt on its `_free_flight`
    coefficients: cos theta by `_flown_cos`, sin theta from the energy
    invariant, p_theta from the analytic time derivative, which also
    reflects the momentum through a pole (possible only for p_phi = 0).
    Large temporaries are freed as soon as they are used."""
    c, sw, cw = _flown_cos(flight, dt)
    cos0, sin0, omega, _ = flight
    del flight  # and with it b
    # g = -d(cos theta)/dt, used to recover sin(theta) and the momentum sign
    g = omega * cos0 * sw + ensemble.p_theta * sin0 * cw
    del cos0, sin0, cw, sw
    # energy invariant: sin^2(theta) = (g^2 + p_phi^2)/omega^2, which
    # stays well conditioned when the trajectory grazes a pole (the
    # direct sqrt(1 - c^2) loses half the digits there)
    sin_new = np.sqrt(g * g + ensemble.p_phi ** 2)
    moving = omega > 0
    np.divide(sin_new, omega, out=sin_new, where=moving)
    safe = sin_new > 1e-300
    p_theta = np.divide(g, sin_new, out=g, where=safe)
    np.negative(ensemble.p_theta, out=p_theta, where=~safe)
    for new, old in ((c, ensemble.cos_theta), (sin_new, ensemble.sin_theta),
                     (p_theta, ensemble.p_theta)):
        np.copyto(new, old, where=~moving)
    return replace(ensemble, cos_theta=c, sin_theta=sin_new, p_theta=p_theta)


def kicked_profile(blocks, dt, bins, coupling=Coupling.DIPOLE):
    """(grid, density, O, A) of the union of `blocks` (ensembles of one kick
    strength, such as `sample_blocks`) after a kick and free flight for dt:
    the bin centers, the plotted f(theta) there, normalized so sum(density
    * dtheta) = 1 with no 1/sin(theta) weighting (the isotropic ensemble
    shows sin(theta)/2), and `orientation_alignment`.  Counts add exactly,
    (O, A) up to sum order.  Only cos theta is flown, and arccos(cos theta)
    binned as np.histogram does.
    """
    if bins < 2 or dt < 0:
        raise ValueError("need at least 2 bins and dt >= 0")
    edges = np.linspace(0.0, math.pi, bins + 1)
    n, counts, sums = 0, 0, np.zeros(2)
    for block in blocks:
        c = _flown_cos(_free_flight(kick(block, coupling)), dt)[0] if dt else block.cos_theta
        sums += _alignment_sums(c)
        n, counts = n + block.n, counts + _bin_counts(np.arccos(c), edges)
    if not n:
        raise ValueError("no particles to histogram")
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = counts / (n * (edges[1] - edges[0]))
    O, A = sums / n
    return centers, dens, float(O), float(A)


def _bin_counts(theta, edges):
    # np.histogram(theta, edges.size - 1, range=(0, pi))[0] by its own rule for
    # theta in [0, pi]: floor(theta bins/pi) but pi in the last bin, one step to the edges
    bins = edges.size - 1
    k = np.multiply(theta, bins / math.pi).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k -= theta < edges[k]
    k += (theta >= edges[k + 1]) & (k != bins - 1)
    return np.bincount(k, minlength=bins)


def _alignment_sums(c):
    # pairwise sums of 1 - cos theta and 1 - cos^2 theta
    return (1.0 - c).sum(), (1.0 - c * c).sum()


def orientation_alignment(ensemble):
    """(O, A) = (<1 - cos theta>, <1 - cos^2 theta>).

    Reductions use pairwise summation (numpy's default), so the result is
    independent of any outer parallel split of the particle arrays.
    """
    O, A = _alignment_sums(ensemble.cos_theta)
    return float(O / ensemble.n), float(A / ensemble.n)
