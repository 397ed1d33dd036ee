"""Classical ensemble dynamics of a delta-kicked rotor at zero temperature.

A rotor starting at rest at angle theta0 acquires angular velocity
-P sin(theta0) (dipole coupling) or -P sin(2 theta0) (polarization), so at
dimensionless time tau it sits at theta0 - s sin(theta0) with s = P*tau.
Everything here works with the single map parameter s: the kick map, its
multi-branch inversion, the singular ensemble density, and the critical
angles (rainbow, glory) and times of the resulting catastrophes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Coupling",
    "Geometry",
    "MapParams",
    "BranchSet",
    "map_forward",
    "invert_map",
    "density_classical",
    "rainbow_angle",
    "glory_angles",
    "GloryAngles",
    "focal_times",
    "fold_to_sphere",
]

TWO_PI = 2.0 * math.pi


class Coupling(enum.Enum):
    DIPOLE = "dipole"          # cos(theta) potential
    POLARIZATION = "polarization"  # cos^2(theta) potential


class Geometry(enum.Enum):
    PLANAR_2D = "planar2D"
    SPHERE_3D = "sphere3D"


@dataclass(frozen=True)
class MapParams:
    """Kick-map parameters: s = P*tau plus coupling and geometry."""

    s: float
    coupling: Coupling = Coupling.DIPOLE
    geometry: Geometry = Geometry.PLANAR_2D

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("map strength s must be >= 0")

    @property
    def harmonic(self):
        # sin(m*theta0) kick profile: m=1 dipole, m=2 polarization
        return 1 if self.coupling is Coupling.DIPOLE else 2


@dataclass(frozen=True)
class BranchSet:
    """All initial angles mapping to one final angle, with map Jacobians."""

    roots: tuple
    derivatives: tuple  # d theta / d theta0 at each root

    def __len__(self):
        return len(self.roots)


def fold_to_sphere(theta):
    """Reflect an unrestricted polar angle into [0, pi]."""
    r = math.fmod(theta, TWO_PI)
    if r < 0:
        r += TWO_PI
    return TWO_PI - r if r > math.pi else r


def _raw_map(theta0, s, m):
    return theta0 - s * math.sin(m * theta0)


def _raw_deriv(theta0, s, m):
    return 1.0 - m * s * math.cos(m * theta0)


def map_forward(theta0, params):
    """Final angle of a rotor that started at rest at theta0."""
    m = params.harmonic
    val = _raw_map(theta0, params.s, m)
    if params.geometry is Geometry.SPHERE_3D:
        return fold_to_sphere(val)
    return val % TWO_PI


def _bisect(f, a, b, tol=1e-14, max_iter=200):
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if (b - a) < tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _bisect_rows(f, a, b, tol=1e-14, max_iter=200):
    """_bisect on many brackets at once.

    f maps an array of abscissae, one per row, to the array of its values
    at them; a and b are the bracket ends (arrays or scalars).  Every row
    follows _bisect's stopping rule, so each root is the one _bisect
    returns for that row, and a row that does not straddle a root raises
    the same ValueError.
    """
    fa, fb = f(a), f(b)
    a = np.broadcast_to(a, fa.shape).astype(float)
    b = np.broadcast_to(b, fa.shape).astype(float)
    root = np.where(fa == 0.0, a, b)
    live = (fa != 0.0) & (fb != 0.0)
    if np.any(live & (fa * fb > 0)):
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        if not live.any():
            return root
        mid = 0.5 * (a + b)
        done = live & ((b - a) < tol)
        fm = f(mid)
        done |= live & (fm == 0.0)
        root = np.where(done, mid, root)
        live &= ~done
        left = live & (fa * fm < 0)
        right = live & ~left
        b = np.where(left, mid, b)
        a = np.where(right, mid, a)
        fa = np.where(right, fm, fa)
    return np.where(live, 0.5 * (a + b), root)


def _monotone_breakpoints(s, m, lo, hi):
    """Zeros of the map derivative partition [lo, hi] into monotone pieces."""
    pts = [lo]
    if m * s > 1.0:
        # cos(m t) = 1/(m s): roots t = (+-acos + 2 pi k)/m
        a = math.acos(1.0 / (m * s))
        k_min = int(math.floor((lo * m - a) / TWO_PI)) - 1
        k_max = int(math.ceil((hi * m + a) / TWO_PI)) + 1
        for k in range(k_min, k_max + 1):
            for t in ((a + TWO_PI * k) / m, (-a + TWO_PI * k) / m):
                if lo < t < hi:
                    pts.append(t)
    pts.append(hi)
    return sorted(set(pts))


def invert_map(theta, params):
    """Every initial angle whose trajectory arrives at theta.

    The domain of theta0 is split at the analytic zeros of the map
    derivative; each monotone piece is bisected.  Planar geometry scans the
    2*pi*p copies of theta that intersect the map's range; the sphere also
    matches the reflected targets -theta.
    """
    s, m = params.s, params.harmonic
    sphere = params.geometry is Geometry.SPHERE_3D
    lo, hi = (0.0, math.pi) if sphere else (0.0, TWO_PI)
    pieces = _monotone_breakpoints(s, m, lo, hi)

    g_vals = [_raw_map(p, s, m) for p in pieces]
    g_min, g_max = min(g_vals) - 1e-12, max(g_vals) + 1e-12

    targets = set()
    base = [theta, -theta] if sphere else [theta]
    for t in base:
        k_lo = int(math.floor((g_min - t) / TWO_PI))
        k_hi = int(math.ceil((g_max - t) / TWO_PI))
        for k in range(k_lo, k_hi + 1):
            v = t + TWO_PI * k
            if g_min <= v <= g_max:
                targets.add(v)

    roots = []
    for v in sorted(targets):
        f = lambda t, v=v: _raw_map(t, s, m) - v
        for a, b in zip(pieces[:-1], pieces[1:]):
            fa, fb = f(a), f(b)
            if fa == 0.0:
                roots.append(a)
            elif fa * fb < 0:
                roots.append(_bisect(f, a, b))
        if f(pieces[-1]) == 0.0:
            roots.append(pieces[-1])

    # de-duplicate roots found at shared piece endpoints
    roots = sorted(roots)
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-10:
            dedup.append(r)
    if sphere and (theta < 1e-12 or abs(theta - math.pi) < 1e-12):
        # at a pole the +theta and -theta arrival targets coincide: every
        # interior root feeds the pole from both azimuthal sides
        doubled = []
        for r in dedup:
            doubled.append(r)
            if 1e-9 < r < math.pi - 1e-9:
                doubled.append(r)
        dedup = doubled
    return BranchSet(
        roots=tuple(dedup),
        derivatives=tuple(_raw_deriv(r, s, m) for r in dedup),
    )


@dataclass(frozen=True)
class ClassicalDensity:
    """Density value plus singularity metadata at one angle."""

    value: float
    singular: bool = False
    # one-sided coefficient c of c*|theta - theta_c|^(-1/2) when singular
    singular_coefficient: float = 0.0


def density_classical(theta, params, detailed=False):
    """Angular density of the initially uniform kicked ensemble.

    2D: sum over branches of (1/2pi)/|map derivative|.
    3D: sum of (1/4pi) sin(theta0)/(|map derivative| sin(theta)).
    Returns +inf at the singular (fold/glory) angles; with detailed=True a
    ClassicalDensity carrying the fold coefficient is returned instead.
    """
    s, m = params.s, params.harmonic
    sphere = params.geometry is Geometry.SPHERE_3D
    branches = invert_map(theta, params)
    total = 0.0
    singular = False
    coeff = 0.0
    sin_th = math.sin(theta)
    for t0, der in zip(branches.roots, branches.derivatives):
        f0 = math.sin(t0) / (4.0 * math.pi) if sphere else 1.0 / TWO_PI
        if abs(der) < 1e-12:
            # fold: the coalescing pair gives f0 sqrt(2/|g''|) |dtheta|^(-1/2)
            singular = True
            g2 = m * m * s * math.sin(m * t0)
            if abs(g2) > 1e-14:
                c = f0 * math.sqrt(2.0 / abs(g2))
                coeff += c / abs(sin_th) if (sphere and abs(sin_th) > 1e-12) else c
            continue
        if sphere and abs(sin_th) < 1e-12:
            if abs(math.sin(t0)) > 1e-9:
                # glory: finite flux focused onto the symmetry axis
                singular = True
                coeff += f0 / abs(der)
            else:
                # polar trajectory staying polar: sin(t0)/sin(theta) -> 1/|der|
                total += (1.0 / (4.0 * math.pi)) / (der * der)
            continue
        total += f0 / abs(der) / (abs(sin_th) if sphere else 1.0)
    if detailed:
        return ClassicalDensity(
            value=math.inf if singular else total,
            singular=singular,
            singular_coefficient=coeff,
        )
    return math.inf if singular else total


def rainbow_angle(s):
    """Rainbow (fold) angle theta_r = -arccos(1/s) + sqrt(s^2 - 1).

    This is the positive representative, unfolded (it passes pi once
    s > ~4.6); the mirror rainbow sits at -theta_r.
    """
    if s < 1.0:
        raise ValueError("rainbow exists only for s >= 1")
    return -math.acos(1.0 / s) + math.sqrt(s * s - 1.0)


@dataclass(frozen=True)
class GloryAngles:
    """Initial angles feeding the forward/backward glory, if present."""

    forward: float | None
    backward: tuple | None  # pair of roots once the rainbow ring returns
    s_backward_onset: float  # map strength at which the backward glory forms


def _backward_onset():
    # solve -arccos(1/s) + sqrt(s^2-1) = pi; rainbow ring reaches the far pole
    f = lambda s: -math.acos(1.0 / s) + math.sqrt(s * s - 1.0) - math.pi
    return _bisect(f, 1.0 + 1e-9, 20.0)


_S_BACKWARD = None


def glory_angles(s):
    """Glory feed angles of the dipole-kicked spherical ensemble.

    Forward glory: nontrivial root of theta = s*sin(theta), present for
    s >= 1 (born at zero).  Backward glory: the pair solving
    theta0 - s*sin(theta0) = -pi (trajectories landing on the far pole),
    present once s exceeds the onset strength ~4.6.
    """
    global _S_BACKWARD
    if s < 0:
        raise ValueError("s must be >= 0")
    if _S_BACKWARD is None:
        _S_BACKWARD = _backward_onset()

    forward = None
    if s >= 1.0:
        if s == 1.0:
            forward = 0.0
        else:
            # f < 0 just above 0 (slope 1-s), f(pi) = pi > 0
            f = lambda t: t - s * math.sin(t)
            forward = _bisect(f, 1e-12, math.pi - 1e-15)

    backward = None
    if s >= _S_BACKWARD:
        tbar = math.acos(1.0 / s)
        f = lambda t: t - s * math.sin(t) + math.pi
        if s == _S_BACKWARD:
            backward = (tbar, tbar)
        else:
            b1 = _bisect(f, 1e-12, tbar)
            b2 = _bisect(f, tbar, math.pi)
            backward = (b1, b2)
    return GloryAngles(forward=forward, backward=backward,
                       s_backward_onset=_S_BACKWARD)


def focal_times(P, coupling=Coupling.DIPOLE):
    """Focusing delay: 1/P for the dipole kick, 1/(2P) for polarization."""
    if P <= 0:
        raise ValueError("focal_times requires P > 0")
    if coupling is Coupling.POLARIZATION:
        return 1.0 / (2.0 * P)
    return 1.0 / P
