"""Classical ensemble dynamics of a delta-kicked rotor at zero temperature.

A rotor starting at rest at angle theta0 acquires angular velocity
-P sin(theta0) (dipole coupling) or -P sin(2 theta0) (polarization), so at
dimensionless time tau it sits at theta0 - s sin(theta0) with s = P*tau.
Everything here works with the single map parameter s: the multi-branch
inversion of the kick map, the singular ensemble density, and the critical
angles (rainbow, glory) and times of the resulting catastrophes.  The
inversion of a whole theta array is solved in one _bisect_rows call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _row_slices

__all__ = [
    "Coupling",
    "Geometry",
    "MapParams",
    "density_classical",
    "rainbow_angle",
    "glory_angles",
    "focal_times",
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


_BISECT_TOL, _BISECT_MAX = 1e-14, 200  # bracket width at which _bisect_rows stops; most halvings


def _bisect_rows(f, a, b):
    """Roots of many bracketed functions at once, by bisection.

    f maps an array of abscissae, one per row, to the array of its values
    at them; a and b are the bracket ends (arrays or scalars).  A row whose
    value is exactly zero at an end returns that end.  Otherwise each row
    halves its bracket, keeping the half whose ends differ in sign, and
    returns the midpoint once the bracket is narrower than _BISECT_TOL or
    f is exactly zero there, or after _BISECT_MAX halvings.  A row whose
    ends have the same sign raises ValueError.
    """
    fa, fb = f(a), f(b)
    a = np.broadcast_to(a, fa.shape).astype(float)
    b = np.broadcast_to(b, fa.shape).astype(float)
    root = np.where(fa == 0.0, a, b)
    live = (fa != 0.0) & (fb != 0.0)
    if np.any(live & (fa * fb > 0)):
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(_BISECT_MAX):
        if not live.any():
            return root
        mid = 0.5 * (a + b)
        fm = f(mid)
        done = live & (((b - a) < _BISECT_TOL) | (fm == 0.0))
        root = np.where(done, mid, root)
        live &= ~done
        # rows already done keep halving, unread: their root is stored
        left = fa * fm < 0
        b = np.where(left, mid, b)
        a = np.where(left, a, mid)
        fa = np.where(left, fa, fm)
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


def _branches(theta, params):
    """Every initial angle arriving at each angle of a 1-D theta array.

    Returns (index, root, derivative): one row per branch, sorted by theta
    index and then by root, with the map derivative at the root.  The
    domain of theta0 is split at the analytic zeros of the map derivative;
    each target copy theta + 2 pi k inside the map's range (on the sphere
    also -theta + 2 pi k) is bracketed on every monotone piece, and the
    straddling brackets of each block of `specfun._row_slices` are solved
    in one _bisect_rows call.  A piece end where the map hits a target is
    a root itself; a root within 1e-10 of the previous one is dropped, and
    at a pole of the sphere every interior root counts twice (it feeds the
    pole from both azimuthal sides).
    """
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    s, m = params.s, params.harmonic
    sphere = params.geometry is Geometry.SPHERE_3D
    pieces = np.array(_monotone_breakpoints(s, m, 0.0, math.pi if sphere else TWO_PI))
    g = pieces - s * np.sin(m * pieces)
    g_min, g_max = g.min() - 1e-12, g.max() + 1e-12
    base = np.stack([theta, -theta], axis=1) if sphere else theta[:, None]
    k_lo = np.floor((g_min - base) / TWO_PI)
    k_hi = np.ceil((g_max - base) / TWO_PI)
    copies = int(np.max(k_hi - k_lo, initial=0.0)) + 1
    index, found = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for rows in _row_slices(theta.size, base.shape[1] * copies * pieces.size):
        k = k_lo[rows, :, None] + np.arange(copies)
        v = base[rows, :, None] + TWO_PI * k
        ok = (k <= k_hi[rows, :, None]) & (g_min <= v) & (v <= g_max)
        owner = np.broadcast_to(np.arange(rows.start, rows.stop)[:, None, None], v.shape)[ok]
        v = v[ok]
        f = g - v[:, None]  # (target, piece end)
        hit, end = np.nonzero(f == 0.0)
        tgt, piece = np.nonzero(f[:, :-1] * f[:, 1:] < 0.0)
        fv = v[tgt]
        index += [owner[hit], owner[tgt]]
        found += [pieces[end],
                  _bisect_rows(lambda t: t - s * np.sin(m * t) - fv, pieces[piece], pieces[piece + 1])]
    index, roots = np.concatenate(index), np.concatenate(found)
    order = np.lexsort((roots, index))
    index, roots = index[order], roots[order]

    # a root within 1e-10 of the previous one (twin targets, a fold) is that root
    keep = (np.diff(index, prepend=-1) != 0) | (np.diff(roots, prepend=-math.inf) > 1e-10)
    index, roots = index[keep], roots[keep]
    if sphere:
        pole = (theta < 1e-12) | (np.abs(theta - math.pi) < 1e-12)
        twice = 1 + (pole[index] & (roots > 1e-9) & (roots < math.pi - 1e-9))
        index, roots = np.repeat(index, twice), np.repeat(roots, twice)
    return index, roots, 1.0 - m * s * np.cos(m * roots)


def density_classical(theta, params):
    """Angular density of the initially uniform kicked ensemble.

    2D: sum over branches of (1/2pi)/|map derivative|.
    3D: sum of (1/4pi) sin(theta0)/(|map derivative| sin(theta)).
    Returns +inf at the singular (fold/glory) angles.  theta is a scalar
    (a float is returned) or an array, solved in one _bisect_rows call.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    index, t0, der = _branches(flat, params)
    sphere = params.geometry is Geometry.SPHERE_3D
    sin_th = np.abs(np.sin(flat))[index] if sphere else np.ones(index.size)
    fold = np.abs(der) < 1e-12
    # on the axis of the sphere: a glory (finite flux focused onto the
    # axis) unless the trajectory stays polar, where sin(t0)/sin(theta)
    # tends to 1/|der|
    axis = sphere & (sin_th < 1e-12)
    singular = fold | (axis & (np.abs(np.sin(t0)) > 1e-9))
    w = np.zeros(t0.size)
    polar = axis & ~singular
    w[polar] = (1.0 / (4.0 * math.pi)) / (der[polar] * der[polar])
    lit = ~fold & ~axis
    f0 = np.sin(t0[lit]) / (4.0 * math.pi) if sphere else 1.0 / TWO_PI
    w[lit] = f0 / np.abs(der[lit]) / sin_th[lit]
    # float even when no branch arrives anywhere (the far pole before the
    # backward glory forms)
    total = np.bincount(index, weights=w, minlength=flat.size).astype(float, copy=False)
    total[np.bincount(index[singular], minlength=flat.size) > 0] = math.inf
    return float(total[0]) if theta.ndim == 0 else total.reshape(theta.shape)


def rainbow_angle(s):
    """Rainbow (fold) angle theta_r = -arccos(1/s) + sqrt(s^2 - 1).

    This is the positive representative, unfolded (it passes pi once
    s > ~4.6); the mirror rainbow sits at -theta_r.
    """
    if s < 1.0:
        raise ValueError("rainbow exists only for s >= 1")
    return -math.acos(1.0 / s) + math.sqrt(s * s - 1.0)


# map strength at which the backward glory forms: the rainbow ring reaches
# the far pole, -arccos(1/s) + sqrt(s^2 - 1) = pi
_S_BACKWARD = float(_bisect_rows(
    lambda s: -np.arccos(1.0 / s) + np.sqrt(s * s - 1.0) - math.pi, 1.0 + 1e-9, 20.0))


def glory_angles(s):
    """Glory feed angles of the dipole-kicked spherical ensemble.

    Forward glory: nontrivial root of theta = s*sin(theta), present for
    s >= 1 (born at zero).  Backward glory: the pair solving
    theta0 - s*sin(theta0) = -pi (trajectories landing on the far pole),
    present once s exceeds the onset strength _S_BACKWARD ~4.6.  Returns
    (forward, backward): the root, and the pair of roots, or None where
    that glory is absent.
    """
    if s < 0:
        raise ValueError("s must be >= 0")

    forward = None
    if s >= 1.0:
        if s == 1.0:
            forward = 0.0
        else:
            # f < 0 just above 0 (slope 1-s), f(pi) = pi > 0
            forward = float(_bisect_rows(lambda t: t - s * np.sin(t), 1e-12, math.pi - 1e-15))

    backward = None
    if s >= _S_BACKWARD:
        tbar = math.acos(1.0 / s)
        if s == _S_BACKWARD:
            backward = (tbar, tbar)
        else:
            b1, b2 = _bisect_rows(lambda t: t - s * np.sin(t) + math.pi,
                                  np.array([1e-12, tbar]), np.array([tbar, math.pi]))
            backward = (float(b1), float(b2))
    return forward, backward


def focal_times(P, coupling=Coupling.DIPOLE):
    """Focusing delay: 1/P for the dipole kick, 1/(2P) for polarization."""
    if P <= 0:
        raise ValueError("focal_times requires P > 0")
    if coupling is Coupling.POLARIZATION:
        return 1.0 / (2.0 * P)
    return 1.0 / P
