"""Exact quantum evolution of the axially symmetric 3D rigid rotor.

A vertically polarized kick preserves m = 0, so the state is a sum over
spherical harmonics Y_l^0 with energies l(l+1)/2.  The dipole kick on the
ground state populates c_l = i^l sqrt(2l+1) j_l(P); the polarization kick
needs the Legendre re-expansion P_l(cos 2 theta) = sum_L d_{L,l} P_L(cos
theta), built by recurrence on each call.

`quantum2d.free_evolve` applies the free phase exp(-i l(l+1) tau / 2),
with the same sign as the 2D rotor's; the opposite sign is equivalent to
kicking with -P and would focus the packet at theta = pi instead of 0.
"""

from __future__ import annotations

import math

import numpy as np

from .quantum2d import _I_POW, Packet, TruncationError, kick_order_margin
from .specfun import spherical_jn_array

__all__ = [
    "LegendrePacket3D",
    "dipole_kick_ground",
    "build_recurrence",
    "polarization_kick_ground",
    "wavefunction_3d",
    "density_3d",
]


class LegendrePacket3D(Packet):
    """c_l for l in [0, l_max], at least one, an edge at l_max; 2E = l(l+1)."""

    _SHAPE = "nonempty 1-D array of length l_max + 1"
    _EDGE = [-1]
    _size_ok = staticmethod(lambda size: size > 0)
    l_max = property(lambda self: self.coeffs.size - 1)
    orders = property(lambda self: np.arange(self.coeffs.size))
    spectrum = property(lambda self: self.orders * (self.orders + 1.0))


def dipole_kick_ground(P):
    """Ground state kicked by exp(iP cos theta): c_l = i^l sqrt(2l+1) j_l(P),
    up to l_max = kick_order_margin(P)."""
    if P < 0:
        raise ValueError("P must be >= 0")
    l_max = kick_order_margin(P)
    l = np.arange(l_max + 1)
    jl = spherical_jn_array(l_max, P)
    c = _I_POW[l % 4] * np.sqrt(2 * l + 1.0) * jl
    # spherical-Bessel sum rule: sum (2l+1) j_l^2 = 1; renormalize the
    # truncated tail away
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    packet = LegendrePacket3D(c)
    if not abs(np.sum((2 * l + 1.0) * jl ** 2) - 1.0) <= 1e-10:
        raise TruncationError("spherical-Bessel tail mass exceeds 1e-10")
    return packet


def build_recurrence(L_max):
    """Legendre re-expansion table: the read-only array d[L, l], L <= L_max,
    l <= L_max/2, with P_l(2x^2 - 1) = sum_L d[L, l] P_L(x).  Only even L
    contribute; every column sums to 1 because P_L(1) = 1.

    Column l+1 follows from columns l and l-1 as one array step over even L:
      d_{L,l+1} = (2l+1)(2L+1)/(l+1) sum_{L'} d_{L',l} N_{L,L'}
                  - (2l+1)/(l+1) d_{L,l} - l/(l+1) d_{L,l-1},
    where N_{L,L'} = <P_L | x^2 | P_L'> (with the 2/(2L+1) normalization
    kept) is nonzero only for L' = L-2, L, L+2; it is seeded by P_0 -> 1 and
    P_1(2x^2-1) = 2x^2 - 1 = (4 P_2 - P_0)/3.  Nothing is cached: L_max = 170
    takes about 1 ms.
    """
    if L_max < 2 or L_max % 2:
        raise ValueError("L_max must be even and >= 2")
    l_max = L_max // 2
    L = np.arange(0, L_max + 1, 2)
    # the diagonals L' = L-2, L, L+2 of N_{L,L'}
    lower = 2.0 * L * (L - 1) / ((2 * L - 3.0) * (2 * L - 1.0) * (2 * L + 1.0))
    diag = 2.0 / (2 * L + 1) ** 2 * ((L + 1) ** 2 / (2 * L + 3.0) + L * L / (2 * L - 1.0))
    upper = 2.0 * (L + 1) * (L + 2) / ((2 * L + 1.0) * (2 * L + 3.0) * (2 * L + 5.0))
    # row l holds column l of d on even L, between one zero on either side
    cols = np.zeros((l_max + 1, L.size + 2))
    cols[0, 1] = 1.0
    cols[1, 1:3] = -1.0 / 3.0, 4.0 / 3.0
    for l in range(1, l_max):
        prev, c = cols[l - 1, 1:-1], cols[l]
        acc = c[:-2] * lower + c[1:-1] * diag + c[2:] * upper
        cols[l + 1, 1:-1] = ((2 * l + 1.0) * (2 * L + 1.0) / (l + 1.0) * acc
                             - (2 * l + 1.0) / (l + 1.0) * c[1:-1] - l / (l + 1.0) * prev)
    d = np.zeros((L_max + 1, l_max + 1))
    d[::2] = cols[:, 1:-1].T
    d.setflags(write=False)
    return d


def polarization_kick_ground(P):
    """Ground state kicked by exp(iP cos^2 theta); even harmonics only.

    The coefficient of Y_{2l}^0 is
      e^{iP/2} (4l+1)^{-1/2} sum_m i^m (2m+1) j_m(P/2) d_{2l, m};
    the (2m+1) weight comes from the plane-wave expansion of
    exp(i(P/2) cos 2 theta) and is required for the projection rule
    <Y_{2l}| e^{iP cos^2} |Y_0> to hold.  Up to l_max = 2
    kick_order_margin(P/2); at P = 0 this is c_0 = 1 and every other
    coefficient exactly 0.
    """
    if P < 0:
        raise ValueError("P must be >= 0")
    half = kick_order_margin(P / 2.0)
    L_max = 2 * half
    d = build_recurrence(L_max)
    m = np.arange(half + 1)
    jm = spherical_jn_array(half, P / 2.0)
    weights = _I_POW[m % 4] * (2 * m + 1.0) * jm
    c = np.zeros(L_max + 1, dtype=complex)
    L = np.arange(0, L_max + 1, 2)
    c[::2] = np.exp(1j * P / 2.0) / np.sqrt(2.0 * L + 1.0) * np.sum(weights * d[::2], axis=1)
    packet = LegendrePacket3D(c)
    if not abs(packet.norm() - 1.0) <= 1e-8:
        raise TruncationError("polarization kick coefficients lost norm")
    return packet


def wavefunction_3d(packet, grid):
    """psi(theta) = sum_l c_l Y_l^0(theta) via a Legendre-coefficient sum."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    l = packet.orders
    ph = packet.coeffs * np.sqrt((2 * l + 1.0) / (4.0 * math.pi))
    # Clenshaw evaluation of sum ph_l P_l(cos theta)
    return np.polynomial.legendre.legval(np.cos(grid), ph)


def density_3d(packet, grid):
    """|psi(theta)|^2 on the grid, angles in [0, pi] (the packet's own norm
    is checked by `check`)."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(grid < -1e-12) or np.any(grid > math.pi + 1e-12):
        raise ValueError("3D grid angles must lie in [0, pi]")
    return np.abs(wavefunction_3d(packet, grid)) ** 2
