"""Exact quantum evolution of the planar (2D) kicked rotor.

The state is a free-rotor Fourier packet Psi(theta) =
(2 pi)^{-1/2} sum_n c_n exp(i n theta).  A delta kick multiplies Psi by
exp(iP cos theta) (dipole) or exp(iP cos^2 theta) (polarization), which in
the coefficient picture is a Bessel-weighted convolution; free evolution
multiplies c_n by exp(-i n^2 tau / 2).  Packets are immutable; every
operation returns a new one.  `Packet` and every function here serve the
3D rotor's `quantum3d.LegendrePacket3D` too: it is kicked and summed in the
same harmonics, through its own change of basis.
Sums are np.einsum calls, not BLAS products, whose threads cost more than
these small sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import Coupling
from .specfun import _row_slices, bessel_jn_array

__all__ = [
    "Packet",
    "FourierPacket2D",
    "TruncationError",
    "apply_kick",
    "free_evolve",
    "wavefunction",
    "density",
]

NORM_TOL = 1e-10
TAIL_TOL = 1e-12


class TruncationError(RuntimeError):
    """A packet's coefficients carry weight beyond the truncation order, or
    its norm is off 1: a numerical fault, not a configuration one."""


def kick_order_margin(P):
    """Truncation rule: orders up to P + 8 P^(1/3) + 20 carry the kick."""
    return int(math.ceil(P + 8.0 * P ** (1.0 / 3.0) + 20.0)) if P > 0 else 20


@dataclass(frozen=True, eq=False)
class Packet:
    """Coefficients of a rotor state over its free basis: a read-only copy
    of a 1-D array, compared and hashed by identity.  Each rotor's subclass
    gives what differs: its shape rule (`_size_ok`, `_SHAPE`), its `orders`,
    the indices of its `_EDGE` coefficients, its `spectrum`, twice the free
    energy of each order, the `area` of its surface and the range of its
    `angles`, the highest harmonic `n_max` of psi, and its change of basis
    to the coefficients d_n of e^{in theta} (|n| <= n_max), in which every
    kick acts and the wave function is summed (`_harmonics`), and back
    (`_from_harmonics`)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or not self._size_ok(c.size):
            raise ValueError(f"coefficients must be a {self._SHAPE}")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    def norm(self):
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def check(self):
        # the packet, once its norm is 1 within NORM_TOL and its edge
        # coefficients (unless it has only one) are below TAIL_TOL; both
        # faults are numerical, so both raise TruncationError, NaN included
        norm = self.norm()
        if not abs(norm - 1.0) <= NORM_TOL:
            raise TruncationError(f"packet norm {norm} deviates from 1")
        if self.coeffs.size > 1 and not np.all(np.abs(self.coeffs[self._EDGE]) < TAIL_TOL):
            raise TruncationError("edge coefficients exceed the truncation floor")
        return self


class FourierPacket2D(Packet):
    """c_n for n in [-n_max, n_max], an edge at either end; 2E = n^2; the
    coefficients are already those of e^{in theta}."""

    area, angles = 2.0 * math.pi, (-math.inf, math.inf)
    _SHAPE = "1-D array of odd length 2*n_max + 1"
    _EDGE = [0, -1]
    _size_ok = staticmethod(lambda size: size % 2 == 1)
    n_max = property(lambda self: self.coeffs.size // 2)
    orders = property(lambda self: np.arange(-self.n_max, self.n_max + 1))
    spectrum = property(lambda self: self.orders ** 2)
    _harmonics = property(lambda self: self.coeffs)
    _from_harmonics = classmethod(lambda cls, d: cls(d))


# i^k by k mod 4, exact unit phases
_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def _jacobi_anger_kernel(order, z):
    """K_k = i^k J_k(z) for k in [-order, order] (exact unit phases)."""
    jn = bessel_jn_array(order, z)
    k = np.arange(-order, order + 1)
    jk = jn[np.abs(k)] * np.where((k < 0) & (k % 2 != 0), -1.0, 1.0)
    return _I_POW[k % 4] * jk


def apply_kick(packet, P, coupling=Coupling.DIPOLE):
    """Apply exp(iP cos theta) or exp(iP cos^2 theta) to a packet of either
    rotor, in the coefficients d_n of e^{in theta}:

    Dipole:       d_n <- sum_k i^k J_k(P) d_{n-k}
    Polarization: d_n <- e^{iP/2} sum_k i^k J_k(P/2) d_{n-2k},
    as cos^2 theta = (1 + cos 2 theta)/2: the dipole kernel at P/2 on every
    second harmonic.  A 2D packet's coefficients are the d_n; a 3D packet
    goes to them and back through its Chebyshev series in cos theta.  The
    truncation order grows by the kick margin; norm is preserved.  A kick
    strength that is negative or NaN raises ValueError; P = 0 returns the
    packet itself.
    """
    if not P >= 0:
        raise ValueError("kick strength must be >= 0")
    if P == 0.0:
        return packet
    step = 1 if coupling is Coupling.DIPOLE else 2
    z = P / step
    order = kick_order_margin(z)
    margin = step * order
    d = packet._harmonics
    c = np.zeros(d.size + 2 * margin, dtype=complex)
    c[margin:-margin] = d
    kernel = np.zeros(2 * margin + 1, dtype=complex)
    kernel[::step] = _jacobi_anger_kernel(order, z)
    new = np.exp(1j * (P - z)) * np.convolve(c, kernel)[margin:-margin]

    out = packet._from_harmonics(new)
    # a packet already off norm by a finite amount is not the kick's fault
    if not abs(out.norm() - 1.0) <= NORM_TOL and not abs(packet.norm() - 1.0) > NORM_TOL:
        raise TruncationError("kick leaked probability past the truncation order")
    return out


def free_evolve(packet, dtau):
    """Free rotor phase c_n <- c_n exp(-i E_n dtau), E_n = n^2/2 on the
    circle and l(l+1)/2 on the sphere: a packet of the same kind."""
    if not math.isfinite(dtau):
        raise ValueError("dtau must be finite")
    return type(packet)(packet.coeffs * np.exp(-0.5j * packet.spectrum * dtau))


def wavefunction(packet, grid):
    """Psi(theta) = sum_n d_n e^{in theta} / sqrt(area) on the given angles,
    for a packet of either rotor, from its coefficients d_n of e^{in theta}:
    z^k = exp(i k theta) as one running product in k > 0, conjugated for
    k < 0, laid for one row block of `specfun._row_slices` at a time."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    d, n = packet._harmonics, packet.n_max
    z, psi = np.exp(1j * grid), np.empty(grid.size, complex)
    for rows in _row_slices(grid.size, max(n, 1)):
        zk = np.cumprod(np.broadcast_to(z[rows, None], (rows.stop - rows.start, n)), axis=1)
        psi[rows] = d[n] + np.einsum("ij,j->i", zk, d[n + 1:]) + np.einsum("ij,j->i", zk, d[:n][::-1].conj()).conj()
    return psi / math.sqrt(packet.area)


def density(packet, grid):
    """|Psi|^2 on the grid for a packet of either rotor (`check` checks its
    norm); an angle 1e-12 beyond the kind's `angles` raises ValueError."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    lo, hi = packet.angles
    if np.any(grid < lo - 1e-12) or np.any(grid > hi + 1e-12):
        # only the sphere's range is finite
        raise ValueError("3D grid angles must lie in [0, pi]")
    return np.abs(wavefunction(packet, grid)) ** 2
