"""Exact quantum evolution of the planar (2D) kicked rotor.

The state is a free-rotor Fourier packet Psi(theta) =
(2 pi)^{-1/2} sum_n c_n exp(i n theta).  A delta kick multiplies Psi by
exp(iP cos theta) (dipole) or exp(iP cos^2 theta) (polarization), which in
the coefficient picture is a Bessel-weighted convolution; free evolution
multiplies c_n by exp(-i n^2 tau / 2).  Packets are immutable; every
operation returns a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import Coupling
from .specfun import bessel_jn_array

__all__ = [
    "FourierPacket2D",
    "TruncationError",
    "ground_packet",
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


@dataclass(frozen=True)
class FourierPacket2D:
    """Fourier coefficients c_n, n in [-n_max, n_max]: a read-only copy of
    an odd-length 1-D array."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficients must be a 1-D array of odd length 2*n_max + 1")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    @property
    def n_max(self):
        return self.coeffs.size // 2

    @property
    def orders(self):
        return np.arange(-self.n_max, self.n_max + 1)

    def norm(self):
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def check(self):
        return _check_packet(self, (self.coeffs[0], self.coeffs[-1]))


def _check_packet(packet, edge):
    # the packet, once its norm is 1 within NORM_TOL and its edge
    # coefficients (unless it has only one) are below TAIL_TOL; both faults
    # are numerical, so both raise TruncationError, NaN included
    norm = packet.norm()
    if not abs(norm - 1.0) <= NORM_TOL:
        raise TruncationError(f"packet norm {norm} deviates from 1")
    if packet.coeffs.size > 1 and not all(abs(e) < TAIL_TOL for e in edge):
        raise TruncationError("edge coefficients exceed the truncation floor")
    return packet


def ground_packet():
    """Rotational ground state: c_0 = 1 alone, uniform density 1/(2 pi)."""
    return FourierPacket2D(np.ones(1))


# i^k by k mod 4, exact unit phases (quantum3d uses it too)
_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def _jacobi_anger_kernel(order, z):
    """K_k = i^k J_k(z) for k in [-order, order] (exact unit phases)."""
    jn = bessel_jn_array(order, z)
    k = np.arange(-order, order + 1)
    jk = jn[np.abs(k)] * np.where((k < 0) & (k % 2 != 0), -1.0, 1.0)
    return _I_POW[k % 4] * jk


def apply_kick(packet, P, coupling=Coupling.DIPOLE):
    """Apply exp(iP cos theta) or exp(iP cos^2 theta) to the packet.

    Dipole:       c_n <- sum_k i^k J_k(P) c_{n-k}
    Polarization: c_n <- e^{iP/2} sum_k i^k J_k(P/2) c_{n-2k},
    as cos^2 theta = (1 + cos 2 theta)/2: the dipole kernel at P/2 on every
    second harmonic.  The truncation order grows by the kick margin; norm
    is preserved.  A kick strength P < 0 raises ValueError.
    """
    if P < 0:
        raise ValueError("kick strength must be >= 0")
    if P == 0.0:
        return packet
    step = 1 if coupling is Coupling.DIPOLE else 2
    z = P / step
    order = kick_order_margin(z)
    margin = step * order
    c = np.pad(packet.coeffs, margin)
    kernel = np.zeros(2 * margin + 1, dtype=complex)
    kernel[::step] = _jacobi_anger_kernel(order, z)
    new = np.exp(1j * (P - z)) * np.convolve(c, kernel)[margin:-margin]

    out = FourierPacket2D(new)
    # a packet already off norm by a finite amount is not the kick's fault
    if not abs(out.norm() - 1.0) <= NORM_TOL and not abs(packet.norm() - 1.0) > NORM_TOL:
        raise TruncationError("kick leaked probability past the truncation order")
    return out


def free_evolve(packet, dtau):
    """Free rotor phase: c_n <- c_n exp(-i n^2 dtau / 2)."""
    if not math.isfinite(dtau):
        raise ValueError("dtau must be finite")
    n = packet.orders
    c = packet.coeffs * np.exp(-0.5j * n * n * dtau)
    return FourierPacket2D(c)


def wavefunction(packet, grid):
    """Psi(theta) on the given angles, by direct coefficient summation over
    z^k = exp(i k theta): one running product in k > 0, conjugated for k < 0."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    n, c = packet.n_max, packet.coeffs
    zk = np.cumprod(np.broadcast_to(np.exp(1j * grid)[:, None], (grid.size, n)), axis=1)
    psi = c[n] + zk @ c[n + 1:] + (zk @ c[:n][::-1].conj()).conj()
    return psi / math.sqrt(2.0 * math.pi)


def density(packet, grid):
    """|Psi|^2 on the grid (the packet's own norm is checked by `check`)."""
    return np.abs(wavefunction(packet, grid)) ** 2
