"""Exact quantum evolution of the axially symmetric 3D rigid rotor.

A vertically polarized kick preserves m = 0, so the state is a sum over
spherical harmonics Y_l^0 with energies l(l+1)/2.  `quantum2d.apply_kick`
kicks it as it kicks the planar rotor, in the harmonics e^{in theta}: in
x = cos theta the state is a polynomial, its Chebyshev series sum a_n T_n(x)
is the even Fourier series sum a_n cos(n theta), and the packet converts
between Legendre and Chebyshev coefficients in closed form (Alpert &
Rokhlin, SIAM J. Sci. Stat. Comput. 12, 158 (1991); the entries as in Hale
& Townsend, SIAM J. Sci. Comput. 36, A148 (2014)).  From the ground state
the dipole kick gives c_l = i^l sqrt(2l+1) j_l(P).  `quantum2d.wavefunction`
sums psi = sum_l c_l Y_l^0 = sum_n d_n e^{in theta} / sqrt(4 pi), |n| <= l_max.

`quantum2d.free_evolve` applies the free phase exp(-i l(l+1) tau / 2),
with the same sign as the 2D rotor's; the opposite sign is equivalent to
kicking with -P and would focus the packet at theta = pi instead of 0.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .quantum2d import Packet

__all__ = [
    "LegendrePacket3D",
]


def _lam(size):
    # Lambda(k) = Gamma(k + 1/2)/Gamma(k + 1) for k < size: sqrt(pi) times
    # the running product of (k + 1/2)/(k + 1)
    k = np.arange(size - 1.0)
    return math.sqrt(math.pi) * np.concatenate([[1.0], np.cumprod((k + 0.5) / (k + 1.0))])


def _pair_sum(w, h, v):
    # sum_j w_j h_{n+j} v_{n+2j} for n < v.size, v zero past its end: both
    # conversions, each one einsum over (n, j) strided views of h and v (h
    # must hold v.size + w.size - 1 values, as as_strided does not check)
    n, j = v.size, w.size
    vp = np.concatenate([v, np.zeros(2 * j - 2)])
    step = vp.strides[0]
    return np.einsum("ij,ij,j->i", as_strided(h, (n, j), 2 * h.strides),
                     as_strided(vp, (n, j), (step, 2 * step)), w)


class LegendrePacket3D(Packet):
    """c_l for l in [0, l_max], at least one, an edge at l_max; 2E = l(l+1);
    psi reaches the harmonic e^{i l_max theta}, so n_max = l_max."""

    area, angles = 4.0 * math.pi, (0.0, math.pi)
    _SHAPE = "nonempty 1-D array of length l_max + 1"
    _EDGE = [-1]
    _size_ok = staticmethod(lambda size: size > 0)
    l_max = n_max = property(lambda self: self.coeffs.size - 1)
    orders = property(lambda self: np.arange(self.coeffs.size))
    spectrum = property(lambda self: self.orders * (self.orders + 1.0))

    @property
    def _harmonics(self):
        # g_l = sqrt(2l+1) c_l are the coefficients of P_l(x); the Chebyshev
        # a_n = (2 - [n = 0])/pi sum_j Lambda(j) Lambda(n+j) g_{n+2j}, and
        # d_0 = a_0, d_n = d_-n = a_n/2 those of e^{in theta}
        L = self.l_max
        lam = _lam(L + L // 2 + 1)
        d = _pair_sum(lam[:L // 2 + 1] / math.pi, lam, np.sqrt(2 * self.orders + 1.0) * self.coeffs)
        return np.concatenate([d[:0:-1], d])

    @classmethod
    def _from_harmonics(cls, d):
        # back from an even d (a_0 = d_0, a_n = 2 d_n), Legendre from
        # Chebyshev: g_l = a_l sqrt(pi)/(2 Lambda(l)) (l > 0; g_0 = a_0) -
        # sum_{k>0} a_{l+2k} (l+2k)(l+1/2)/((2l+2k+1) 2k) Lambda(k-1)
        # Lambda(l+k-1/2).  In d_n, and with n d_n in place of (l+2k), the
        # whole of c_l = g_l/sqrt(2l+1) but d_0 at l = 0 is one sum over
        # k >= 0 of Lambda(k)/(2k-1) b_{l+k}, b_m = 1/((2m+1) m Lambda(m))
        v = d[d.size // 2:]
        L = v.size - 1
        lam = _lam(L + L // 2 + 1)
        m = np.arange(1, lam.size)
        b = np.concatenate([[0.0], 1.0 / ((2 * m + 1.0) * m * lam[1:])])
        k, l = np.arange(L // 2 + 1), np.arange(L + 1)
        c = -np.sqrt(2 * l + 1.0) * _pair_sum(lam[:k.size] / (2 * k - 1.0), b, l * v)
        c[0] += v[0]
        return cls(c)

