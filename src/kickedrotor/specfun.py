"""Special-function core for the kicked-rotor toolkit.

Everything the other modules need lives here: integer-order Bessel J_n
and spherical Bessel j_l (as arrays of all orders up to a maximum), J_0 and
J_1 on arrays, Airy Ai/Ai', the Pearcey integral, and the confluent
hypergeometric helper 1F1(1/2, 3/2, iz) used by the focal-point
asymptotics.

Each Pearcey object has one evaluator, the rotated-contour quadrature
`_p1_contour` of the half-range integral
P1(x, y) = int_0^inf exp[i(u^4 + x u^2 + y u)] du and of its y-derivative:
P(x, beta) = P1(x, beta) + P1(x, -beta), and dP1/dy is the same contour
with the extra factor i u.  1F1(1/2, 3/2, iz) = int_0^1 e^{i z t^2} dt is
the same Gauss-Legendre kernel on [0, 1] up to |z| = 30 and its
large-argument expansion beyond.  The runtime needs numpy only.

All functions are pure and hold no mutable state, so they are safe to call
from any number of threads.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "bessel_jn_array",
    "bessel_j0",
    "bessel_j1",
    "spherical_jn_array",
    "airy",
    "pearcey",
    "hyp1f1_focus",
    "gauss_segment",
]


class DomainError(ValueError):
    """Argument outside the supported domain."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance."""


# ----------------------------------------------------------------------
# Bessel J_n by Miller's backward recurrence
# ----------------------------------------------------------------------

_BESSEL_N_LIMIT = 10**6
_BESSEL_X_LIMIT = 10**4


def _miller_start(n, x):
    # start high enough above max(n, turning point) that J_start is
    # negligible relative to the normalization sum
    turn = x + 14.0 * x ** (1.0 / 3.0) if x > 1 else x + 14.0
    return int(math.ceil(max(n, turn))) + 30


def bessel_jn_array(n_max, x):
    """J_0(x) .. J_{n_max}(x) by backward recurrence, normalized by the
    sum rule J_0 + 2*sum_k J_{2k} = 1."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if abs(x) > _BESSEL_X_LIMIT or n_max > _BESSEL_N_LIMIT:
        raise DomainError("bessel_jn_array argument out of range")
    ax = abs(x)
    out = np.zeros(n_max + 1)
    if ax < 1e-300:
        out[0] = 1.0
        return out
    m = _miller_start(n_max, ax)
    if m % 2:
        m += 1
    jp, j = 0.0, 1e-300
    even_sum = 0.0  # accumulates J_0 + 2*sum J_2k before normalization
    for k in range(m, 0, -1):
        jm = (2.0 * k / ax) * j - jp
        jp, j = j, jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            even_sum *= 1e-250
            out *= 1e-250
        if k - 1 <= n_max:
            out[k - 1] = j
        if (k - 1) % 2 == 0:
            even_sum += 2.0 * j if k - 1 else j
    out /= even_sum
    if x < 0:
        out[1::2] *= -1.0
    return out


# Vectorized J0/J1 for oscillatory quadratures: power series below the
# crossover, Hankel asymptotic expansion above.  Absolute accuracy ~1e-10,
# which is ample for the 1e-8 quadrature targets they feed.

_J_SERIES_CUT = 12.0


def _hankel_coeffs(nu, n_terms=12):
    # a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k)
    a = [1.0]
    for k in range(1, n_terms):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (k * 8.0))
    pc = [(-1.0) ** k * a[2 * k] for k in range((n_terms + 1) // 2)]
    qc = [(-1.0) ** k * a[2 * k + 1] for k in range(n_terms // 2)]
    return tuple(pc), tuple(qc)


_P0, _Q0 = _hankel_coeffs(0)
_P1, _Q1 = _hankel_coeffs(1)


def _horner(u, coeffs):
    # sum_k coeffs[k] u^k by Horner's rule, in place
    acc = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= u
        acc += c
    return acc


def _hankel(x, pc, qc):
    z = 1.0 / (x * x)
    return _horner(z, pc), _horner(z, qc) / x


# Power-series coefficients in u = x^2 for |x| < _J_SERIES_CUT, 45 terms:
# J_0 = sum_k (-1)^k u^k / (4^k k!^2),  J_1 = (x/2) sum_k (-1)^k u^k / (4^k k! (k+1)!)
_J0_SERIES = tuple((-0.25) ** k / math.factorial(k) ** 2 for k in range(45))
_J1_SERIES = tuple((-0.25) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(45))


def _bessel_01(x, n, series, pc, qc):
    # J_n for n = 0 or 1: the series sum_k series[k] x^(2k), times x/2 for
    # J_1, below |x| = 12, and the Hankel expansion with coefficients
    # (pc, qc) and phase x - (2n + 1) pi/4 above
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax < _J_SERIES_CUT
    if np.any(small):
        xs = ax[small]
        out[small] = _horner(xs * xs, series) * (0.5 * xs if n else 1.0)
    if np.any(~small):
        xl = ax[~small]
        p, q = _hankel(xl, pc, qc)
        chi = xl - (0.25 + 0.5 * n) * np.pi
        out[~small] = np.sqrt(2.0 / (np.pi * xl)) * (p * np.cos(chi) - q * np.sin(chi))
    if n:
        out = np.where(x < 0, -out, out)
    return out if out.shape else float(out)


def bessel_j0(x):
    """Vectorized J_0; accuracy ~1e-10 (quadrature-grade).

    Power series in x^2 by Horner's rule below |x| = 12, Hankel
    asymptotic expansion above."""
    return _bessel_01(x, 0, _J0_SERIES, _P0, _Q0)


def bessel_j1(x):
    """Vectorized J_1; accuracy ~1e-10 (quadrature-grade).

    Power series in x^2 by Horner's rule below |x| = 12, Hankel
    asymptotic expansion above."""
    return _bessel_01(x, 1, _J1_SERIES, _P1, _Q1)


# ----------------------------------------------------------------------
# Spherical Bessel j_l by downward recurrence, normalized at j_0
# ----------------------------------------------------------------------

def spherical_jn_array(l_max, x):
    """j_0(x) .. j_{l_max}(x); downward recurrence anchored at sin(x)/x."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    if x < 0:
        raise DomainError("x must be >= 0")
    out = np.zeros(l_max + 1)
    if x < 1e-12:
        out[0] = 1.0
        return out
    j0 = math.sin(x) / x
    j1 = j0 / x - math.cos(x) / x
    out[0] = j0
    if l_max == 0:
        return out
    if x > l_max:
        # all orders oscillatory, upward is stable
        out[1] = j1
        for l in range(1, l_max):
            out[l + 1] = (2 * l + 1) / x * out[l] - out[l - 1]
        return out
    m = _miller_start(l_max, x)
    jp, j = 0.0, 1e-300
    for k in range(m, 0, -1):
        jm = (2.0 * k + 1.0) / x * j - jp
        jp, j = j, jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            out *= 1e-250
        if k - 1 <= l_max:
            out[k - 1] = j
    # anchor on whichever of j0, j1 is farther from a zero
    if abs(j0) >= abs(j1):
        out *= j0 / out[0]
    else:
        out *= j1 / out[1]
    return out


# ----------------------------------------------------------------------
# Airy Ai and Ai'
# ----------------------------------------------------------------------

_AI0 = 0.3550280538878172392600631860041831763980  # Ai(0) = 3^{-2/3}/Gamma(2/3)
_AIP0 = -0.2588194037928067984051835601892039634793  # Ai'(0) = -3^{-1/3}/Gamma(1/3)
_AIRY_LO, _AIRY_HI = -60.0, 20.0
_AIRY_SERIES_NEG = -7.0
_AIRY_SERIES_POS = 5.5


def _airy_u(n):
    # u_k of the asymptotic expansions (DLMF 9.7.2), k < n
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
    return tuple(u)


_AIRY_U = _airy_u(61)
# v_k = -(6k+1)/(6k-1) u_k, the coefficients of the Ai' expansions
_AIRY_V = tuple(-u * (6 * k + 1) / (6 * k - 1) if k else 1.0 for k, u in enumerate(_AIRY_U))


def _compensated_sum(terms):
    # Neumaier's compensated sum of a sequence of equal-shape arrays
    s = terms[0]
    c = np.zeros_like(s)
    for term in terms[1:]:
        t = s + term
        c += np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
        s = t
    return s + c


def _airy_series(x):
    # Ai = Ai(0) f(x) + Ai'(0) g(x) with
    #   f = sum c_k x^{3k},   c_k = c_{k-1}/((3k-1)(3k))
    #   g = sum d_k x^{3k+1}, d_k = d_{k-1}/((3k)(3k+1))
    #   f' = x^2 sum e_k x^{3k}, e_0 = 1/2, e_k = e_{k-1}(k+1)/(k(3k+2)(3k+3))
    #   g' = sum h_k x^{3k},   h_0 = 1,   h_k = h_{k-1}/((3k-2)(3k))
    # A point stops after the first k at which all four terms are below
    # 1e-21; later terms of a stopped point enter its sums as zeros.
    x3 = x * x * x
    tf, tg, te, th = np.ones_like(x), x, np.full_like(x, 0.5), np.ones_like(x)
    sums = ([tf], [tg], [te], [th])
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 240):
        tf = tf * (x3 / ((3 * k - 1) * (3 * k)))
        tg = tg * (x3 / ((3 * k) * (3 * k + 1)))
        te = te * (x3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3)))
        th = th * (x3 / ((3 * k - 2) * (3 * k)))
        for terms, t in zip(sums, (tf, tg, te, th)):
            terms.append(np.where(live, t, 0.0))
        live &= np.maximum(np.maximum(np.abs(tf), np.abs(tg)),
                           np.maximum(np.abs(te), np.abs(th))) >= 1e-21
        if not live.any():
            break
    else:
        raise ConvergenceError("airy series did not converge")
    f, g, fp, gp = (_compensated_sum(terms) for terms in sums)
    return _AI0 * f + _AIP0 * g, _AI0 * (x * x * fp) + _AIP0 * gp


def _truncated_sums(terms, n, shape):
    # Sums over k < n of the sequences terms(k) = (lead_k, *others_k), each
    # point stopping before its first k at which |lead_k| grows (optimal
    # truncation); later terms of a stopped point enter its sums as zeros.
    cols = []
    prev = np.full(shape, math.inf)
    live = np.ones(shape, dtype=bool)
    for k in range(n):
        ts = terms(k)
        live &= ~(np.abs(ts[0]) > prev)
        if not live.any():
            break
        cols.append([np.where(live, t, 0.0) for t in ts])
        prev = np.abs(cols[-1][0])
    return [_compensated_sum(seq) for seq in zip(*cols)]


def _airy_asymp_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5

    def terms(k):
        # u_k / (-zeta)^k for Ai and v_k / (-zeta)^k for Ai'
        t = _AIRY_U[k] / zeta ** k * (-1) ** k
        return t, -t * (6 * k + 1) / (6 * k - 1)

    s_ai, s_aip = _truncated_sums(terms, 61, x.shape)
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x ** 0.25)
    ai = pref * s_ai
    aip = -pref * x ** 0.5 * s_aip
    return ai, aip


def _airy_asymp_neg(x):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5

    def pairs(coef):
        # (-1)^k coef_2k / zeta^2k and (-1)^k coef_2k+1 / zeta^2k+1
        return lambda k: ((-1) ** k * coef[2 * k] / zeta ** (2 * k),
                          (-1) ** k * coef[2 * k + 1] / zeta ** (2 * k + 1))

    se, so = _truncated_sums(pairs(_AIRY_U), 20, z.shape)
    de, do = _truncated_sums(pairs(_AIRY_V), 20, z.shape)
    arg = zeta - 0.25 * math.pi
    cos, sin = np.cos(arg), np.sin(arg)
    pref = 1.0 / (math.sqrt(math.pi) * z ** 0.25)
    ai = pref * (cos * se + sin * so)
    aip = pref * z ** 0.5 * (sin * de - cos * do)
    return ai, aip


def airy(x):
    """Airy function Ai(x) and its derivative Ai'(x) for -60 <= x <= 20.

    x may be a scalar, which gives the tuple (Ai, Ai') of two floats, or
    an array of any shape, which gives two arrays of that shape.  Each
    point takes one of three branches: the Maclaurin series on
    [-7, 5.5], summed until all four of its term sequences fall below
    1e-21, and beyond the cuts the asymptotic expansions in
    zeta = (2/3)|x|^(3/2), exponential for x > 5.5 and oscillatory for
    x < -7, each truncated before its first growing term.  Truncation is
    decided point by point, and every sum is a compensated (Neumaier) sum
    across the array.  An argument outside [-60, 20] (or NaN) anywhere in
    x raises DomainError.
    """
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    bad = ~((flat >= _AIRY_LO) & (flat <= _AIRY_HI))
    if bad.any():
        raise DomainError(f"airy argument {float(flat[bad][0])} outside [{_AIRY_LO}, {_AIRY_HI}]")
    ai, aip = np.empty_like(flat), np.empty_like(flat)
    for rows, branch in (((flat >= _AIRY_SERIES_NEG) & (flat <= _AIRY_SERIES_POS), _airy_series),
                         (flat > _AIRY_SERIES_POS, _airy_asymp_pos),
                         (flat < _AIRY_SERIES_NEG, _airy_asymp_neg)):
        if rows.any():
            ai[rows], aip[rows] = branch(flat[rows])
    if xa.ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(xa.shape), aip.reshape(xa.shape)


# ----------------------------------------------------------------------
# Complex Gauss-Legendre segments (shared oscillatory-quadrature kernel)
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_MAX_PANELS = 10**6


def gauss_segment(f, z0, z1, n_panels):
    """Composite 24-point Gauss-Legendre of f along the straight segment
    z0 -> z1 (complex endpoints allowed).  f must accept an ndarray of
    nodes; if it returns an array, its last axis runs over the nodes and
    is the axis summed.  z0 and z1 may also be arrays of one shape, one
    segment per entry: f then gets the nodes on a new last axis after the
    endpoints' axes, and the result has the endpoints' shape."""
    if n_panels > _MAX_PANELS:
        raise ConvergenceError(f"panel budget exceeded ({n_panels} > {_MAX_PANELS})")
    z0 = np.asarray(z0)
    dz = np.asarray(z1 - z0)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    t = (mid + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(_GL_WEIGHTS, (n_panels, _GL_NODES.size)).ravel()
    return np.sum(w * f(z0[..., None] + t * dz[..., None]), axis=-1) * half * dz


# ----------------------------------------------------------------------
# Pearcey integral P(x, beta) and the half-range derivative dP1/dy
# ----------------------------------------------------------------------

_PEARCEY_ARG_MAX = 400.0
# (y, node) entries evaluated at once: longer y arrays go in row blocks,
# so the quadrature's working memory stays under a few MB
_CONTOUR_BLOCK = 2**15


def _p1_contour(x, y, power=0):
    """int_0^inf (iu)^power exp[i(u^4 + x u^2 + y u)] du for an array of y:
    P1(x, y) at power 0, dP1/dy at power 1.

    Two-leg contour (DLMF 36.15): the real axis out to R, past every real
    stationary point, then the ray R + t exp(i pi/8) on which the quartic
    decays.  R, the ray length T and the panel counts are sized from
    max |y| of each row block; for smaller |y| the longer real leg is still
    a valid contour.
    """
    y = np.asarray(y, dtype=float)
    ay = float(np.max(np.abs(y), initial=0.0))
    w8 = cmath.exp(1j * math.pi / 8)
    R = 1.0 + (ay / 4.0) ** (1.0 / 3.0) + math.sqrt(abs(x) / 2.0)
    T = (60.0 + abs(x) + ay) ** 0.25 + 4.0
    n1 = max(8, int((R ** 4 + abs(x) * R ** 2 + ay * R) / 3))
    n2 = max(16, int(4 * R ** 3 + 2 * abs(x) * R + ay))
    rows = max(1, _CONTOUR_BLOCK // (_GL_NODES.size * (n1 + n2)))
    if y.size > rows:
        return np.concatenate([_p1_contour(x, y[i:i + rows], power)
                               for i in range(0, y.size, rows)])

    def f(u):
        return (1j * u) ** power * np.exp(1j * (u ** 4 + x * u ** 2 + y[..., None] * u))

    return gauss_segment(f, 0.0 + 0.0j, R + 0.0j, n1) + gauss_segment(f, R + 0.0j, R + T * w8, n2)


def pearcey(x, beta):
    """Pearcey integral P(x, beta) = int exp[i(u^4 + x u^2 + beta u)] du.

    Evaluated as P(x, beta) = P1(x, beta) + P1(x, -beta) by one call of the
    rotated-contour quadrature, for |x|, |beta| <= 400.  Even in beta; the
    sign is canonicalized before evaluation so pearcey(x, b) ==
    pearcey(x, -b) bit for bit.
    """
    x = float(x)
    beta = abs(float(beta))
    if not (math.isfinite(x) and math.isfinite(beta)):
        raise DomainError("pearcey requires finite arguments")
    if abs(x) > _PEARCEY_ARG_MAX or beta > _PEARCEY_ARG_MAX:
        raise DomainError("pearcey argument beyond supported range")
    return complex(np.sum(_p1_contour(x, [beta, -beta])))


# ----------------------------------------------------------------------
# 1F1(1/2, 3/2, iz)
# ----------------------------------------------------------------------

_HYP_QUADRATURE_MAX = 30.0


def hyp1f1_focus(z):
    """Confluent hypergeometric 1F1(1/2, 3/2, i z) for real z.

    For |z| <= 30 it is the integral int_0^1 e^{i z t^2} dt by Gauss
    quadrature with about z/4 + 2 panels; beyond that the large-argument
    form (1/2)sqrt(pi/z) e^{i pi/4} + e^{iz}/(2iz) * sum_s (1/2)_s / (iz)^s,
    whose first piece is exact and whose second carries the asymptotic
    correction series.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("hyp1f1_focus requires finite z")
    if z < 0:
        return hyp1f1_focus(-z).conjugate()
    if z == 0.0:
        return 1.0 + 0.0j
    if z <= _HYP_QUADRATURE_MAX:
        return complex(gauss_segment(lambda t: np.exp(1j * z * t * t), 0.0, 1.0, int(z / 4) + 2))
    lead = 0.5 * math.sqrt(math.pi / z) * cmath.exp(1j * math.pi / 4)
    corr = 0.0 + 0.0j
    term = 1.0 + 0.0j
    prev = math.inf
    for s in range(0, 25):
        if s > 0:
            term *= (s - 0.5) / (1j * z)
        if abs(term) > prev:
            break
        corr += term
        prev = abs(term)
    tail = cmath.exp(1j * z) / (2j * z) * corr
    return lead + tail
