"""Special-function core for the kicked-rotor toolkit.

Everything the other modules need lives here: sin and cos from one SIMD
tangent (`sincos`, absolute error <= 2.3e-16), integer-order Bessel J_n
and spherical Bessel j_l (as arrays of all orders up to a maximum), J_0 and
J_1 on arrays, Airy Ai/Ai', the Pearcey integral and the Bessoid integral.

Ai/Ai' and each Pearcey object have one evaluator, a contour quadrature
on the shared Gauss-Legendre panels of `gauss_segment`.  Airy takes straight
rays from the saddle of exp(t^3/3 - x t) (see `airy`).  Pearcey takes
`_p1_contour`, the rotated contour of the half-range integral
P1(x, y) = int_0^inf exp[i(u^4 + x u^2 + y u)] du and of its y-derivative:
P(x, beta) = P1(x, beta) + P1(x, -beta), and dP1/dy, the same contour with
the extra factor i u, gives the Bessoid S(x, beta) of the 3D cusp by the
midpoint rule in phi; both are sized by the phase.  Along a column of fixed
x, `_p1_chebyshev` interpolates the contour in y from samples of it
(coefficients by one FFT), and `pearcey` and `bessoid` take that wherever
it needs fewer contour rows: a proxy whose truncation is measured, not a
second evaluator.  The runtime needs numpy only.

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
    "sincos",
    "bessel_jn_array",
    "bessel_j0",
    "bessel_j1",
    "spherical_jn_array",
    "airy",
    "pearcey",
    "bessoid",
    "gauss_segment",
]


class DomainError(ValueError):
    """Argument outside the supported domain."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance."""


def sincos(x):
    """(sin x, cos x) of a float array from u = tan(x/2), which numpy runs
    in a SIMD loop (sin and cos are scalar libm): sin x = 2u/(1 + u^2) and
    cos x = (1 - u^2)/(1 + u^2), three temporaries, no branches.  Absolute
    error <= 2.3e-16 for any finite x, sin within 4 ulp (50-digit mpmath);
    near odd multiples of pi/2 cos is only absolutely accurate, as 1 - u^2
    cancels in u itself, and every caller sums it with terms of order one.
    NaN gives NaN; +-inf warns as np.sin does (invalid value)."""
    u = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    np.tan(u, out=u)
    w = np.multiply(u, u)
    c = np.subtract(1.0, w)
    w += 1.0
    c /= w
    u += u
    u /= w
    return u, c


# ----------------------------------------------------------------------
# Bessel J_n and spherical j_l by Miller's backward recurrence
# ----------------------------------------------------------------------

_BESSEL_N_LIMIT = 10**6
_BESSEL_X_LIMIT = 10**4


def _miller_start(n, x):
    # start high enough above max(n, turning point) that J_start is
    # negligible relative to the normalization sum
    turn = x + 14.0 * x ** (1.0 / 3.0) if x > 1 else x + 14.0
    return int(math.ceil(max(n, turn))) + 30


def _miller(n_max, x, half):
    # f_0 .. f_{n_max} proportional to J_k(x) (half = 0) or to the spherical
    # j_k(x) (half = 1), x > 0, by f_{k-1} = (2k + half)/x f_k - f_{k+1} down
    # from an even start far above the turning point (DLMF 10.74(iii)),
    # rescaled before it overflows; and f_0 + 2 sum_k f_{2k} over every
    # order passed, the normalization of J_k (sum rule)
    m = _miller_start(n_max, x)
    m += m % 2
    out = np.zeros(n_max + 1)
    jp, j, even_sum = 0.0, 1e-300, 0.0
    for k in range(m, 0, -1):
        jm = (2.0 * k + half) / x * j - jp
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
    return out, even_sum


def bessel_jn_array(n_max, x):
    """J_0(x) .. J_{n_max}(x) by Miller's backward recurrence, normalized by
    the sum rule J_0 + 2*sum_k J_{2k} = 1; below |x| = 1e-8, where one step
    of the recurrence can outgrow its rescaling, by the series' first term
    (x/2)^k/k!, whose relative error (x/2)^2/(k+1) is below 2.5e-17."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if not abs(x) <= _BESSEL_X_LIMIT or n_max > _BESSEL_N_LIMIT:  # NaN included
        raise DomainError("bessel_jn_array argument out of range")
    if abs(x) < 1e-8:
        return np.cumprod(np.concatenate([[1.0], 0.5 * x / np.arange(1.0, n_max + 1)]))
    out, even_sum = _miller(n_max, abs(x), 0)
    out /= even_sum
    if x < 0:
        out[1::2] *= -1.0
    return out


def spherical_jn_array(l_max, x):
    """j_0(x) .. j_{l_max}(x) by Miller's backward recurrence, anchored on
    whichever of j_0 = sin(x)/x and j_1 is farther from a zero; below
    x = 1e-12 by the series' first term x^l/(2l+1)!!, whose relative error
    x^2/(2(2l+3)) is below 1e-24."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    if not x >= 0:
        raise DomainError("x must be >= 0")
    if x < 1e-12:
        return np.cumprod(np.concatenate([[1.0], x / np.arange(3.0, 2 * l_max + 2, 2.0)]))
    j0 = math.sin(x) / x
    j1 = j0 / x - math.cos(x) / x
    out = _miller(max(l_max, 1), x, 1)[0]
    out *= j0 / out[0] if abs(j0) >= abs(j1) else j1 / out[1]
    return out[:l_max + 1]


# J_0 and J_1 on arrays.  Below |x| = 12, in t = 2 (x/12)^2 - 1: J_0 =
# sum c_k T_k(t) and J_1/x = sum c_k V_k(t), V_k the Chebyshev polynomials of
# the third kind (DLMF 18.3; T_2k+1(y) = y V_k(2y^2 - 1)).  Above: J_n =
# sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (2n + 1) pi/4 (DLMF
# 10.17.3), P and xQ in powers of (12/x)^2.  tests/bessel_coefficients.py
# rebuilds every literal from 30-digit mpmath.

_J_SPLIT = 12.0
_J0_BELOW = (0.022693993532219042, -0.1531079146967097, 0.11797479223272866, -0.02634356430873913,
    0.2558150206349379, -0.2622140996006976, 0.12087152677762113, -0.033585400670970274,
    0.006391731997575882, -0.0008959418782227382, 9.699406281444883e-05, -8.388165890824513e-06,
    5.943867351531636e-07, -3.520358344422562e-08, 1.770892390763905e-09, -7.667379201172956e-11,
    2.8893672713887814e-12, -9.567692157274823e-14, 2.8070565443618097e-15)
_J1_BELOW = (-0.0069468518308042435, -0.011199849461268402, -0.004645694337227921, -0.006840991362956181,
    0.021582899818703583, -0.014835725125837746, 0.0053095293370991085, -0.0012209652378117782,
    0.00019941965053841773, -2.4565819017266814e-05, 2.3769762089689735e-06, -1.8607447989407194e-07,
    1.2054431823649283e-08, -6.579733089877484e-10, 3.070706519821463e-11, -1.2403481400060238e-12,
    4.381509172232354e-14, -1.3656767981408991e-15, 3.7851474040005546e-17)
_J0_P = (1.0, -0.00048828124999712, 5.408569539512226e-06, -1.9172872571701113e-07,
    1.4121722658802215e-08, -1.762646227135052e-09, 3.1364525954024384e-10, -5.964244339893364e-11,
    7.282369329053256e-12)
_J0_XQ = (-0.12499999999999999, 0.0005086263020808613, -1.0952353393337344e-05, 5.786113240695347e-07,
    -5.669363694061209e-08, 8.873494848112027e-09, -1.9694326635127653e-09, 5.177104493714957e-10,
    -1.2008433142450052e-10, 1.5636381636157928e-11)
_J1_P = (1.0, 0.0008138020833302592, -6.953875139488946e-06, 2.2658859067926318e-07,
    -1.6004922770666454e-08, 1.948742159204653e-09, -3.415014622304329e-10, 6.438768282353179e-11,
    -7.828213179669876e-12)
_J1_XQ = (0.375, -0.0007120768229140483, 1.338620971669779e-05, -6.676285573091955e-07,
    6.336393015282167e-08, -9.719731925379217e-09, 2.128731925785566e-09, -5.550012640156349e-10,
    1.2815228720874288e-10, -1.6647403079327036e-11)


def _horner(u, coeffs):
    # sum_k coeffs[k] u^k by Horner's rule, in place
    acc = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= u
        acc += c
    return acc


def _j_below(x, n):
    # J_n(x), 0 <= x < 12: Clenshaw's b_k = c_k + 2t b_{k+1} - b_{k+2} (DLMF 3.11(ii))
    # on b_k and d_k = b_k + b_{k+1}, with t only in u2 = 2(1 + t) = (x/6)^2, as the plain
    # form loses ~10 ulp near t = -1; the sum is c_0 + (u2/2 or, for V, u2 - 2) b_1 - d_1
    coeffs = _J1_BELOW if n else _J0_BELOW
    u2 = np.multiply(x, x)
    u2 *= 1.0 / 36.0
    b = np.full_like(u2, coeffs[-1])
    d, e = b.copy(), np.empty_like(u2)
    for c in coeffs[-2:0:-1]:
        np.multiply(u2, b, out=e)
        e -= d
        e += c
        d, e = e, d
        np.subtract(d, b, out=b)
    b *= np.subtract(u2, 2.0) if n else 0.5 * u2
    b -= d
    b += coeffs[0]
    return b * x if n else b


def _j_above(x, n):
    # J_n(x), x >= 12 or NaN; at x = inf the amplitude is 0 and chi is taken as 0
    r = 1.0 / x
    z = (_J_SPLIT * r) ** 2
    chi = x - (0.25 + 0.5 * n) * math.pi
    chi[np.isinf(chi)] = 0.0
    sin_chi, cos_chi = sincos(chi)
    j = _horner(z, _J1_P if n else _J0_P) * cos_chi - _horner(z, _J1_XQ if n else _J0_XQ) * r * sin_chi
    return j * np.sqrt(2.0 / math.pi * r)


def _bessel_01(x, n):
    # J_n, n = 0 or 1, in slices of _CONTOUR_BLOCK // 4 entries, which keeps the
    # recurrence's four work arrays in cache (2^15-entry slices: 1.3x the time)
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.size)
    for piece in _row_slices(x.size, 4):
        ax = np.abs(flat[piece])
        small = ax < _J_SPLIT
        for side, j in ((small, _j_below), (~small, _j_above)):
            if side.all():
                out[piece] = j(ax, n)
            elif side.any():
                out[piece][side] = j(ax[side], n)
    if n:
        np.negative(out, out=out, where=flat < 0)
    out = out.reshape(x.shape)
    return out if out.shape else float(out)


def bessel_j0(x):
    """J_0 of a float array or scalar, within 1e-15 of 30-digit mpmath for
    |x| <= 100; beyond, the rounding of x - pi/4 sets the error (5e-15 at
    1e4).  +-inf gives 0, NaN NaN."""
    return _bessel_01(x, 0)


def bessel_j1(x):
    """J_1 of a float array or scalar, to the accuracy of bessel_j0 (chi = x - 3 pi/4)."""
    return _bessel_01(x, 1)


# ----------------------------------------------------------------------
# Complex Gauss-Legendre segments (shared oscillatory-quadrature kernel)
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_MAX_PANELS = 10**6
# (row, node) entries evaluated at once by the array quadratures: longer
# arrays go in row blocks, so the working memory stays under a few MB
_CONTOUR_BLOCK = 2**15
_CONTOUR_PIECE = 2**13  # nodes per Pearcey leg piece: einsum rounds a longer row by the rows beside it


def _row_slices(n_rows, width):
    # the row blocks of an array quadrature over n_rows rows of width (row,
    # node) entries each: slices of range(n_rows) of _CONTOUR_BLOCK // width
    # rows (at least one), the last one shorter
    rows = max(1, _CONTOUR_BLOCK // width)
    return [slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]


def _gl_panels(z0, z1, n_panels):
    # gauss_segment's panels on z0 -> z1: the integral of f is sum(w f(u)) half dz
    if n_panels > _MAX_PANELS:
        raise ConvergenceError(f"panel budget exceeded ({n_panels} > {_MAX_PANELS})")
    z0 = np.asarray(z0)
    dz = np.asarray(z1 - z0)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    t = (mid + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(_GL_WEIGHTS, (n_panels, _GL_NODES.size)).ravel()
    return z0[..., None] + t * dz[..., None], w, half, dz


def gauss_segment(f, z0, z1, n_panels):
    """Composite 24-point Gauss-Legendre of f along the straight segment
    z0 -> z1 (complex endpoints allowed).  f must accept an ndarray of
    nodes; if it returns an array, its last axis runs over the nodes and
    is the axis summed.  z0 and z1 may also be arrays of one shape, one
    segment per entry: f then gets the nodes on a new last axis after the
    endpoints' axes, and the result has the endpoints' shape."""
    u, w, half, dz = _gl_panels(z0, z1, n_panels)
    fu = f(u)
    del u  # the nodes go before the weighted sum: it is the peak of a call
    return np.sum(w * fu, axis=-1) * half * dz


# ----------------------------------------------------------------------
# Airy Ai and Ai' by saddle-point ray quadrature
# ----------------------------------------------------------------------

_AIRY_LO, _AIRY_HI = -60.0, 20.0
_AIRY_PANELS, _RAY_DECAY = 2, 46.0  # panels per Airy ray; -Re(exponent) at any saddle ray's end
_AIRY_UP, _AIRY_DOWN = cmath.exp(1j * math.pi / 3), cmath.exp(-5j * math.pi / 12)
_TWO_PI_EXT = np.longdouble("6.283185307179586476925286766559005768")


def _airy_ray(t0, d):
    # int exp(t0 u^2 + u^3/3) (1, -(t0 + u)) du on u = r d, 0 <= r <= R, as
    # a (2, n) array; R solves a R^2 + b R^3 = _RAY_DECAY (the exponent's real part
    # is -a r^2 - b r^3) by Newton from above, so every iterate is a safe end
    a, b, s = -(t0 * d * d).real, -(d ** 3).real / 3.0, t0[:, None]
    R = np.full(t0.shape, (_RAY_DECAY / b) ** (1.0 / 3.0))
    for _ in range(3):
        R -= (b * R ** 3 + a * R * R - _RAY_DECAY) / (3.0 * b * R * R + 2.0 * a * R)

    def f(u):
        e = np.exp(u * u * (s + u / 3.0))
        return np.stack([e, -(s + u) * e])

    return gauss_segment(f, np.zeros(R.shape, complex), R * d, _AIRY_PANELS)


def _airy_rows(x):
    # (Ai, Ai') of a 1-D array as a (2, n) array, in the row blocks of
    # _row_slices, one gauss_segment call per ray
    blocks = _row_slices(x.size, _GL_NODES.size * _AIRY_PANELS)
    if len(blocks) > 1:
        return np.concatenate([_airy_rows(x[rows]) for rows in blocks], axis=1)
    # zeta = (2/3)|x|^(3/2) in extended precision: rounding zeta = 310
    # (x = -60) to a double would move e^{-i zeta} by ~1e-13
    ax = np.abs(x).astype(np.longdouble)
    zeta, r, neg = 2 * ax * np.sqrt(ax) / 3, np.sqrt(np.abs(x)), x < 0
    # the sign of x picks the saddle, its factor and the second ray (see airy;
    # at x >= 0 the mirror of the first); Ai'(-z) = -2 Re[e^{2i pi/3} Ai'(w)]
    t0 = np.where(neg, r * cmath.exp(1j * math.pi / 6), r)
    saddle = np.where(neg, np.exp(-1j * np.remainder(zeta, _TWO_PI_EXT).astype(float)),
                      np.exp(-zeta).astype(float))
    up = _airy_ray(t0, _AIRY_UP)
    down = up.conj()
    down[:, neg] = _airy_ray(t0[neg], _AIRY_DOWN)
    w = saddle / (2j * math.pi) * (up - down)
    return np.where(neg, (2.0 * np.array([[_AIRY_UP], [-_AIRY_UP ** 2]]) * w).real, w.real)


def airy(x):
    """Airy function Ai(x) and its derivative Ai'(x) for -60 <= x <= 20.

    x may be a scalar, which gives the tuple (Ai, Ai') of two floats, or
    an array of any shape, which gives two arrays of that shape.  One
    evaluator: Ai(x) = (1/2 pi i) int exp(t^3/3 - x t) dt (DLMF 9.5) on
    straight rays from the saddle t0, where the exponent is -(2/3) x^(3/2)
    + t0 u^2 + u^3/3 in u = t - t0; Ai' takes the extra factor -(t0 + u).
    For x >= 0, t0 = sqrt(x) and the rays leave at +-pi/3; for x < 0,
    Ai(-z) = 2 Re[e^{i pi/3} Ai(z e^{i pi/3})] (DLMF 9.2), rays at pi/3 and
    -5 pi/12 from t0 = sqrt(z) e^{i pi/6}.  Each ray is two gauss_segment
    panels.  Against 30-digit mpmath the error is ~1e-15, relative for
    x >= 0 and absolute below (~1e-13 where np.longdouble is no wider than
    a double).  An argument outside [-60, 20] (or NaN) raises DomainError.
    """
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    bad = ~((flat >= _AIRY_LO) & (flat <= _AIRY_HI))
    if bad.any():
        raise DomainError(f"airy argument {float(flat[bad][0])} outside [{_AIRY_LO}, {_AIRY_HI}]")
    ai, aip = _airy_rows(flat)
    if xa.ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(xa.shape), aip.reshape(xa.shape)


# ----------------------------------------------------------------------
# Pearcey integral P(x, beta) and the half-range derivative dP1/dy
# ----------------------------------------------------------------------

_PEARCEY_ARG_MAX, _PANEL_PHASE = 400.0, 12.0  # |x|, |beta| bound; rad of phase per panel


def _p1_contour(x, y, power=0):
    """int_0^inf (iu)^power exp[i(u^4 + x u^2 + y u)] du for an array of y:
    P1(x, y) at power 0, dP1/dy at power 1.

    Two-leg contour (DLMF 36.15): the real axis out to R, then the ray
    R + t exp(i pi/8).  R is the least R >= 1 with phi' = 4R^3 + 2xR - B >=
    B/2 + 1 and 6R^2 + x >= 1 in the worst row, y = -B (B = max |y|), the
    cubic by Newton from above from 1 + (B/4)^(1/3) + sqrt(|x|/2).  Every
    Taylor coefficient of Im phase along the ray is then positive in every
    row, so |exp(i phase)| <= 1 there, and no real stationary point lies
    past R, where phi' only grows.  Each leg takes a 24-node panel per 12
    rad of the phase it spans, and the ray ends where Im phase, a quartic in
    t, reaches 46 in the worst row (Newton from above); all rows share it.
    Each leg piece of at most _CONTOUR_PIECE nodes is laid once (the real
    leg in real arithmetic) and swept in blocks of _CONTOUR_BLOCK (row,
    node) entries: exp(i phase) = e^-D (cos Phi + i sin Phi), Phi = y Re u +
    Re b, D = y Im u + Im b, b = u^4 + x u^2 (`sincos`; np.exp on the ray
    only), each row reduced by np.einsum, not BLAS, so its value does not
    depend on the rows beside it.
    """
    y = np.asarray(y, dtype=float)
    ay = float(np.abs(y).max(initial=0.0))
    w8 = cmath.exp(1j * math.pi / 8)
    R = 1.0 + (ay / 4.0) ** (1.0 / 3.0) + math.sqrt(abs(x) / 2.0)
    for _ in range(6):
        R -= (4.0 * R ** 3 + 2.0 * x * R - 1.5 * ay - 1.0) / (12.0 * R * R + 2.0 * x)
    R = max(1.0, math.sqrt(max(0.0, (1.0 - x) / 6.0)), R)
    slope = 4.0 * R ** 3 + 2.0 * x * R
    c1, c2, c3 = ((w8 ** k).imag * c for k, c in enumerate((slope - ay, 6 * R * R + x, 4 * R), 1))
    T = min(_RAY_DECAY / c1, (_RAY_DECAY / c2) ** 0.5, (_RAY_DECAY / c3) ** (1 / 3), _RAY_DECAY ** 0.25)
    for _ in range(3):
        T -= ((((T + c3) * T + c2) * T + c1) * T - _RAY_DECAY) / (((4 * T + 3 * c3) * T + 2 * c2) * T + c1)
    n1 = max(2, math.ceil((R ** 4 + abs(x) * R ** 2 + ay * R) / _PANEL_PHASE))
    n2 = max(2, math.ceil(((abs(slope) + ay) * T + _RAY_DECAY) / _PANEL_PHASE))
    ys, out = y.ravel(), np.zeros(y.size, dtype=complex)
    for z0, z1, n in ((0.0, R, n1), (R + 0.0j, R + T * w8, n2)):
        k = -(-n // (_CONTOUR_PIECE // _GL_NODES.size))
        for j in range(k):
            u, w, half, dz = _gl_panels(z0 + (z1 - z0) * j / k, z0 + (z1 - z0) * (j + 1) / k, -(-n // k))
            base = u * u * (u * u + x)
            c = (w * (1j * u) if power else w) * half * dz
            ur, br, cr, ci = (np.ascontiguousarray(v) for v in (u.real, base.real, c.real, c.imag))
            np.remainder(br, 2.0 * math.pi, out=br)  # exact: Phi rounds at |y u| + 2 pi
            for rows in _row_slices(ys.size, u.size):
                phi = np.multiply.outer(ys[rows], ur)
                phi += br
                sin, cos = sincos(phi)
                if dz.imag:
                    d = np.multiply.outer(-ys[rows], u.imag)
                    np.exp(np.subtract(d, base.imag, out=d), out=d)
                    sin *= d
                    cos *= d
                out.real[rows] += np.einsum("...j,j->...", cos, cr) - np.einsum("...j,j->...", sin, ci)
                out.imag[rows] += np.einsum("...j,j->...", cos, ci) + np.einsum("...j,j->...", sin, cr)
    return out.reshape(y.shape)


def _pearcey_args(x, beta):
    # x as a float, |beta| as an array and its largest entry, checked
    # against the supported domain |x|, |beta| <= 400 (NaN fails too)
    x, beta = float(x), np.abs(np.asarray(beta, dtype=float))
    top = float(np.max(beta, initial=0.0))
    if not (math.isfinite(x) and math.isfinite(top)):
        raise DomainError("Pearcey arguments must be finite")
    if abs(x) > _PEARCEY_ARG_MAX or top > _PEARCEY_ARG_MAX:
        raise DomainError("Pearcey argument beyond supported range")
    return x, beta, top


def _p1_column(x, top, power, direct_rows):
    # (f, n): y -> _p1_contour(x, y, power) on [-top, top] (n = 0), or the even part
    # of its degree-n Chebyshev proxy where that needs fewer contour rows than direct_rows
    c = _p1_chebyshev(x, top, power, direct_rows)
    if c is None:
        return (lambda y: _p1_contour(x, y, power)), 0
    return (lambda y: _chebyshev_even(c, y / top)), c.size - 1


def pearcey(x, beta):
    """Pearcey integral P(x, beta) = int exp[i(u^4 + x u^2 + beta u)] du.

    Evaluated as P(x, beta) = P1(x, beta) + P1(x, -beta) for |x|, |beta|
    <= 400 (DomainError beyond, and for NaN or inf) by one contour call
    sized by B, the largest |beta|, or by the Chebyshev proxy of P1 on
    [-B, B] where that needs fewer than the contour's 2 rows per point.
    beta may be a scalar (complex result) or an array of any shape
    (complex array of that shape).  Even in beta; the sign is canonicalized
    before evaluation so pearcey(x, b) == pearcey(x, -b) bit for bit.
    """
    x, beta, top = _pearcey_args(x, beta)
    half = _p1_column(x, top, 0, 2 * beta.size)[0](np.concatenate([beta.ravel(), -beta.ravel()]))
    out = (half[:beta.size] + half[beta.size:]).reshape(beta.shape)
    return complex(out) if out.ndim == 0 else out


def bessoid(x, beta):
    """Bessoid integral S(x, beta) = (4/pi) int_0^pi dP1/dy(x, beta cos phi) dphi
    (Kirk, Connor, Curran & Hobbs, J. Phys. A 33, 4797 (2000)) of the 3D
    cusp; its domain, DomainError and scalar or array beta are as in `pearcey`.

    The integrand is even and periodic in phi: the midpoint rule phi_k =
    (k + 1/2) pi/M converges geometrically (Trefethen & Weideman, SIAM Rev.
    56, 385 (2014)), with M = ceil(BR/2 + 3 (BR)^(1/3) + 8) on the contour
    for the rate BR of dP1/dy in phi (B = max |beta|, R = 1 + (B/4)^(1/3) +
    sqrt(|x|/2)), or exact with M = N/2 + 1 on the even part of the degree-N
    Chebyshev proxy on [-B, B], where that needs fewer contour rows.
    """
    x, beta, top = _pearcey_args(x, beta)
    bandwidth = top * (1.0 + (top / 4.0) ** (1.0 / 3.0) + math.sqrt(abs(x) / 2.0))
    m = math.ceil(bandwidth / 2.0 + 3.0 * bandwidth ** (1.0 / 3.0) + 8.0)
    dp1, n = _p1_column(x, top, 1, beta.size * m)
    m = n // 2 + 1 if n else m
    cos_phi = np.cos((np.arange(m) + 0.5) * (math.pi / m))
    b, s = beta.ravel(), np.empty(beta.size, dtype=complex)
    for rows in _row_slices(b.size, m):
        s[rows] = dp1(np.multiply.outer(b[rows], cos_phi)).sum(axis=-1)
    s = (4.0 / m * s).reshape(beta.shape)
    return complex(s) if s.ndim == 0 else s


# ----------------------------------------------------------------------
# Chebyshev proxy of the contour along y
# ----------------------------------------------------------------------

# first degree, number of trailing coefficients tested, and their bound
# relative to the largest coefficient.  For -100 <= x <= 400 and B <= 400
# the trailing coefficients fall to 2e-16 .. 9e-14 of the largest at both
# powers; N runs up to 4096 at x = -100, B = 400 (1.4 s) and to 8192 at
# x = -141, B = 336 (3.1 s), the bandwidth of the integral itself.  Only
# the caller's row budget stops the doubling
_CHEB_START, _CHEB_TAIL, _CHEB_CHOP = 32, 8, 1e-13


def _cosine_sum(f):
    # Chebyshev coefficients of the values f at the n + 1 points cos(pi k/n):
    # c_j = (2/n) sum_k'' f_k cos(pi j k/n), first and last halved, a DCT-I,
    # as one FFT of the even extension f_0 .. f_n, f_{n-1} .. f_1 (Trefethen,
    # Approximation Theory and Approximation Practice, SIAM 2013, ch. 3)
    n = f.size - 1
    c = np.fft.fft(np.concatenate([f, f[-2:0:-1]]))[:n + 1] / n
    c[[0, -1]] *= 0.5
    return c


def _p1_chebyshev(x, top, power, max_rows):
    """Chebyshev coefficients c_0 .. c_N of y -> _p1_contour(x, y, power)
    on [-top, top], or None where they would take max_rows contour rows.

    Samples at the N + 1 second-kind points top cos(pi k/N), N = 32, 64,
    128, ...: each doubling keeps the old samples and contours only the N
    new odd points.  N is accepted once the trailing 8 coefficients are
    within 1e-13 of the largest (the chopping rule of Aurentz & Trefethen,
    ACM TOMS 43, 2017; P1 and dP1/dy are entire in y).  N is tried only while
    2N < max_rows, the rows of the caller's direct path: an accepted proxy
    takes at most half of them, a rejected one adds at most half.  None also
    for top = 0.
    """
    n, f = _CHEB_START, None
    while top > 0 and 2 * n < max_rows:
        if f is None:
            f = _p1_contour(x, top * np.cos(np.pi / n * np.arange(n + 1)), power)
        else:
            g = np.empty(n + 1, dtype=complex)
            g[::2] = f
            g[1::2] = _p1_contour(x, top * np.cos(np.pi / n * np.arange(1, n, 2)), power)
            f = g
        c = _cosine_sum(f)
        if np.max(np.abs(c[-_CHEB_TAIL:])) <= _CHEB_CHOP * np.max(np.abs(c)):
            return c
        n *= 2
    return None


def _chebyshev_even(c, t):
    # the even part (f(t) + f(-t))/2 of f = sum_k c_k T_k on a real array t
    # in [-1, 1]: sum_m c_2m T_m(s), s = 2t^2 - 1, as T_2m = T_m(T_2), by
    # Clenshaw's recurrence (DLMF 3.11(ii)), in place but for one
    # temporary a step
    c, s = c[::2], 2.0 * t * t - 1.0
    b1, b2 = np.zeros(t.shape, dtype=complex), np.zeros(t.shape, dtype=complex)
    s2 = 2.0 * s
    for ck in c[:0:-1]:
        b2 *= -1.0
        b2 += s2 * b1
        b2 += ck
        b1, b2 = b2, b1
    return c[0] + s * b1 - b2
