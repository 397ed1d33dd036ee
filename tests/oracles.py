"""Reference implementations used only as test oracles.

None of these share code with the package evaluators they check:

- `pearcey_series_mp`: the Pearcey double series P(x, beta) and its
  term-wise y-derivative dP1/dy, summed at 50 digits;
- `cusp_3d_series`: the 3D cusp wave function from its double series;
- `bessoid_oracle`: the 3D cusp integral S(x, beta) as the Bessoid
  integral, a ray quadrature with scipy's complex J_0;
- `focal_sum_2d`: the 2D focal-time (P tau = 1) single sum;
- `airy_mp`: Ai and Ai' by mpmath at 30 digits, rounded to doubles;
- `bessel_j_mp`: J_0 or J_1 by mpmath at 30 digits, rounded to doubles;
- `sincos_mp`: sin and cos by mpmath at 50 digits, rounded to doubles;
- `p1_contour_oracle`: the rotated-contour Pearcey half-range integral by
  scipy adaptive quadrature on pieces of about 20 rad of phase;
- `p1_contour_complex`: the same integral on the package's contour shape
  and panels (through `gauss_segment`) but a deliberately longer real leg,
  one complex exp per node where the package works in real arithmetic;
- `bessoid_contour_oracle`: the Bessoid integral on a two-leg contour of
  its own with scipy's J_0, for every |x|, |beta| <= 400;
- `planar_psi_oracle`: the planar-model wave function with scipy's J_0 and
  32-node Gauss-Legendre on four times the panels the package once used;
- `bisect_scalar`: one-bracket bisection, the row rule of
  `classical._bisect_rows` written out for a single scalar function;
- `map_forward`: the kick map theta0 - s sin(m theta0) by the math module,
  taken mod 2 pi and, on the sphere, reflected into [0, pi];
- `invert_map_loop`, `density_classical_loop`: the classical map inversion
  and ensemble density one angle at a time, bracket by bracket, with
  `bisect_scalar` and the math module;
- `box_means`: Gauss-Legendre means of an array function over many boxes,
  from one call on the nodes of every box.
- `wavefunction_direct`: the planar Fourier sum one exponential per
  (order, point), each phase n theta formed exactly;
- `ensemble_at`: a thermal ensemble at given angles, through np.cos and
  np.sin, with given momenta (no kick strength: each kick takes its own);
- `at_rest`: an ensemble's positions with zero momenta, the
  zero-temperature start the squeeze driver builds from `sample_ensemble`;
- `driver_first_kick`: the (ensemble, P) the squeeze driver hands its first
  `thermal.kick`, caught by a stand-in kick that stops the run.
- `evolve_libm`: the closed-form free flight of `thermal._fly` written
  out whole, its rotation through np.cos and np.sin.
- `stationary_points_3d`: the classified real stationary points of the
  quartic planar phase, a paper construction only tests use (built on the
  package's quartic phase and planar glory angle).
- `hyp1f1_focus`, `focal_density_closed_form`: 1F1(1/2, 3/2, iz) and the
  planar model's focal density in its 1F1 closed form, paper constructions
  only tests use (built on the package's `gauss_segment`).

The series are slow (10-1000 ms a point), so tests call them at a few
points only.  The double series run out of terms near the corner of
|x|, |beta| <= 12 (for example at x = -12, beta = 6) and raise
ConvergenceError there.
"""

import cmath
import math
from dataclasses import dataclass, replace
from unittest import mock

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import j0, jv

from kickedrotor.semiclassical import DISC_RADIUS, _quartic_phase, glory_angle_planar
from kickedrotor.specfun import ConvergenceError, DomainError, gauss_segment
from kickedrotor import squeeze, thermal
from kickedrotor.classical import Coupling
from kickedrotor.thermal import ThermalEnsemble

_MP_DPS = 50

# the 16 eighth-roots of unity at series precision
with mpmath.workdps(_MP_DPS):
    _MP_PI8 = [mpmath.expjpi(mpmath.mpf(k) / 8) for k in range(16)]


def pearcey_series_mp(x, beta, half_dy=False):
    """High-precision evaluation of the double series.

    half_dy=False: P(x,b) = 1/2 sum x^m/m! b^{2n}/(2n)! G[(2n+2m+1)/4]
                            * exp[i pi (10n+6m+1)/8]
    half_dy=True : dP1/dy  = 1/4 sum x^m/m! y^n/n! G[(n+2m+2)/4]
                            * exp[i pi (5(n+1)+6m+1)/8],  n >= 0

    The terms cancel catastrophically toward the corner of the series
    domain, so the accumulation runs at 50 significant digits.
    """
    with mpmath.workdps(_MP_DPS):
        X = mpmath.mpf(repr(float(x)))
        B = mpmath.mpf(repr(float(beta)))
        total = mpmath.mpc(0)
        quiet_rows = 0
        n = 0
        while n < 300:
            if half_dy:
                # term n of dP1/dy carries y^n/n! and Gamma((n+1+2m+1)/4)
                bpow = B ** n / mpmath.factorial(n)
            else:
                bpow = B ** (2 * n) / mpmath.factorial(2 * n)
            row = mpmath.mpc(0)
            m = 0
            quiet_terms = 0
            while m < 300:
                if half_dy:
                    g = mpmath.gamma(mpmath.mpf(n + 1 + 2 * m + 1) / 4)
                    ph = _MP_PI8[(5 * (n + 1) + 6 * m + 1) % 16]
                else:
                    g = mpmath.gamma(mpmath.mpf(2 * n + 2 * m + 1) / 4)
                    ph = _MP_PI8[(10 * n + 6 * m + 1) % 16]
                term = bpow * X ** m / mpmath.factorial(m) * g * ph
                row += term
                scale = max(abs(total + row), mpmath.mpf(1))
                if abs(term) < mpmath.mpf("1e-25") * scale:
                    quiet_terms += 1
                    if quiet_terms >= 4 and m > 4:
                        break
                else:
                    quiet_terms = 0
                m += 1
            else:
                raise ConvergenceError("pearcey series: inner loop exhausted")
            total += row
            scale = max(abs(total), mpmath.mpf(1))
            if abs(row) < mpmath.mpf("1e-25") * scale and n > 4:
                quiet_rows += 1
                if quiet_rows >= 10:
                    break
            else:
                quiet_rows = 0
            n += 1
        else:
            raise ConvergenceError("pearcey series: row budget exhausted")
        fac = mpmath.mpf(1) / 4 if half_dy else mpmath.mpf(1) / 2
        total *= fac
        return complex(total)


def cusp_3d_series(theta, tau, P):
    """3D cusp wave function from the double series

      psi = -(6/P)^(1/2) e^{i(P + theta^2/2tau)} / (4 sqrt(pi) tau)
            * sum_{n,m} x^m/m! beta^(2n)/(2n)! [(2n-1)!!/(2n)!!]
              Gamma[(n+m+1)/2] e^{i pi (5n+3m+3)/4},

    with the cusp variables x = sqrt(6/P)(1/tau - P) and
    beta = sqrt(2)(theta/tau)(6/P)^(1/4).
    """
    x = math.sqrt(6.0 / P) * (1.0 / tau - P)
    beta = math.sqrt(2.0) * (theta / tau) * (6.0 / P) ** 0.25
    if abs(x) > 40 or abs(beta) > 40:
        raise ConvergenceError("cusp_3d_series arguments outside the series domain")
    with mpmath.workdps(50):
        X = mpmath.mpf(repr(float(x)))
        B = mpmath.mpf(repr(float(beta)))
        total = mpmath.mpc(0)
        quiet_rows = 0
        dfac = mpmath.mpf(1)  # (2n-1)!!/(2n)!!
        for n in range(300):
            if n > 0:
                dfac *= mpmath.mpf(2 * n - 1) / (2 * n)
            bpow = B ** (2 * n) / mpmath.factorial(2 * n) * dfac
            row = mpmath.mpc(0)
            quiet = 0
            for m in range(300):
                term = (bpow * X ** m / mpmath.factorial(m)
                        * mpmath.gamma(mpmath.mpf(n + m + 1) / 2)
                        * mpmath.expjpi(mpmath.mpf(5 * n + 3 * m + 3) / 4))
                row += term
                if abs(term) < mpmath.mpf("1e-25") * max(abs(total + row), mpmath.mpf(1)):
                    quiet += 1
                    if quiet >= 4 and m > 4:
                        break
                else:
                    quiet = 0
            else:
                raise ConvergenceError("cusp_3d_series inner sum exhausted")
            total += row
            if n > 4 and abs(row) < mpmath.mpf("1e-25") * max(abs(total), mpmath.mpf(1)):
                quiet_rows += 1
                if quiet_rows >= 10:
                    break
            else:
                quiet_rows = 0
        else:
            raise ConvergenceError("cusp_3d_series row budget exhausted")
        s = complex(total)
    pref = -math.sqrt(6.0 / P) / (4.0 * math.sqrt(math.pi) * tau)
    pref *= cmath.exp(1j * (P + theta * theta / (2.0 * tau)))
    return pref * s


_BESSOID_GL = np.polynomial.legendre.leggauss(32)
# largest int |integrand| / max |S| the Bessoid oracle accepts: its rounding
# error is about 1e-16 of the integral of |integrand|
_BESSOID_CANCELLATION = 1e4


def bessoid_oracle(x, beta):
    """S(x, beta) = 4i int_0^inf u J_0(beta u) e^{i(u^4 + x u^2)} du, the
    Bessoid integral (Kirk, Connor, Curran & Hobbs, J. Phys. A 33, 4797
    (2000)), for an array of beta at one x: S = (4/pi) int_0^pi
    dP1/dy(x, beta cos phi) dphi.

    Integrated on the ray u = r e^{i pi/8}, where e^{i u^4} = e^{-r^4},
    out to r = 3 + max|beta|^(1/3) + sqrt|x|, with scipy's complex J_0
    and 32-node Gauss-Legendre panels 1/8 wide.  On the ray J_0 grows like
    e^{beta r sin(pi/8)} and e^{i x u^2} like e^{|x| r^2/sqrt 2} for x < 0
    before the quartic wins, so the terms cancel: where int |integrand|
    exceeds 1e4 max |S| the oracle raises ConvergenceError.  Moderate
    |x|, beta only (about 5 ms a point).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    w8 = cmath.exp(1j * math.pi / 8)
    R = 3.0 + float(np.max(np.abs(beta), initial=0.0)) ** (1 / 3) + math.sqrt(abs(x))
    n = math.ceil(8 * R)
    t, w = _BESSOID_GL
    h = 0.5 * R / n
    r = (((np.arange(n) + 0.5) * (2 * h))[:, None] + h * t).ravel()
    u = r * w8
    f = (u * w8 * h * np.tile(w, n)) * np.exp(1j * (u ** 4 + x * u * u)) * jv(0, beta[:, None] * u)
    s = 4j * f.sum(axis=-1)
    if 4 * np.max(np.abs(f).sum(axis=-1)) > _BESSOID_CANCELLATION * np.max(np.abs(s)):
        raise ConvergenceError("bessoid_oracle: cancellation beyond its tolerance")
    return s


def bessoid_contour_oracle(x, beta, panel_phase=6.0):
    """(S, A) for an array of beta at one x: the Bessoid integral
    S(x, beta) = 4i int_0^inf u J_0(beta u) e^{i(u^4 + x u^2)} du and
    A = 4 int |u J_0(beta u) e^{i(u^4 + x u^2)}| |du|, the scale its
    rounding error is judged against where |S| is small (x >= 100).

    Two legs, so that no term blows up at any |x|, |beta| <= 400: the real
    axis out to R = 2 + (B/4)^(1/3) + sqrt(|x|/2) (B = max |beta|), past
    every stationary point, then the ray R + t e^{i pi/8}, on which
    |J_0(beta u)| <= e^{B Im u}, out to where Im(u^4 + x u^2) - B Im u
    passes 60.  32-node Gauss-Legendre panels of about panel_phase rad of
    a bound on the phase (u^4 + |x| u^2 + B u on the axis; on the ray the
    moduli of its Taylor coefficients at R, plus B t), scipy's J_0 on the
    axis and its complex jv on the ray.  About 0.1-0.3 s a call of up to 9
    beta at |x| = 400.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    B = float(np.max(np.abs(beta), initial=0.0))
    w8 = cmath.exp(1j * math.pi / 8)
    R = 2.0 + (B / 4.0) ** (1 / 3) + math.sqrt(abs(x) / 2.0)
    decay = lambda t: ((R + t * w8) ** 4 + x * (R + t * w8) ** 2).imag - B * t * w8.imag
    T = 1e-4
    while decay(T) <= 60.0:
        T *= 1.25
    a1, a2 = abs(4 * R ** 3 + 2 * x * R) + B, abs(6 * R * R + x)
    t, w = _BESSOID_GL
    s, a = np.zeros(beta.size, dtype=complex), np.zeros(beta.size)
    for z0, dz, phase, bessel in ((0.0, R, R ** 4 + abs(x) * R * R + B * R, j0),
                                  (R, T * w8, a1 * T + a2 * T * T + 4 * R * T ** 3 + T ** 4,
                                   lambda z: jv(0, z))):
        n = math.ceil(phase / panel_phase)
        for p0 in range(0, n, 2048):
            k = np.arange(p0, min(n, p0 + 2048))
            u = z0 + ((k[:, None] + 0.5 + 0.5 * t) / n).ravel() * dz
            f = 4.0 * u * np.exp(1j * (u ** 4 + x * u ** 2)) * (np.tile(w, k.size) * (0.5 / n) * dz)
            f = f * bessel(beta[:, None] * u)
            s += 1j * f.sum(axis=-1)
            a += np.abs(f).sum(axis=-1)
    return s, a


def focal_sum_2d(theta, P, n_terms=200):
    """Focal-time (P*tau = 1) branch wave function by the single sum

      psi~ = (6P)^(1/4)/(2 pi sqrt(2i)) e^{iP(1+theta^2/2)}
             sum_n beta^(2n)/(2n)! Gamma[(2n+1)/4] e^{i pi(10n+1)/8}.
    """
    if P <= 0:
        raise ValueError("P must be > 0")
    beta = float(math.sqrt(2.0) * theta * P * (6.0 / P) ** 0.25)
    with mpmath.workdps(40):
        B = mpmath.mpf(repr(float(beta)))
        acc = mpmath.mpc(0)
        for n in range(n_terms):
            term = (B ** (2 * n) / mpmath.factorial(2 * n)
                    * mpmath.gamma(mpmath.mpf(2 * n + 1) / 4)
                    * mpmath.expjpi(mpmath.mpf(10 * n + 1) / 8))
            acc += term
            if n > 4 and abs(term) < mpmath.mpf("1e-25") * max(abs(acc), mpmath.mpf(1)):
                break
        else:
            raise ConvergenceError("focal_sum_2d did not converge")
        s = complex(acc)
    pref = (6.0 * P) ** 0.25 / (2.0 * math.pi * cmath.sqrt(2.0j))
    pref *= cmath.exp(1j * P * (1.0 + theta * theta / 2.0))
    return pref * s


def airy_mp(xs):
    """(Ai, Ai') of each x in xs as two float arrays, from mpmath's airyai
    at 30 digits (about 2 ms a point)."""
    with mpmath.workdps(30):
        vals = [(mpmath.airyai(X), mpmath.airyai(X, derivative=1))
                for X in (mpmath.mpf(repr(float(x))) for x in xs)]
    return np.array([[float(a) for a, _ in vals], [float(d) for _, d in vals]])


def bessel_j_mp(n, xs):
    """J_n(x) of each x in xs as a float array, from mpmath's besselj at 30
    digits (about 0.1 ms a point for |x| <= 1e4)."""
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(n, X)) for X in map(mpmath.mpf, np.asarray(xs, dtype=float).tolist())])


def sincos_mp(xs):
    """(sin x, cos x) of each x in xs as two float arrays, from mpmath at
    50 digits (its argument reduction keeps them at 1e300 too)."""
    with mpmath.workdps(_MP_DPS):
        vals = [(mpmath.sin(X), mpmath.cos(X)) for X in map(mpmath.mpf, np.asarray(xs, dtype=float).tolist())]
    return np.array([[float(s) for s, _ in vals], [float(c) for _, c in vals]])


def p1_contour_oracle(x, y, T=12.0, power=0):
    """Rotated-contour quadrature of int_0^inf (iu)^power e^{i(u^4+xu^2+yu)} du,
    via scipy: real axis to beyond the stationary points, then the pi/8
    ray out to T.  Each leg is cut into pieces of about 20 rad of a bound
    on its phase (u^4 + |x| u^2 + |y| u on the axis; on the ray, a quartic
    in t with the moduli of the phase's Taylor coefficients at R, up to
    where Im phase passes 80), and scipy's adaptive quad integrates the
    real and imaginary parts of each piece: one quad call over the whole
    axis runs out of subdivisions near |x| = 400, where the phase reaches
    3e5 rad.  About 1-2 s a value at |x|, |y| = 400."""
    w8 = cmath.exp(1j * math.pi / 8)
    R = 1.0 + (abs(y) / 4.0) ** (1 / 3) + math.sqrt(abs(x) / 2.0)
    f = lambda u: (1j * u) ** power * cmath.exp(1j * (u ** 4 + x * u ** 2 + y * u))
    g = lambda t: f(R + t * w8) * w8

    def cuts(bound, end):
        # [0, end] cut where the increasing bound passes multiples of 20 rad
        n = max(1, math.ceil(bound(end) / 20.0))
        s = np.linspace(0.0, end, 64 * n + 1)
        return np.interp(np.linspace(0.0, bound(end), n + 1), bound(s), s)

    def integrate(h, pts):
        pieces = list(zip(pts[:-1], pts[1:]))
        part = lambda q: sum(quad(q, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                             for a, b in pieces)
        return complex(part(lambda t: h(t).real), part(lambda t: h(t).imag))

    axis = integrate(f, cuts(lambda u: u ** 4 + abs(x) * u ** 2 + abs(y) * u, R))
    a1, a2 = abs(4 * R ** 3 + 2 * x * R + y), abs(6 * R * R + x)
    ts = np.linspace(0.0, T, 4097)
    u = R + ts * w8
    decayed = (u ** 4 + x * u ** 2 + y * u).imag > 80.0
    t_cut = ts[np.argmax(decayed)] if decayed.any() else T
    pts = cuts(lambda t: a1 * t + a2 * t ** 2 + 4 * R * t ** 3 + t ** 4, t_cut)
    return axis + integrate(g, np.append(pts, T) if t_cut < T else pts)


def planar_psi_oracle(theta, tau, P, radius=2.0):
    """Planar-model psi(theta) = e^{i(P + theta^2/2tau)} / (i tau sqrt(4 pi))
    * int_0^L t J_0(theta t/tau) e^{i(a t^2 + P t^4/24)} dt, a = (1/tau - P)/2,
    one theta at a time: scipy's J_0, 32-node Gauss-Legendre, panels of at
    most 0.75 rad of the phase-slope bound (4x the earlier 24-node,
    3-rad rule, at least 96)."""
    a = 0.5 * (1.0 / tau - P)
    b = P / 24.0
    L = float(radius)
    x, w = np.polynomial.legendre.leggauss(32)
    slope = 2.0 * abs(a) * L + 4.0 * b * L ** 3 + abs(theta) / tau
    n = 4 * max(24, int(slope * L / 3.0))
    h = L / n
    t = ((np.arange(n)[:, None] + 0.5) + 0.5 * x[None, :]).ravel() * h
    wt = np.tile(w, n) * (0.5 * h)
    integral = np.sum(wt * t * j0(theta * t / tau) * np.exp(1j * (a * t * t + b * t ** 4)))
    pref = cmath.exp(1j * (P + theta * theta / (2.0 * tau))) / (1j * tau * math.sqrt(4.0 * math.pi))
    return complex(pref * integral)


def bisect_scalar(f, a, b, tol=1e-14, max_iter=200):
    """Root of a scalar f on [a, b]: an end where f is exactly zero, else
    the midpoint once the bracket is narrower than tol or f vanishes there
    (or after max_iter halvings)."""
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


def box_means(f, lo, hi, n=32):
    """Mean of f over each box [lo[i], hi[i]] by n-node Gauss-Legendre;
    f is called once, on an array holding the nodes of every box."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    return 0.5 * (f(0.5 * (lo + hi) + 0.5 * (hi - lo) * x) @ w)


def map_forward(theta0, params):
    """Final angle of a rotor that started at rest at theta0: theta0 - s
    sin(m theta0) mod 2 pi, reflected into [0, pi] on the sphere."""
    r = (theta0 - params.s * math.sin(params.harmonic * theta0)) % (2 * math.pi)
    return 2 * math.pi - r if params.geometry.value == "sphere3D" and r > math.pi else r


def invert_map_loop(theta, params):
    """Initial angles arriving at one angle theta, one bracket at a time:
    every target copy +-theta + 2 pi k inside the map's range, on every
    monotone piece between the zeros of the map derivative.  Roots within
    1e-10 of the last kept root are merged; at a pole of the sphere every
    interior root counts twice."""
    s, m = params.s, params.harmonic
    sphere = params.geometry.value == "sphere3D"
    hi = math.pi if sphere else 2 * math.pi
    pieces = {0.0, hi}
    if m * s > 1.0:
        a = math.acos(1.0 / (m * s))
        for k in range(-1, m + 2):
            for t in ((a + 2 * math.pi * k) / m, (-a + 2 * math.pi * k) / m):
                if 0.0 < t < hi:
                    pieces.add(t)
    pieces = sorted(pieces)
    g = lambda t: t - s * math.sin(m * t)
    g_min, g_max = min(map(g, pieces)) - 1e-12, max(map(g, pieces)) + 1e-12
    targets = set()
    for t in ([theta, -theta] if sphere else [theta]):
        for k in range(math.floor((g_min - t) / (2 * math.pi)), math.ceil((g_max - t) / (2 * math.pi)) + 1):
            if g_min <= t + 2 * math.pi * k <= g_max:
                targets.add(t + 2 * math.pi * k)
    roots = []
    for v in targets:
        f = lambda t, v=v: g(t) - v
        roots += [p for p in pieces if f(p) == 0.0]
        roots += [bisect_scalar(f, a, b) for a, b in zip(pieces[:-1], pieces[1:]) if f(a) * f(b) < 0]
    kept = []
    for r in sorted(roots):
        if not kept or r - kept[-1] > 1e-10:
            kept.append(r)
    if sphere and (theta < 1e-12 or abs(theta - math.pi) < 1e-12):
        kept = [x for r in kept for x in ([r, r] if 1e-9 < r < math.pi - 1e-9 else [r])]
    return kept


def density_classical_loop(theta, params):
    """Classical ensemble density at one angle: the sum over branches of
    (1/2pi)/|g'| on the circle, of sin(t0)/(4pi |g'| sin(theta)) on the
    sphere; inf at a fold (|g'| < 1e-12) or a glory (an off-axis root
    arriving on the axis)."""
    s, m = params.s, params.harmonic
    sphere = params.geometry.value == "sphere3D"
    total, singular = 0.0, False
    sin_th = abs(math.sin(theta))
    for t0 in invert_map_loop(theta, params):
        der = 1.0 - m * s * math.cos(m * t0)
        if abs(der) < 1e-12:
            singular = True
        elif sphere and sin_th < 1e-12:
            if abs(math.sin(t0)) > 1e-9:
                singular = True
            else:
                total += (1.0 / (4.0 * math.pi)) / (der * der)
        elif sphere:
            total += math.sin(t0) / (4.0 * math.pi) / abs(der) / sin_th
        else:
            total += 1.0 / (2 * math.pi) / abs(der)
    return math.inf if singular else total


def wavefunction_direct(coeffs, grid):
    """(2 pi)^(-1/2) sum_n c_n exp(i n theta), n in [-n_max, n_max], one
    exponential per (order, point).  theta = hi + lo with hi on a 2^-40
    grid, so n hi is exact for |theta| < 8 and |n| < 2^10, and
    exp(i n theta) = exp(i n hi) exp(i n lo) does not carry the rounding
    of n theta (up to 3e-13 rad at n = 479 in double precision)."""
    grid = np.asarray(grid, dtype=float)
    hi = np.round(grid * 2.0 ** 40) / 2.0 ** 40
    lo = grid - hi
    n_max = (len(coeffs) - 1) // 2
    psi = np.zeros(grid.shape, dtype=complex)
    for n, c in zip(range(-n_max, n_max + 1), coeffs):
        psi += c * np.exp(1j * n * hi) * np.exp(1j * n * lo)
    return psi / math.sqrt(2.0 * math.pi)


def circle_norm(values):
    """Trapezoid sum of a density sampled at N uniform angles 2 pi k/N on
    [0, 2 pi): exact for a trigonometric polynomial of degree below N, so
    for |psi|^2 of a Fourier packet once N > 2 n_max."""
    return float(np.sum(values) * (2.0 * math.pi / len(values)))


def sphere_norm(density, l_max):
    """2 pi int_0^pi density(theta) sin(theta) dtheta as Gauss-Legendre in
    x = cos(theta) on l_max + 2 nodes: exact for a density that is a
    polynomial of degree 2 l_max in x, such as |psi|^2 of a packet over
    Y_l^0, l <= l_max.  density maps an array of angles to its values."""
    x, w = np.polynomial.legendre.leggauss(l_max + 2)
    return float(2.0 * math.pi * np.sum(w * density(np.arccos(x))))


def ensemble_at(theta, p_theta, p_phi):
    """ThermalEnsemble of particles at the angles theta with the given
    momenta (the kick strength is an argument of each kick)."""
    theta = np.asarray(theta, dtype=float)
    return ThermalEnsemble(cos_theta=np.cos(theta), sin_theta=np.sin(theta),
                           p_theta=np.asarray(p_theta, dtype=float),
                           p_phi=np.asarray(p_phi, dtype=float))


def at_rest(ensemble):
    """The ensemble's positions with p_theta = p_phi = 0 (zero temperature)."""
    return replace(ensemble, p_theta=np.zeros(ensemble.n), p_phi=np.zeros(ensemble.n))


class _FirstKick(Exception):
    pass


def driver_first_kick(n, seed, P_prime, coupling=Coupling.DIPOLE):
    """(ensemble, P) that `squeeze.classical_accumulative_3d` passes to its
    first `thermal.kick`; the run stops there."""
    seen = []

    def first_kick(ensemble, P, coupling):
        seen.append((ensemble, P))
        raise _FirstKick

    with mock.patch.object(thermal, "kick", first_kick):
        try:
            squeeze.classical_accumulative_3d(n, P_prime, 1, seed, coupling)
        except _FirstKick:
            return seen[0]
    raise AssertionError("the driver never kicked")


def evolve_libm(ensemble, dt):
    """Free flight for dt >= 0 of every particle: cos theta(t) = cos theta0
    cos(wt) - b sin(wt), b = (p_theta/w) sin theta0, sin theta from the
    energy invariant and p_theta = -(d cos theta/dt)/sin theta, with w and
    its sine and cosine from np.sqrt, np.cos and np.sin.  A particle with
    w = 0, or NaN on a pole, keeps its state."""
    c0, s0, p0, pphi = ensemble.cos_theta, ensemble.sin_theta, ensemble.p_theta, ensemble.p_phi
    omega = np.sqrt(p0 ** 2 + (pphi / s0) ** 2)
    moving = omega > 0
    w = np.where(moving, omega, 1.0)
    b = p0 / w * s0
    cw, sw = np.cos(w * dt), np.sin(w * dt)
    c = np.clip(c0 * cw - b * sw, -1.0, 1.0)
    g = w * c0 * sw + p0 * s0 * cw
    s = np.sqrt(g * g + pphi ** 2) / w
    p = np.where(s > 1e-300, g / np.where(s > 1e-300, s, 1.0), -p0)
    return replace(ensemble, cos_theta=np.where(moving, c, c0), sin_theta=np.where(moving, s, s0),
                   p_theta=np.where(moving, p, p0))


@dataclass(frozen=True)
class StationaryPointSet3D:
    """Real stationary points of the quartic phase at one final angle.

    theta01 lives on the phi0 = 0 azimuth; theta02 (near the glory angle)
    and theta03 (the direct polar branch) on phi0 = pi.  Entries are None
    where the corresponding branch has no real root.
    """

    theta01: float | None
    theta02: float | None
    theta03: float | None
    phases: tuple


def _real_cubic_roots(c3, c1, c0):
    roots = np.roots([c3, 0.0, c1, c0])
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)):
            x = r.real
            # two Newton polishing steps
            for _ in range(2):
                fx = c3 * x ** 3 + c1 * x + c0
                dfx = 3.0 * c3 * x * x + c1
                if dfx != 0.0:
                    x -= fx / dfx
            out.append(x)
    return sorted(out)


def stationary_points_3d(theta, tau, P):
    """Classified real roots of P t^3/6 + (1/tau - P) t -+ theta/tau = 0."""
    if tau <= 0 or P <= 0:
        raise ValueError("stationary_points_3d requires tau, P > 0")
    s = P * tau
    c3 = P / 6.0
    c1 = 1.0 / tau - P
    # phi0 = 0 branch: constant -theta/tau; keep positive roots
    r0 = [r for r in _real_cubic_roots(c3, c1, -theta / tau) if r >= -1e-12]
    # phi0 = pi branch: constant +theta/tau
    rpi = [r for r in _real_cubic_roots(c3, c1, theta / tau) if r >= -1e-12]

    theta01 = theta02 = theta03 = None
    if s > 1.0:
        tg = glory_angle_planar(tau, P)
        if r0:
            theta01 = max(r0)
        if theta == 0.0:
            # the glory pair merges at tg; the direct branch sits at the pole
            theta01 = tg
            theta02 = tg
            theta03 = 0.0
        else:
            pos = sorted(r for r in rpi if r > 1e-12)
            if len(pos) == 2:
                theta03, theta02 = pos
            elif len(pos) == 1:
                theta03 = pos[0]
    else:
        if r0:
            theta01 = max(r0)
    phases = tuple(
        _quartic_phase(t, theta, tau, P, sgn)
        for t, sgn in ((theta01, -1.0), (theta02, 1.0), (theta03, 1.0))
        if t is not None
    )
    return StationaryPointSet3D(theta01=theta01, theta02=theta02,
                                theta03=theta03, phases=phases)


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


def focal_density_closed_form(P, radius=DISC_RADIUS):
    """|psi(0, 1/P)|^2 of the planar model, via the confluent
    hypergeometric closed form I = (P L^2/2) 1F1(1/2, 3/2, i P L^4/24)."""
    if P <= 0:
        raise ValueError("P must be > 0")
    L = float(radius)
    z = P * L ** 4 / 24.0
    I = (P * L * L / 2.0) * hyp1f1_focus(z)
    return abs(I) ** 2 / (4.0 * math.pi)


def p1_contour_complex(x, y, power=0, panel_phase=12.0):
    """int_0^inf (iu)^power exp[i(u^4 + x u^2 + y u)] du for one y on the
    two-leg contour shape of `specfun._p1_contour`, sized for that y alone,
    with the integrand taken as one complex exp per node on `gauss_segment`:
    the real axis to R, then the pi/8 ray to where Im phase reaches 46 at
    y = -|y|, a 24-node panel per panel_phase rad, each leg in pieces of at
    most 2^15 nodes.  R = 1 + (|y|/4)^(1/3) + sqrt(|x|/2) is deliberately
    wider than the runtime's R, which ends the real leg where the phase
    turns to decay: the two contours share no nodes, so this stays an
    independent check (at x = 400 its real leg spans 3e5 rad against the
    runtime's 800)."""
    w8, ay = cmath.exp(1j * math.pi / 8), abs(y)
    R = 1.0 + (ay / 4.0) ** (1.0 / 3.0) + math.sqrt(abs(x) / 2.0)
    slope = 4.0 * R ** 3 + 2.0 * x * R
    c1, c2, c3 = ((w8 ** k).imag * c for k, c in enumerate((slope - ay, 6 * R * R + x, 4 * R), 1))
    T = min(46.0 / c1, (46.0 / c2) ** 0.5, (46.0 / c3) ** (1 / 3), 46.0 ** 0.25)
    for _ in range(3):
        T -= ((((T + c3) * T + c2) * T + c1) * T - 46.0) / (((4 * T + 3 * c3) * T + 2 * c2) * T + c1)
    n1 = max(2, math.ceil((R ** 4 + abs(x) * R ** 2 + ay * R) / panel_phase))
    n2 = max(2, math.ceil(((abs(slope) + ay) * T + 46.0) / panel_phase))
    f = lambda u: (1j * u) ** power * np.exp(1j * (u ** 4 + x * u ** 2 + y * u))

    def leg(z0, z1, n):
        k = -(-n // (2 ** 15 // 24))
        ends = np.linspace(z0, z1, k + 1)
        return sum(gauss_segment(f, a, b, -(-n // k)) for a, b in zip(ends[:-1], ends[1:]))

    return complex(leg(0.0 + 0.0j, R + 0.0j, n1) + leg(R + 0.0j, R + T * w8, n2))
