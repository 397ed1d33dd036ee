"""Reference implementations used only as test oracles.

None of these share code with the package evaluators they check:

- `pearcey_series_mp`: the Pearcey double series P(x, beta) and its
  term-wise y-derivative dP1/dy, summed at 50 digits;
- `cusp_3d_series`: the 3D cusp wave function from its double series;
- `focal_sum_2d`: the 2D focal-time (P tau = 1) single sum;
- `airy_mp`: Ai and Ai' by mpmath at 30 digits, rounded to doubles;
- `p1_contour_oracle`: the rotated-contour Pearcey half-range integral by
  scipy adaptive quadrature;
- `planar_psi_oracle`: the planar-model wave function with scipy's J_0 and
  32-node Gauss-Legendre on four times the panels the package once used;
- `bisect_scalar`: one-bracket bisection, the row rule of
  `classical._bisect_rows` written out for a single scalar function;
- `invert_map_loop`, `density_classical_loop`: the classical map inversion
  and ensemble density one angle at a time, bracket by bracket, with
  `bisect_scalar` and the math module;
- `box_means`: Gauss-Legendre means of an array function over many boxes,
  from one call on the nodes of every box.

The series are slow (10-1000 ms a point), so tests call them at a few
points only.  The double series run out of terms near the corner of
|x|, |beta| <= 12 (for example at x = -12, beta = 6) and raise
ConvergenceError there.
"""

import cmath
import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from kickedrotor.specfun import ConvergenceError

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


def p1_contour_oracle(x, y, T=12.0, power=0):
    """Rotated-contour quadrature of int_0^inf (iu)^power e^{i(u^4+xu^2+yu)} du,
    via scipy: real axis to beyond the stationary points, then the
    pi/8 ray."""
    w8 = np.exp(1j * np.pi / 8)
    R = 1.0 + (abs(y) / 4.0) ** (1 / 3) + math.sqrt(abs(x) / 2.0)
    f = lambda u: (1j * u) ** power * np.exp(1j * (u ** 4 + x * u ** 2 + y * u))
    re1, _ = quad(lambda t: f(t).real, 0, R, limit=2000)
    im1, _ = quad(lambda t: f(t).imag, 0, R, limit=2000)
    g = lambda t: f(R + t * w8) * w8
    re2, _ = quad(lambda t: g(t).real, 0, T, limit=2000)
    im2, _ = quad(lambda t: g(t).imag, 0, T, limit=2000)
    return complex(re1 + re2, im1 + im2)


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
