"""Semiclassical approximations for the kicked rotor catastrophes.

The planar model treats the polar region of the sphere as a flat disc of
area 4*pi (radius 2) whose wave function is kicked radially; its integral

  psi(theta,tau) = e^{i(P + theta^2/2tau)} / (i tau sqrt(4 pi))
                   * int_0^L dt t J0(theta t / tau)
                     exp[i(t^2 (1/tau - P)/2 + P t^4/24)]

is the quadrature oracle for the 3D asymptotics.  On top of it sit the
catastrophe approximations: Pearcey cusp (2D and 3D), Airy rainbow (2D),
uniform Airy (3D rainbow, full-cosine phase), uniform Bessel (3D glory,
quartic phase) and its Ford-Wheeler limit.

Two amplitude conventions are fixed against independent checks rather
than taken from intermediate printed forms: the azimuthal stationary
phase step of the uniform Airy reduction carries weight
2*sqrt(2 pi tau / (2 theta)) (verified against the focal norm integral),
and the rainbow Airy argument is eta = [2/(P sin tb)]^(1/3)(theta -
theta_r)/tau, oscillatory on the lit side theta < theta_r.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .classical import _bisect_rows, rainbow_angle
from .specfun import (
    _MAX_PANELS,
    ConvergenceError,
    _row_slices,
    airy,
    bessel_j0,
    bessel_j1,
    bessoid,
    gauss_segment,
    pearcey,
)

__all__ = [
    "DISC_RADIUS",
    "planar_psi",
    "focal_density_asymptotic",
    "pearcey_focus_2d",
    "pearcey_cusp_3d",
    "airy_rainbow_2d",
    "airy_rainbow_2d_full",
    "uniform_airy_3d",
    "uniform_bessel_glory",
    "ford_wheeler_glory",
    "glory_angle_planar",
    "annotate_validity",
]

DISC_RADIUS = 2.0  # radius of the flat disc of area 4*pi


# ----------------------------------------------------------------------
# Planar-model quadrature (the 3D oracle)
# ----------------------------------------------------------------------

def planar_psi(theta, tau, P, radius=DISC_RADIUS):
    """Planar-model wave function
    psi(theta) = e^{i(P + theta^2/2tau)} / (i tau sqrt(4 pi))
                 * int_0^L t J_0(theta t/tau) e^{i(a t^2 + P t^4/24)} dt,
    a = (1/tau - P)/2, by Gauss-Legendre quadrature.

    theta may be a scalar (complex result) or an array of any shape
    (complex array of that shape).  Long arrays go in the row blocks of
    specfun._row_slices, whose rows share panels that split the block's
    phase budget Phi(L) evenly, Phi(t) = int_0^t (|2as + P s^3/6| +
    max|theta|/tau) ds: at most 12 rad to a 24-node panel, at least 6
    panels.  On the fig07 and fig12 windows it agrees with an independent
    oracle (scipy's J_0, 32-node panels) within 1e-14 of the largest |psi|.

    radius is the disc radius L > 0 (ValueError otherwise); the default 2
    matches the disc of area 4*pi.  For late times (P*tau >~ 3) the glory
    ring migrates past radius 2 and a larger radius is needed for the ring
    physics to be inside the integration domain.  A budget beyond
    specfun's panel limit raises ConvergenceError.
    """
    if tau <= 0:
        raise ValueError("planar_psi requires tau > 0")
    if not 0 < radius < math.inf:
        raise ValueError("planar_psi requires a finite radius > 0")
    theta = np.asarray(theta, dtype=float)
    out = _planar_rows(theta.ravel(), tau, P, float(radius)).reshape(theta.shape)
    return complex(out) if out.ndim == 0 else out


def _planar_rows(theta, tau, P, L):
    # psi on a 1-D theta array, one gauss_segment call per block of rows, one segment per
    # panel; Phi on 4097 points (the phase's variation between them, plus the J_0 rate)
    # inverted at equal steps gives the edges
    a = 0.5 * (1.0 / tau - P)
    b = P / 24.0
    s = np.linspace(0.0, L, 4097)
    phi = np.abs(np.diff(s * s * (a + b * s * s))).cumsum()
    phi = np.concatenate([[0.0], phi]) + s * (float(np.max(np.abs(theta), initial=0.0)) / tau)
    n_pan = max(6, math.ceil(phi[-1] / 12.0))
    if n_pan > _MAX_PANELS:
        raise ConvergenceError(f"panel budget exceeded ({n_pan} > {_MAX_PANELS})")
    blocks = _row_slices(theta.size, 24 * n_pan)  # 24 nodes per gauss_segment panel
    if len(blocks) > 1:
        return np.concatenate([_planar_rows(theta[rows], tau, P, L) for rows in blocks])
    edges = np.interp(np.linspace(0.0, phi[-1], n_pan + 1), phi, s)

    def f(t):
        return t * np.exp(1j * (a * t * t + b * t ** 4)) * bessel_j0((theta / tau)[:, None, None] * t)

    I = gauss_segment(f, edges[:-1], edges[1:], 1).sum(axis=-1)
    pref = np.exp(1j * (P + theta * theta / (2.0 * tau))) / (1j * tau * math.sqrt(4.0 * math.pi))
    return pref * I


def focal_density_asymptotic(P, radius=DISC_RADIUS):
    """Large-P focal density of the planar model,

      (3P/8pi) [pi + 24/(P L^4) + sqrt(96 pi/(P L^4)) cos(P L^4/24 - 3pi/4)],

    approaching 3P/8 as P -> infinity.  (The finite-size cross term is
    rederived from the exact 1F1 asymptotics; its weight is twice, and its
    phase conjugate to, a commonly quoted form.)"""
    if P <= 0:
        raise ValueError("P must be > 0")
    L = float(radius)
    A = P * L ** 4 / 24.0
    bracket = (math.pi + 24.0 / (P * L ** 4)
               + math.sqrt(96.0 * math.pi / (P * L ** 4)) * math.cos(A - 0.75 * math.pi))
    return 3.0 * P / (8.0 * math.pi) * bracket


# ----------------------------------------------------------------------
# Pearcey focusing, 2D
# ----------------------------------------------------------------------

def _cusp_variables(theta, tau, P):
    # the Pearcey arguments x and beta of a theta array; specfun checks them
    # against its domain before any contour is sampled
    x = math.sqrt(6.0 / P) * (1.0 / tau - P)
    beta = math.sqrt(2.0) * (theta / tau) * (6.0 / P) ** 0.25
    return x, beta


def pearcey_focus_2d(theta, tau, P):
    """Cusp-branch wave function near focusing,

      psi~ = (1/(pi sqrt(2 i tau))) (6/P)^(1/4)
             exp[i(theta^2/2tau + P)] Pearcey(x, beta).

    This is the single branch tied to the cusp at theta = 0; it is the
    quantitatively reliable object (the mirror branch of the full
    symmetrized form carries an unreliable far-tail phase).

    theta may be a scalar (complex result) or an array of any shape
    (complex array of that shape), one `specfun.pearcey` call at the
    column's fixed x.  A theta whose x or beta is non-finite or beyond 400
    raises DomainError.
    """
    if tau <= 0 or P <= 0:
        raise ValueError("pearcey_focus_2d requires tau, P > 0")
    theta = np.asarray(theta, dtype=float)
    p = pearcey(*_cusp_variables(theta, tau, P))
    pref = (1.0 / (math.pi * cmath.sqrt(2.0j * tau))) * (6.0 / P) ** 0.25
    return _as_psi(pref * np.exp(1j * (theta * theta / (2.0 * tau) + P)) * p)


def focal_peak_2d(P):
    """|psi~(0, 1/P)|^2 = sqrt(6P) Gamma(1/4)^2 / (8 pi^2) ~ 0.4078 sqrt(P)."""
    return math.sqrt(6.0 * P) * math.gamma(0.25) ** 2 / (8.0 * math.pi ** 2)


def focal_tail_2d(theta):
    """Large-angle focal-time density 1/(pi (6 theta)^(2/3)), P-independent."""
    return 1.0 / (math.pi * (6.0 * theta) ** (2.0 / 3.0))


# ----------------------------------------------------------------------
# Pearcey focusing, 3D
# ----------------------------------------------------------------------

def pearcey_cusp_3d(theta, tau, P):
    """3D cusp wave function from the azimuthally integrated Pearcey
    derivative,

      psi = -(6/P)^(1/2) e^{i(P + theta^2/2tau)} / (4 sqrt(pi) tau) * S(x, beta),
      S(x, beta) = (4/pi) int_0^pi dP1/dy(x, beta cos phi) dphi,

    with the 2D cusp variables x, beta; S is the Bessoid integral, one
    `specfun.bessoid` call for the whole theta array.  theta may be a
    scalar (complex result) or an array of any shape (complex array of that
    shape).  At theta = 0, P*tau = 1 the density is exactly 3P/8.  A theta
    whose x or beta is non-finite or beyond 400 raises DomainError, before
    any sampling.
    """
    if tau <= 0 or P <= 0:
        raise ValueError("pearcey_cusp_3d requires tau, P > 0")
    theta = np.asarray(theta, dtype=float)
    s = bessoid(*_cusp_variables(theta, tau, P))
    pref = -math.sqrt(6.0 / P) / (4.0 * math.sqrt(math.pi) * tau)
    return _as_psi(pref * np.exp(1j * (P + theta * theta / (2.0 * tau))) * s)


def focal_peak_3d(P):
    """|psi(0, 1/P)|^2 = 3P/8 for the 3D cusp."""
    return 3.0 * P / 8.0


# ----------------------------------------------------------------------
# Rainbow: 2D Airy
# ----------------------------------------------------------------------

def _rainbow_geometry(tau, P):
    # (tbar, theta_r, c): the rainbow's initial and final angles and the
    # Airy scale c = [2/(P sin tbar)]^(1/3) of eta = c (theta - theta_r)/tau
    s = P * tau
    tbar = math.acos(1.0 / s)
    return tbar, rainbow_angle(s), (2.0 / (P * math.sin(tbar))) ** (1.0 / 3.0)


def airy_fringe_width(tau, P):
    """Angular distance from theta_r to the first Airy zero."""
    _, _, c = _rainbow_geometry(tau, P)
    return 2.3381074104597670 * tau / c


def _as_psi(psi):
    # a 0-d result is the scalar call's complex
    return complex(psi) if psi.ndim == 0 else psi


def airy_rainbow_2d(theta, tau, P):
    """Rainbow-branch wave function

      psi_r = (1/sqrt(i tau)) [2/(P sin tb)]^(1/3)
              exp[i(2 + (theta - tb)^2)/(2 tau)] Ai(eta),

    with eta = [2/(P sin tb)]^(1/3) (theta - theta_r)/tau: oscillatory on
    the lit side theta < theta_r, decaying beyond it.  theta may be a
    scalar (complex result) or an array of any shape (complex array of
    that shape, one airy call); an eta above 20, where |Ai| < 1.7e-27, is
    taken at 20, and one below airy's -1000 raises DomainError.
    """
    s = P * tau
    if s <= 1.0:
        raise ValueError("airy_rainbow_2d requires P*tau > 1")
    theta = np.asarray(theta, dtype=float)
    tbar, thr, c = _rainbow_geometry(tau, P)
    eta = c * (theta - thr) / tau
    ai, _ = airy(np.minimum(eta, 20.0))
    pref = (1.0 / cmath.sqrt(1j * tau)) * c
    return _as_psi(pref * np.exp(1j * (2.0 + (theta - tbar) ** 2) / (2.0 * tau)) * ai)


def airy_rainbow_2d_full(theta, tau, P):
    """Two-rainbow superposition psi_r(theta) + psi_r(2 pi - theta), on a
    scalar or an array theta like airy_rainbow_2d."""
    theta = np.asarray(theta, dtype=float)
    return airy_rainbow_2d(theta, tau, P) + airy_rainbow_2d(2.0 * math.pi - theta, tau, P)


# ----------------------------------------------------------------------
# Rainbow: uniform Airy, 3D (full-cosine phase)
# ----------------------------------------------------------------------

def _fullcos_pair(theta, tau, P):
    """Roots of t - s sin t = -theta flanking tbar (the pi-azimuth pair),
    for an array of theta."""
    s = P * tau
    tbar = math.acos(1.0 / s)
    f = lambda t: t - s * np.sin(t) + theta
    t2 = _bisect_rows(f, 1e-14, tbar)
    t3 = _bisect_rows(f, tbar, math.pi)
    return t2, t3, tbar


def _phi_fullcos(t, theta, tau, P):
    return (theta + t) ** 2 / (2.0 * tau) + P * np.cos(t)


def _phi_fullcos_diff(t2, t3, theta, tau, P):
    """Phi(t3) - Phi(t2) as the path integral of Phi', cancellation-free;
    one gauss_segment call for the whole theta array."""
    theta = np.asarray(theta)[..., None]

    def dphi(t):
        return (theta + t) / tau - P * np.sin(t)
    return gauss_segment(dphi, t2, t3, 8)


def _ua_coefficients(theta, tau, P):
    t2, t3, tbar = _fullcos_pair(theta, tau, P)
    dF = _phi_fullcos_diff(t2, t3, theta, tau, P)  # Phi3 - Phi2 (negative)
    A = _phi_fullcos(t2, theta, tau, P) + 0.5 * dF
    xi = -np.abs(0.75 * dF) ** (2.0 / 3.0)
    c2 = np.sqrt(t2 / np.abs(math.cos(tbar) - np.cos(t2)))
    c3 = np.sqrt(t3 / np.abs(math.cos(tbar) - np.cos(t3)))
    root = math.sqrt(2.0 / P) * math.pi
    g1 = root * np.abs(xi) ** 0.25 * (c2 + c3)
    g2 = root * np.abs(xi) ** -0.25 * (c3 - c2)
    return A, xi, g1, g2


_UA_MERGE_BAND = 1e-7  # relative distance to theta_r where the limit form takes over


def _ua_limit_coefficients(tau, P):
    """(G1, G2): the theta -> theta_r limits of (g1, g2).

    G1 has the closed form 2 pi [2/(P sin tb)]^(1/3) sqrt(tb); G2 tends to
    a finite constant (it vanishes only as P -> infinity) and is kept so
    the composite and the beyond-fold form join smoothly.  G2 is frozen
    from the composite just inside the fold, where its evaluation is still
    cancellation-free.
    """
    tbar, thr, c = _rainbow_geometry(tau, P)
    G1 = 2.0 * math.pi * c * math.sqrt(tbar)
    _, _, _, g2 = _ua_coefficients(thr * (1.0 - 1e-6), tau, P)
    return G1, float(g2)


def _ua_prefactor(theta, tau):
    return 2.0 * np.sqrt(-1j * math.pi * tau / (2.0 * theta)) / (4j * tau * math.pi ** 1.5)


def _ua_limit_form(theta, tau, P):
    # the beyond-fold branch of uniform_airy_3d on a theta array: limit
    # coefficients (G1, G2) on the rainbow Airy variable eta, usable in a
    # neighborhood of theta_r on either side
    tbar, thr, c = _rainbow_geometry(tau, P)
    G1, G2 = _ua_limit_coefficients(tau, P)
    eta = c * (theta - thr) / tau
    A = _phi_fullcos(tbar, theta, tau, P)
    ai, aip = airy(np.minimum(eta, 20.0))
    return _ua_prefactor(theta, tau) * np.exp(1j * A) * (G1 * ai - 1j * G2 * aip)


def uniform_airy_3d(theta, tau, P):
    """Uniform Airy rainbow wave function on the sphere.

    Inside the fold (theta < theta_r) the composite
      psi = pref * e^{iA} [g1 Ai(xi) - i g2 Ai'(xi)]
    uses the full-cosine stationary pair; at and beyond the fold the limit
    coefficients (G1, G2) ride the rainbow Airy variable eta.  The
    prefactor is 2 sqrt(-i pi tau / 2 theta) / (4 i tau pi^(3/2)); the
    factor 2 restores the azimuthal stationary-phase weight.  Diverges as
    1/sqrt(theta) toward the pole.

    theta may be a scalar (complex result) or an array of any shape
    (complex array of that shape): the composite rows and the limit-form
    rows are chosen by mask and evaluated with one airy call each.  Any
    theta outside (0, pi] raises ValueError.
    """
    s = P * tau
    if s <= 1.0:
        raise ValueError("uniform_airy_3d requires P*tau > 1")
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    if not np.all((flat > 0.0) & (flat <= math.pi)):
        raise ValueError("uniform_airy_3d requires 0 < theta <= pi")
    _, thr, _ = _rainbow_geometry(tau, P)
    out = np.empty(flat.shape, dtype=complex)
    limit = flat >= thr * (1.0 - _UA_MERGE_BAND)
    if limit.any():
        out[limit] = _ua_limit_form(flat[limit], tau, P)
    inner = flat[~limit]
    if inner.size:
        A, xi, g1, g2 = _ua_coefficients(inner, tau, P)
        ai, aip = airy(np.minimum(xi, 20.0))
        out[~limit] = _ua_prefactor(inner, tau) * np.exp(1j * A) * (g1 * ai - 1j * g2 * aip)
    return _as_psi(out.reshape(theta.shape))


_UA_NORM_GRID = 4000  # midpoint-rule nodes of uniform_airy_norm on (0, pi]


def uniform_airy_norm(tau, P):
    """2 pi int |Psi_UA|^2 sin(theta) dtheta over (0, pi]."""
    grid = (np.arange(_UA_NORM_GRID) + 0.5) * (math.pi / _UA_NORM_GRID)
    vals = np.abs(uniform_airy_3d(grid, tau, P)) ** 2
    return float(2.0 * math.pi * np.sum(vals * np.sin(grid)) * (math.pi / _UA_NORM_GRID))


# ----------------------------------------------------------------------
# Glory: uniform Bessel and Ford-Wheeler (quartic phase)
# ----------------------------------------------------------------------

def glory_angle_planar(tau, P):
    """Quartic-model glory feed angle theta_g = sqrt(6 (P tau - 1)/(P tau))."""
    s = P * tau
    if s <= 1.0:
        raise ValueError("glory exists only for P*tau > 1")
    return math.sqrt(6.0 * (s - 1.0) / s)


def _quartic_phase(t, theta, tau, P, azim_sign):
    # azim_sign = -1 on the phi0 = 0 branch, +1 on phi0 = pi
    return P * t ** 4 / 24.0 + 0.5 * (1.0 / tau - P) * t * t + azim_sign * theta * t / tau


def _quartic_glory_pair(theta, tau, P):
    """Stationary points flanking the quartic glory angle, for a scalar or
    an array theta >= 0; at theta = 0 both are the glory angle.  Divided by
    P/6, both stationary-point equations read t^3 - 3 r^2 t -+ 6 theta/s = 0
    with r = theta_g/sqrt(3), and Viete's trigonometric form gives the roots
    2r cos(alpha/3) (phi0 = 0) and 2r cos((pi - alpha)/3) (phi0 = pi),
    alpha = arccos(3 theta/(s r^3)).  An arccos argument above 1 puts theta
    past the quartic rainbow, where the pair is gone: ValueError."""
    tg = glory_angle_planar(tau, P)
    r = tg / math.sqrt(3.0)
    arg = 3.0 * np.asarray(theta, dtype=float) / (P * tau * r ** 3)
    if np.any(arg > 1.0):
        raise ValueError("theta beyond the quartic rainbow; glory pair is gone")
    alpha = np.arccos(arg)
    return 2.0 * r * np.cos(alpha / 3.0), 2.0 * r * np.cos((math.pi - alpha) / 3.0), tg


def uniform_bessel_glory(theta, tau, P):
    """Uniform Bessel glory wave function (quartic planar phase),

      psi = e^{i(P + theta^2/2tau)}/(4 i pi^(3/2) tau)
            * 2 pi sqrt(2 pi tau) e^{i(a - chi)} [p+ J0(b) - i p- J1(b)],

    built from the stationary pair flanking the glory angle.  Valid for
    small theta; p+- diverge as theta approaches the quartic rainbow.
    theta may be a scalar (complex result) or an array of any shape
    (complex array of that shape, one bessel_j0 and one bessel_j1 call);
    a negative theta, or one beyond the quartic rainbow, anywhere in it
    raises ValueError.
    """
    s = P * tau
    if s <= 1.0:
        raise ValueError("uniform_bessel_glory requires P*tau > 1")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise ValueError("theta must be >= 0")
    t01, t02, tg = _quartic_glory_pair(theta, tau, P)
    F1 = _quartic_phase(t01, theta, tau, P, -1.0)
    F2 = _quartic_phase(t02, theta, tau, P, +1.0)
    a = 0.5 * (F2 + F1)
    b = 0.5 * (F2 - F1)
    D1 = (1.0 - s) + 0.5 * s * t01 * t01
    D2 = (1.0 - s) + 0.5 * s * t02 * t02
    chi = np.where(D1 > 0, -0.25 * math.pi, 0.25 * math.pi)
    axis = theta < 1e-12
    # axis rows take their limits below; dividing them by 1 keeps base finite
    base = 0.5 * np.sqrt(np.abs(b) * tau / np.where(axis, 1.0, theta))
    pp = np.where(axis, tg / np.sqrt(np.abs(D1)),
                  base * (np.sqrt(t01 / np.abs(D1)) + np.sqrt(t02 / np.abs(D2))))
    pm = np.where(axis, 0.0, base * (np.sqrt(t01 / np.abs(D1)) - np.sqrt(t02 / np.abs(D2))))
    b = np.where(axis, 0.0, b)
    I = 2.0 * math.pi * math.sqrt(2.0 * math.pi * tau) * np.exp(1j * (a - chi)) \
        * (pp * bessel_j0(b) - 1j * pm * bessel_j1(b))
    pref = np.exp(1j * (P + theta * theta / (2.0 * tau))) / (4j * math.pi ** 1.5 * tau)
    return _as_psi(pref * I)


def ford_wheeler_glory(theta, tau, P):
    """Glory limit form theta_g J0(theta_g theta / tau)/sqrt(D) with the
    quartic glory angle; agrees with uniform_bessel_glory as theta -> 0.
    theta may be a scalar (complex result) or an array of any shape
    (complex array of that shape, one bessel_j0 call)."""
    s = P * tau
    if s <= 1.0:
        raise ValueError("ford_wheeler_glory requires P*tau > 1")
    theta = np.asarray(theta, dtype=float)
    tg = glory_angle_planar(tau, P)
    D = 1.0 - s + 0.5 * s * tg * tg  # = 2 (s - 1) > 0
    a = _quartic_phase(tg, 0.0, tau, P, 1.0)  # the quartic phase at the glory angle
    amp = tg * bessel_j0(tg * theta / tau) / math.sqrt(D)
    phase = np.exp(1j * (P + theta * theta / (2.0 * tau) + a + 0.25 * math.pi))  # a - chi
    return _as_psi(phase * amp / (1j * math.sqrt(2.0 * tau)))


# ----------------------------------------------------------------------
# Window annotations
# ----------------------------------------------------------------------

def annotate_validity(method, theta, tau, P):
    """Coarse window annotation for each approximation: "inside", "edge"
    or "outside"."""
    s = P * tau
    if method == "pearcey":
        if 0.7 <= s <= 1.25:
            return "inside"
        return "edge" if s <= 1.45 else "outside"
    if method == "pearcey3d":
        if 1.0 <= s <= 1.4:
            return "inside"
        return "edge" if 0.9 <= s <= 1.6 else "outside"
    if method == "airy":
        if s <= 1.0:
            return "outside"
        thr = rainbow_angle(s)
        w = airy_fringe_width(tau, P)
        d = abs(theta - thr)
        if d <= 2.0 * w:
            return "inside"
        return "edge" if d <= 4.0 * w else "outside"
    if method == "uniform-airy":
        if s <= 1.0 or theta <= 0:
            return "outside"
        return "inside" if theta >= 0.5 else "edge"
    if method == "uniform-bessel":
        if s <= 1.0:
            return "outside"
        thr_q = (2.0 / 3.0) * (s - 1.0) * math.sqrt(2.0 * (s - 1.0) / s)
        if theta < 0.6 * thr_q:
            return "inside"
        return "edge" if theta < 0.85 * thr_q else "outside"
    if method == "ford-wheeler":
        if s <= 1.0:
            return "outside"
        if s <= 1.5 and theta * glory_angle_planar(tau, P) / tau < 6.0:
            return "inside"
        return "edge"
    raise ValueError(f"unknown method {method!r}")
