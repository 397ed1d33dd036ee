"""Semiclassical approximations against the planar quadrature oracle,
exact quantum densities, and closed-form focal/rainbow values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickedrotor import quantum2d as q2
from kickedrotor import quantum3d as q3
from kickedrotor import semiclassical as sc
from kickedrotor import specfun as sf
from kickedrotor.classical import _bisect_rows, rainbow_angle
from kickedrotor.specfun import ConvergenceError, DomainError
from oracles import (bessoid_oracle, bisect_scalar, cusp_3d_series, focal_density_closed_form,
                     focal_sum_2d, planar_psi_oracle, stationary_points_3d)


def exact_density_2d(P, tau, thetas):
    p = q2.free_evolve(q2.apply_kick(q2.ground_packet(), P), tau)
    return q2.density(p, np.asarray(thetas, dtype=float))


def exact_density_3d(P, tau, thetas):
    p = q3.free_evolve_3d(q3.dipole_kick_ground(P), tau)
    return q3.density_3d(p, np.asarray(thetas, dtype=float))


class TestPlanarPsi:
    def test_focal_point_closed_form(self):
        # the disc-model focus admits the exact 1F1 closed form
        for P in (50.0, 200.0):
            quadrature = abs(sc.planar_psi(0.0, 1.0 / P, P)) ** 2
            closed = focal_density_closed_form(P)
            assert quadrature == pytest.approx(closed, rel=1e-6)

    def test_focal_point_asymptotic_bracket(self):
        for P in (50.0, 200.0):
            quadrature = abs(sc.planar_psi(0.0, 1.0 / P, P)) ** 2
            assert quadrature == pytest.approx(sc.focal_density_asymptotic(P), rel=0.01)

    def test_tracks_exact_3d_at_focus(self):
        # early times: the planar model rides the exact curve; the focal
        # spike itself carries the finite-disc ringing of the closed form
        P = 50.0
        tau = 1.0 / P
        grid = np.linspace(0.04, 0.3, 40)
        planar = np.abs(sc.planar_psi(grid, tau, P)) ** 2
        exact = exact_density_3d(P, tau, grid)
        assert np.max(np.abs(planar - exact)) < 0.06 * exact_density_3d(P, tau, [0.0])[0]

    def test_fails_at_late_times(self):
        # P tau = 4: the planar model deviates from exact 3D by >10%
        P = 50.0
        tau = 4.0 / P
        grid = np.linspace(0.6, 1.4, 9)
        planar = np.abs(sc.planar_psi(grid, tau, P)) ** 2
        exact = exact_density_3d(P, tau, grid)
        assert np.max(np.abs(planar - exact) / exact) > 0.10

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            sc.planar_psi(0.1, 0.0, 50.0)
        with pytest.raises(ValueError):
            sc.planar_psi(np.linspace(0.0, 0.5, 5), -0.02, 50.0)

    @pytest.mark.parametrize("P,s,radius,window", [
        (50.0, 1.0, 2.0, (0.0, 0.6)),
        (50.0, 1.2, 2.0, (0.0, 0.6)),
        (50.0, 2.0, 2.0, (0.0, 1.0)),
        (50.0, 4.0, 2.0, (0.0, 1.5)),
        (75.0, 4.0, math.pi, (0.0, 0.8)),
    ])
    def test_against_independent_oracle(self, P, s, radius, window):
        # fig07 and fig12 parameters; scipy J_0 and 32-node panels; the
        # measured gap is at most 7.6e-15 of the largest |psi|
        tau = s / P
        grid = np.linspace(*window, 41)
        mine = sc.planar_psi(grid, tau, P, radius=radius)
        ref = np.array([planar_psi_oracle(t, tau, P, radius) for t in grid])
        assert np.max(np.abs(mine - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_fig12_panels_split_the_phase_budget(self, monkeypatch):
        # each row block's panels carry at most 12 rad of its phase budget
        # Phi(t) = int_0^t (|g'(s)| + max|theta|/tau) ds, g = a s^2 + b s^4,
        # here in closed form (g falls to its minimum at s0, then rises); a
        # uniform rule sized by the steepest slope would take 151 panels
        P, tau, L = 75.0, 4.0 / 75.0, math.pi
        a, b = 0.5 * (1.0 / tau - P), P / 24.0
        s0 = math.sqrt(-a / (2.0 * b))
        g = lambda t: a * t * t + b * t ** 4
        variation = lambda t: np.where(t <= s0, -g(t), g(t) - 2.0 * g(s0))
        grid = np.linspace(0.0, 0.8, 400)
        blocks, panels = [], []
        row_slices, segment = sc._row_slices, sc.gauss_segment

        def spy_rows(n_rows, width):
            blocks.append(row_slices(n_rows, width))
            return blocks[-1]

        def spy_segment(f, z0, z1, n_panels):
            ends = np.linspace(np.atleast_1d(z0), np.atleast_1d(z1), n_panels + 1, axis=-1)
            panels.append((ends[:, :-1].ravel(), ends[:, 1:].ravel()))
            return segment(f, z0, z1, n_panels)

        monkeypatch.setattr(sc, "_row_slices", spy_rows)
        monkeypatch.setattr(sc, "gauss_segment", spy_segment)
        sc.planar_psi(grid, tau, P, radius=L)
        assert len(panels) == len(blocks[0])
        for rows, (lo, hi) in zip(blocks[0], panels):
            assert lo.size <= 20 and lo[0] == 0.0 and hi[-1] == L
            assert np.array_equal(lo[1:], hi[:-1])
            span = variation(hi) - variation(lo) + (hi - lo) * grid[rows].max() / tau
            assert np.all(span <= 12.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_requires_finite_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            sc.planar_psi(np.linspace(0.0, 0.5, 5), 2.0 / 50.0, 50.0, radius=radius)

    def test_array_shape_and_scalar_type(self):
        tau, P = 1.2 / 50.0, 50.0
        grid = np.linspace(0.0, 0.6, 12).reshape(3, 4)
        vals = sc.planar_psi(grid, tau, P)
        assert vals.shape == (3, 4) and vals.dtype == complex
        assert type(sc.planar_psi(0.3, tau, P)) is complex
        empty = sc.planar_psi(np.array([]), tau, P)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("P,s,radius,window", [
        (50.0, 1.0, 2.0, (0.0, 0.6)),
        (75.0, 4.0, math.pi, (0.0, 0.8)),
    ])
    def test_array_matches_scalar_calls(self, P, s, radius, window):
        # the fig12 window goes in several row blocks of the array call
        tau = s / P
        grid = np.linspace(*window, 60)
        vals = sc.planar_psi(grid, tau, P, radius=radius)
        each = np.array([sc.planar_psi(t, tau, P, radius=radius) for t in grid])
        assert np.max(np.abs(vals - each)) < 1e-12 * np.max(np.abs(each))


class TestPearceyFocus2D:
    def test_peak_value_closed_form(self):
        for P in (50.0, 85.0):
            dens = abs(sc.pearcey_focus_2d(0.0, 1.0 / P, P)) ** 2
            assert dens == pytest.approx(sc.focal_peak_2d(P), rel=1e-12)
            assert dens == pytest.approx(0.4078 * math.sqrt(P), rel=1e-4)

    def test_focal_tail_p_independent(self):
        for theta in (0.5, 1.0):
            ref = sc.focal_tail_2d(theta)
            d50 = abs(sc.pearcey_focus_2d(theta, 1 / 50.0, 50.0)) ** 2
            d100 = abs(sc.pearcey_focus_2d(theta, 1 / 100.0, 100.0)) ** 2
            assert d50 == pytest.approx(ref, rel=0.10)
            assert d100 == pytest.approx(d50, rel=0.05)

    def test_single_sum_cross_path(self):
        # at P tau = 1 the Pearcey route and the focal single sum agree
        P = 85.0
        for theta in (0.0, 0.1, 0.25):
            a = sc.pearcey_focus_2d(theta, 1.0 / P, P)
            b = focal_sum_2d(theta, P)
            assert abs(a - b) < 1e-10

    def test_matches_exact_through_cusp_window(self):
        # branch density vs exact on [0, 0.4], L2-relative
        P = 50.0
        grid = np.linspace(0.0, 0.4, 60)
        for fac, tol in ((1.0, 0.05), (1.1, 0.05), (1.2, 0.10)):
            tau = fac / P
            mine = np.abs(sc.pearcey_focus_2d(grid, tau, P)) ** 2
            exact = exact_density_2d(P, tau, grid)
            l2 = math.sqrt(np.sum((mine - exact) ** 2) / np.sum(exact ** 2))
            assert l2 < tol

    def test_full_form_reduces_to_branch_near_cusp(self):
        # the mirror term psi~(2 pi - theta) is a small correction near theta = 0
        P = 50.0
        a = abs(sc.pearcey_focus_2d(0.05, 1 / P, P)
                + sc.pearcey_focus_2d(2.0 * math.pi - 0.05, 1 / P, P)) ** 2
        b = abs(sc.pearcey_focus_2d(0.05, 1 / P, P)) ** 2
        assert a == pytest.approx(b, rel=0.35)


class TestPearceyCusp3D:
    def test_focal_value_exact(self):
        for P in (50.0, 75.0):
            dens = abs(sc.pearcey_cusp_3d(0.0, 1.0 / P, P)) ** 2
            assert dens == pytest.approx(sc.focal_peak_3d(P), rel=1e-12)

    @pytest.mark.parametrize("fac", [1.0, 1.2, 1.4])
    def test_against_series_oracle(self, fac):
        P = 50.0
        tau = fac / P
        for theta in (0.0, 0.12, 0.3):
            ref = cusp_3d_series(theta, tau, P)
            assert abs(sc.pearcey_cusp_3d(theta, tau, P) - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("fac,tol", [(1.0, 0.05), (1.2, 0.08), (1.4, 0.18)])
    def test_matches_exact_3d(self, fac, tol):
        # the cusp sum equals its parent (extended-disc quartic) integral
        # to ~1%; the residual against exact 3D below is the flat-model
        # error itself, growing away from the focusing instant
        P = 50.0
        tau = fac / P
        grid = np.linspace(0.0, 0.3, 40)
        mine = np.abs(sc.pearcey_cusp_3d(grid, tau, P)) ** 2
        exact = exact_density_3d(P, tau, grid)
        l2 = math.sqrt(np.sum((mine - exact) ** 2) / np.sum(exact ** 2))
        assert l2 < tol

    def test_series_equals_extended_disc_integral(self):
        P = 50.0
        for fac in (1.2, 1.4):
            tau = fac / P
            grid = np.linspace(0.0, 0.3, 16)
            mine = np.abs(sc.pearcey_cusp_3d(grid, tau, P)) ** 2
            parent = np.abs(sc.planar_psi(grid, tau, P, radius=math.pi)) ** 2
            l2 = math.sqrt(np.sum((mine - parent) ** 2) / np.sum(parent ** 2))
            assert l2 < 0.02

    def test_central_peak_persists(self):
        # unlike 2D, the 3D density keeps a local maximum at theta = 0
        P = 50.0
        for fac in (1.1, 1.2, 1.4):
            tau = fac / P
            d0, d1, d2 = np.abs(sc.pearcey_cusp_3d(np.array([0.0, 0.02, 0.05]), tau, P)) ** 2
            assert d0 > d1 > d2


# the fig08 (2D) and fig09 (3D) cookbook columns: (dim, s, theta window),
# P = 50, 400 points each
CUSP_COLUMNS = [(2, s, 0.4) for s in (1.0, 1.1, 1.2, 1.4)] + [(3, s, 0.3) for s in (1.0, 1.1, 1.2, 1.4)]
CUSP_FORMS = {2: sc.pearcey_focus_2d, 3: sc.pearcey_cusp_3d}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("x", [0.0, -3.0])
def test_cusp_forms_approach_exact_evolution_as_inverse_root_P(dim, x):
    # the cusp forms are the leading terms of a large-P expansion (Berry &
    # Upstill, Prog. Opt. 18, 257 (1980)): at fixed Pearcey x and beta in
    # [0, 6], their largest gap to exact evolution, relative to the largest
    # exact density, falls as P^(-1/2), 2x per 4x in P (1.99 to 2.09 here)
    form, exact = (sc.pearcey_focus_2d, exact_density_2d) if dim == 2 else (sc.pearcey_cusp_3d, exact_density_3d)
    gaps = []
    for P in (200.0, 800.0, 3200.0):
        tau = 1.0 / (P + x * math.sqrt(P / 6.0))
        theta = np.linspace(0.0, 6.0, 13) * tau * (P / 6.0) ** 0.25 / math.sqrt(2.0)
        ref = exact(P, tau, theta)
        gaps.append(np.max(np.abs(np.abs(form(theta, tau, P)) ** 2 - ref)) / np.max(ref))
    assert all(abs(g / g4 - 2.0) < 0.25 for g, g4 in zip(gaps, gaps[1:])), gaps


def cusp_prefactor_3d(theta, tau, P):
    # psi / S of pearcey_cusp_3d
    return -math.sqrt(6.0 / P) / (4.0 * math.sqrt(math.pi) * tau) * np.exp(1j * (P + theta ** 2 / (2.0 * tau)))


class TestCuspColumns:
    @pytest.mark.parametrize("dim,s,width", CUSP_COLUMNS)
    def test_cookbook_column_matches_scalar_calls(self, dim, s, width, proxies):
        # every 10th point; the column goes through the proxy at N = 64,
        # its trailing 8 coefficients within 1e-13 of the largest
        P, tau = 50.0, s / 50.0
        form = CUSP_FORMS[dim]
        grid = np.linspace(0.0, width, 400)
        col = form(grid, tau, P)
        c = proxies[0]
        assert c.size == 65
        assert np.max(np.abs(c[-8:])) <= 1e-13 * np.max(np.abs(c))
        each = np.array([form(t, tau, P) for t in grid[::10]])
        assert all(p is None for p in proxies[1:])
        assert np.max(np.abs(col[::10] - each)) < 1e-13 * np.max(np.abs(col))

    @pytest.mark.parametrize("n", [400, 5])
    @pytest.mark.parametrize("dim,s,width", CUSP_COLUMNS)
    def test_plateau_rule_keeps_cusp_columns(self, dim, s, width, n, proxies, monkeypatch):
        # the cookbook columns (400 points) and the 5-point columns of the
        # benchmark's cusp workload (spacing width/5, offset half a step)
        # need no plateau rule: each proxy is accepted by the chop rule
        # alone at N = 64 (the 5-point 2D columns take the direct path),
        # and the column is within 1e-14 of its max of the direct contour
        # path (3.4e-15 at most; in 3D the direct path also takes its own
        # midpoint rule in phi)
        P, tau = 50.0, s / 50.0
        form = CUSP_FORMS[dim]
        grid = np.linspace(0.0, width, 400) if n == 400 else (np.arange(5) + 0.5) * (width / 5)
        col = form(grid, tau, P)
        c, = proxies
        if dim == 3 or n == 400:
            assert c.size == 65 and np.max(np.abs(c[-8:])) <= 1e-13 * np.max(np.abs(c))
        else:
            assert c is None
        monkeypatch.setattr(sf, "_p1_chebyshev", lambda *args: None)
        assert np.max(np.abs(col - form(grid, tau, P))) < 1e-14 * np.max(np.abs(col))

    def test_dp1_plateau_proxy_matches_direct(self, proxies, monkeypatch):
        # x = B = 60 (P = 6, tau = 1/66, beta = 60), where the dP1/dy proxy
        # once stalled on the contour's noise plateau at 3.4e-12 of the
        # largest coefficient: the trailing coefficients now fall to 4.5e-14
        # of it by N = 64, accepted by the chop rule alone, and the proxy is
        # 3.8e-15 of the direct value from it
        P, tau = 6.0, 1.0 / 66.0
        theta = 60.0 / (math.sqrt(2.0) * 66.0)
        psi = sc.pearcey_cusp_3d(theta, tau, P)
        c, = proxies
        assert c.size == 65 and np.max(np.abs(c[-8:])) <= 1e-13 * np.max(np.abs(c))
        monkeypatch.setattr(sf, "_p1_chebyshev", lambda *args: None)
        direct = sc.pearcey_cusp_3d(theta, tau, P)
        assert abs(psi - direct) < 1e-11 * abs(direct)

    @pytest.mark.parametrize("dim,n,width", [(2, 5, 0.3), (2, 20, 0.3), (3, 2, 0.25)])
    def test_short_column_takes_direct_path(self, dim, n, width, proxies):
        # 2 contour rows a point in 2D, 33 midpoint phi nodes a point in 3D
        # at B = 8.7: the proxy would not be cheaper (3D tries N = 32 first,
        # which the chop rule rejects there)
        P, tau = 50.0, 1.2 / 50.0
        form = CUSP_FORMS[dim]
        grid = np.linspace(0.02, width, n)
        col = form(grid, tau, P)
        each = np.array([form(t, tau, P) for t in grid])
        assert all(p is None for p in proxies)
        assert np.max(np.abs(col - each)) < 1e-13 * np.max(np.abs(col))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scalar_zero_d_empty_and_shape(self, dim):
        P, tau = 50.0, 1.1 / 50.0
        form = CUSP_FORMS[dim]
        assert type(form(0.1, tau, P)) is complex
        assert type(form(np.array(0.1), tau, P)) is complex
        assert form(np.array(0.1), tau, P) == form(0.1, tau, P)
        empty = form(np.array([]), tau, P)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        grid = np.linspace(0.0, 0.3, 12)
        vals = form(grid.reshape(3, 4), tau, P)
        assert vals.shape == (3, 4) and vals.dtype == complex
        assert np.array_equal(vals.ravel(), form(grid, tau, P))

    def test_focal_values_inside_a_column(self):
        # theta = 0 is the first point of a 400-point column at P tau = 1
        P = 50.0
        d2 = np.abs(sc.pearcey_focus_2d(np.linspace(0.0, 0.4, 400), 1.0 / P, P)) ** 2
        d3 = np.abs(sc.pearcey_cusp_3d(np.linspace(0.0, 0.3, 400), 1.0 / P, P)) ** 2
        assert d2[0] == pytest.approx(sc.focal_peak_2d(P), rel=1e-12)
        assert d3[0] == pytest.approx(sc.focal_peak_3d(P), rel=1e-12)

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(dim=st.sampled_from([2, 3]), s=st.floats(1.0, 1.4), width=st.floats(0.05, 0.4),
           n=st.integers(2, 120), cut=st.floats(0.0, 1.0))
    def test_split_column_moves_no_value(self, dim, s, width, n, cut):
        # each half sizes its own proxy (or takes the direct path)
        P, tau = 50.0, s / 50.0
        form = CUSP_FORMS[dim]
        grid = np.linspace(0.0, width, n)
        k = 1 + int(cut * (n - 2))
        whole = form(grid, tau, P)
        halves = np.concatenate([form(grid[:k], tau, P), form(grid[k:], tau, P)])
        assert np.max(np.abs(whole - halves)) <= 1e-13 * np.max(np.abs(whole))

    def test_wide_3d_column_near_beta_100(self, proxies):
        # B = 100.6: the proxy takes N = 512 and stays finite
        P, tau = 50.0, 1.2 / 50.0
        grid = np.linspace(0.0, 2.9, 200)
        col = sc.pearcey_cusp_3d(grid, tau, P)
        assert proxies[0].size == 513
        assert np.all(np.isfinite(col))
        idx = [0, 77, 199]
        each = np.array([sc.pearcey_cusp_3d(grid[i], tau, P) for i in idx])
        assert np.max(np.abs(col[idx] - each)) < 1e-13 * np.max(np.abs(col))

    @pytest.mark.parametrize("s", [1.0, 1.1, 1.2, 1.4])
    def test_fig09_column_against_bessoid_oracle(self, s):
        # every 10th point; the oracle's own cancellation error reaches
        # ~1e-13 of the column max at s = 1.4
        P, tau = 50.0, s / 50.0
        grid = np.linspace(0.0, 0.3, 400)
        col = sc.pearcey_cusp_3d(grid, tau, P)
        x = math.sqrt(6.0 / P) * (1.0 / tau - P)
        beta = math.sqrt(2.0) * (grid[::10] / tau) * (6.0 / P) ** 0.25
        ref = cusp_prefactor_3d(grid[::10], tau, P) * bessoid_oracle(x, beta)
        assert np.max(np.abs(col[::10] - ref)) < 3e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 50.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_out_of_domain_theta_raises(self, dim, bad):
        # at P = 50, tau = 1/50, theta = 50 gives beta = 2,080 > 400
        form = CUSP_FORMS[dim]
        with pytest.raises(DomainError):
            form(bad, 1.0 / 50.0, 50.0)
        with pytest.raises(DomainError):
            form(np.array([0.0, 0.1, bad]), 1.0 / 50.0, 50.0)


def test_bessoid_oracle_against_series():
    # two independent oracles of the 3D cusp
    P = 50.0
    for s, theta in ((1.0, 0.12), (1.2, 0.3), (1.4, 0.05)):
        tau = s / P
        x = math.sqrt(6.0 / P) * (1.0 / tau - P)
        beta = math.sqrt(2.0) * (theta / tau) * (6.0 / P) ** 0.25
        ref = cusp_3d_series(theta, tau, P)
        mine = cusp_prefactor_3d(theta, tau, P) * bessoid_oracle(x, beta)[0]
        assert abs(mine - ref) < 1e-13 * abs(ref)
    # beyond moderate x, beta the ray's terms cancel past 1e4: refused
    with pytest.raises(ConvergenceError):
        bessoid_oracle(-5.0, 20.0)


class TestAiryRainbow2D:
    def test_peak_near_rainbow_angle(self):
        P = 75.0
        tau = 4.0 / P
        thr = rainbow_angle(4.0)
        grid = np.linspace(thr - 1.0, thr + 0.4, 400)
        mine = np.abs(sc.airy_rainbow_2d_full(grid, tau, P)) ** 2
        exact = exact_density_2d(P, tau, grid)
        w = sc.airy_fringe_width(tau, P)
        assert abs(grid[np.argmax(exact)] - thr) < w
        assert abs(grid[np.argmax(mine)] - grid[np.argmax(exact)]) < 0.5 * w

    def test_brightest_fringe_at_airy_maximum(self):
        # the branch peaks where eta = -1.0188 (first max of Ai^2)
        P, s = 75.0, 4.0
        tau = s / P
        thr = rainbow_angle(s)
        tbar = math.acos(1.0 / s)
        c = (2.0 / (P * math.sin(tbar))) ** (1.0 / 3.0)
        predicted = thr - 1.0187929 * tau / c
        grid = np.linspace(thr - 0.5, thr, 800)
        mine = np.abs(sc.airy_rainbow_2d(grid, tau, P)) ** 2
        assert grid[np.argmax(mine)] == pytest.approx(predicted, abs=2e-3)

    def test_separated_then_interfering(self):
        # P tau = 4: both rainbows well separated, the mirror term is
        # negligible at the rainbow; P tau = 4.7: strong interference
        P = 75.0
        thr4 = rainbow_angle(4.0)
        one = abs(sc.airy_rainbow_2d(thr4, 4.0 / P, P)) ** 2
        both = abs(sc.airy_rainbow_2d_full(thr4, 4.0 / P, P)) ** 2
        assert both == pytest.approx(one, rel=0.12)
        grid = np.linspace(2.8, 3.5, 120)
        d47 = np.abs(sc.airy_rainbow_2d_full(grid, 4.7 / P, P)) ** 2
        b47 = (np.abs(sc.airy_rainbow_2d(grid, 4.7 / P, P)) ** 2
               + np.abs(sc.airy_rainbow_2d(2 * math.pi - grid, 4.7 / P, P)) ** 2)
        # coherent sum oscillates around the incoherent one
        assert np.max(d47 - b47) > 0.3 * b47.max()
        assert np.min(d47 - b47) < -0.3 * b47.max()

    def test_domain(self):
        with pytest.raises(ValueError):
            sc.airy_rainbow_2d(1.0, 0.9 / 75.0, 75.0)


class TestUniformAiry3D:
    P = 75.0
    tau = 4.0 / 75.0

    def test_norm_integral(self):
        val = sc.uniform_airy_norm(self.tau, self.P)
        assert val == pytest.approx(0.838, abs=0.01)

    def test_g2_bounded_and_subdominant_at_fold(self):
        thr = rainbow_angle(4.0)
        _, _, g1, g2 = sc._ua_coefficients(thr * (1 - 1e-6), self.tau, self.P)
        assert abs(g2) < 0.15 * g1
        # and the g2/g1 weight shrinks with P (vanishing in the
        # asymptotic limit the plain-Airy reduction assumes)
        _, _, h1, h2 = sc._ua_coefficients(
            rainbow_angle(4.0) * (1 - 1e-6), 4.0 / 600.0, 600.0)
        # the weight falls like P^(-1/3): (75/600)^(1/3) = 1/2
        assert abs(h2) / h1 == pytest.approx(0.5 * abs(g2) / g1, rel=0.02)

    def test_composite_meets_limit_form_at_fold(self):
        thr = rainbow_angle(4.0)
        theta = thr * (1.0 - 2e-7)  # composite side of the merge band
        a = abs(sc.uniform_airy_3d(theta, self.tau, self.P)) ** 2
        b = abs(sc._ua_limit_form(np.array([theta]), self.tau, self.P)[0]) ** 2
        assert a == pytest.approx(b, rel=1e-6)

    def test_rainbow_peak_position_matches_exact(self):
        # the full-cosine pair puts the fold at the true rainbow angle,
        # so the brightest Airy fringe lands on the exact quantum peak
        thr = rainbow_angle(4.0)
        w = sc.airy_fringe_width(self.tau, self.P)
        grid = np.linspace(thr - 0.5, thr + 0.2, 400)
        ua = np.abs(sc.uniform_airy_3d(grid, self.tau, self.P)) ** 2
        exact = exact_density_3d(self.P, self.tau, grid)
        assert abs(grid[np.argmax(ua)] - grid[np.argmax(exact)]) < 0.25 * w

    def test_planar_metric_deficit_documented(self):
        # the flat-disc reduction underestimates the spherical rainbow by
        # roughly sin(tb) theta_r/(tb sin(theta_r)); the norm integral
        # (0.838 < 1) absorbs exactly this kind of loss
        thr = rainbow_angle(4.0)
        tbar = math.acos(1.0 / 4.0)
        deficit = (math.sin(tbar) * thr) / (tbar * math.sin(thr))
        grid = np.linspace(thr - 0.35, thr - 0.05, 150)
        ua = np.abs(sc.uniform_airy_3d(grid, self.tau, self.P)) ** 2
        exact = exact_density_3d(self.P, self.tau, grid)
        ratio = exact.max() / ua.max()
        assert ratio == pytest.approx(deficit, rel=0.25)

    def test_domain(self):
        with pytest.raises(ValueError):
            sc.uniform_airy_3d(0.0, self.tau, self.P)
        with pytest.raises(ValueError):
            sc.uniform_airy_3d(1.0, 0.5 / self.P, self.P)


class TestUniformBesselGlory:
    P = 75.0
    tau = 4.0 / 75.0

    def test_matches_ring_inclusive_planar_oracle(self):
        # the quartic glory ring sits at sqrt(6(s-1)/s) = 2.12, beyond the
        # default disc radius 2; the oracle integration must include it
        tg = sc.glory_angle_planar(self.tau, self.P)
        assert tg > sc.DISC_RADIUS
        grid = np.linspace(0.0, 0.8, 33)
        ub = np.abs(sc.uniform_bessel_glory(grid, self.tau, self.P)) ** 2
        oracle = np.abs(sc.planar_psi(grid, self.tau, self.P, radius=math.pi)) ** 2
        scale = oracle.max()
        assert np.max(np.abs(ub - oracle)) < 0.10 * scale

    def test_b_vanishes_at_forward_axis(self):
        vals = []
        for theta in (0.2, 0.05, 0.01):
            t01, t02, tg = sc._quartic_glory_pair(theta, self.tau, self.P)
            F1 = sc._quartic_phase(t01, theta, self.tau, self.P, -1.0)
            F2 = sc._quartic_phase(t02, theta, self.tau, self.P, +1.0)
            vals.append(0.5 * (F2 - F1))
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] == pytest.approx(0.01 * tg / self.tau, rel=5e-3)

    def test_ford_wheeler_limit(self):
        P, tau = 50.0, 1.2 / 50.0
        for theta in (0.0, 1e-4, 1e-3):
            fw = abs(sc.ford_wheeler_glory(theta, tau, P)) ** 2
            ub = abs(sc.uniform_bessel_glory(theta, tau, P)) ** 2
            assert ub == pytest.approx(fw, rel=1e-2)

    def test_breakdown_beyond_quartic_rainbow(self):
        with pytest.raises(ValueError):
            sc.uniform_bessel_glory(2.5, self.tau, self.P)


class TestFordWheeler:
    def test_finite_at_origin(self):
        v = abs(sc.ford_wheeler_glory(0.0, 1.2 / 50.0, 50.0)) ** 2
        assert math.isfinite(v) and v > 0

    def test_first_zero_at_bessel_zero(self):
        P, s = 50.0, 1.2
        tau = s / P
        tg = sc.glory_angle_planar(tau, P)
        theta_zero = 2.404825557695773 * tau / tg  # first J0 zero, scaled
        grid = np.linspace(0.5 * theta_zero, 1.5 * theta_zero, 200)
        vals = np.abs(sc.ford_wheeler_glory(grid, tau, P)) ** 2
        assert grid[np.argmin(vals)] == pytest.approx(theta_zero, rel=1e-2)

    def test_matches_planar_oracle_near_axis(self):
        # ring inside the disc at P tau = 1.2; stationary-phase vs quadrature
        P, tau = 50.0, 1.2 / 50.0
        for theta in (0.0, 0.02):
            fw = abs(sc.ford_wheeler_glory(theta, tau, P)) ** 2
            oracle = abs(sc.planar_psi(theta, tau, P)) ** 2
            assert fw == pytest.approx(oracle, rel=0.30)

    def test_domain(self):
        with pytest.raises(ValueError):
            sc.ford_wheeler_glory(0.1, 0.9 / 50.0, 50.0)

    @pytest.mark.parametrize("P,s", [(50.0, 1.2), (75.0, 4.0), (20.0, 1.05)])
    def test_wave_function_is_uniform_bessel_on_axis(self, P, s):
        # the complex values, phase included, agree at theta = 0: the quartic
        # phase at the glory angle enters once
        fw = sc.ford_wheeler_glory(0.0, s / P, P)
        ub = sc.uniform_bessel_glory(0.0, s / P, P)
        assert abs(fw - ub) <= 1e-12 * abs(ub)


# (form, tau, P, a theta window inside its domain)
ARRAY_FORMS = [
    (sc.airy_rainbow_2d, 4.0 / 75.0, 75.0, (0.5, 3.0)),
    (sc.airy_rainbow_2d_full, 4.7 / 75.0, 75.0, (2.8, 3.5)),
    (sc.uniform_airy_3d, 4.0 / 75.0, 75.0, (0.02, 3.12)),
    (sc.uniform_bessel_glory, 4.0 / 75.0, 75.0, (0.0, 0.8)),
    (sc.ford_wheeler_glory, 1.2 / 50.0, 50.0, (0.0, 0.3)),
]
# (form, tau, P, a theta window, one theta the scalar call rejects, its message)
BAD_THETA = [
    (sc.airy_rainbow_2d, 4.0 / 75.0, 75.0, (0.5, 3.0), math.nan, "airy argument nan"),
    (sc.airy_rainbow_2d_full, 4.7 / 75.0, 75.0, (2.8, 3.5), math.nan, "airy argument nan"),
    (sc.uniform_airy_3d, 4.0 / 75.0, 75.0, (0.02, 3.12), 0.0, "0 < theta <= pi"),
    (sc.uniform_airy_3d, 4.0 / 75.0, 75.0, (0.02, 3.12), 3.2, "0 < theta <= pi"),
    (sc.uniform_bessel_glory, 4.0 / 75.0, 75.0, (0.0, 0.8), 2.5, "quartic rainbow"),
    (sc.uniform_bessel_glory, 4.0 / 75.0, 75.0, (0.0, 0.8), -0.1, "theta must be >= 0"),
]


@pytest.mark.parametrize("form,tau,P,window", ARRAY_FORMS,
                         ids=[case[0].__name__ for case in ARRAY_FORMS])
class TestArrayForms:
    def test_shape_and_scalar_type(self, form, tau, P, window):
        grid = np.linspace(*window, 24).reshape(4, 6)
        vals = form(grid, tau, P)
        assert vals.shape == (4, 6) and vals.dtype == complex
        scalar = form(float(grid[1, 2]), tau, P)
        assert type(scalar) is complex
        assert scalar == pytest.approx(vals[1, 2], rel=1e-12)
        empty = form(np.array([]), tau, P)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_array_matches_scalar_calls(self, form, tau, P, window):
        grid = np.linspace(*window, 40)
        vals = form(grid, tau, P)
        each = np.array([form(t, tau, P) for t in grid])
        assert np.max(np.abs(vals - each)) < 1e-12 * np.max(np.abs(each))

    def test_map_strength_error_kept(self, form, tau, P, window):
        with pytest.raises(ValueError, match="P\\*tau > 1"):
            form(np.linspace(*window, 5), 0.9 / P, P)


@pytest.mark.parametrize("form,tau,P,window,bad,message", BAD_THETA,
                         ids=[f"{case[0].__name__}-{case[4]}" for case in BAD_THETA])
def test_one_bad_theta_raises_the_scalar_error(form, tau, P, window, bad, message):
    with pytest.raises(ValueError, match=message):
        form(bad, tau, P)
    grid = np.linspace(*window, 10)
    grid[7] = bad
    with pytest.raises(ValueError, match=message):
        form(grid, tau, P)


class TestBisectRows:
    # the stationary-pair brackets of the fig11 (uniform Airy) and fig12
    # (uniform Bessel) columns, P = 75, s = 4
    P, s = 75.0, 4.0

    def test_fullcos_roots_equal_scalar_bisection(self):
        s = self.s
        tbar = math.acos(1.0 / s)
        grid = np.linspace(0.02, 3.12, 800)
        grid = grid[grid < rainbow_angle(s) * (1.0 - 1e-7)]
        for lo, hi in ((1e-14, tbar), (tbar, math.pi)):
            rows = _bisect_rows(lambda t: t - s * np.sin(t) + grid, lo, hi)
            each = [bisect_scalar(lambda t, th=th: t - s * math.sin(t) + th, lo, hi) for th in grid]
            assert np.array_equal(rows, each)

    def test_quartic_roots_equal_scalar_bisection(self):
        P, tau = self.P, self.s / self.P
        tg = sc.glory_angle_planar(tau, P)
        grid = np.linspace(0.0, 0.8, 400)[1:]
        # t * t * t, not t ** 3: numpy's power and the C library's pow
        # round a few cubes differently, multiplication rounds alike
        cubic = lambda t, sign, th: (P / 6.0) * (t * t * t) + (1.0 / tau - P) * t + sign * th / tau
        for sign, lo, hi in ((-1.0, tg, tg + 3.0), (1.0, tg / math.sqrt(3.0), tg)):
            rows = _bisect_rows(lambda t: cubic(t, sign, grid), lo, hi)
            each = [bisect_scalar(lambda t, th=th: cubic(t, sign, th), lo, hi) for th in grid]
            assert np.array_equal(rows, each)

    def test_root_at_bracket_end(self):
        c = np.array([0.0, 0.5, 1.0])
        roots = _bisect_rows(lambda t: t - c, np.array([0.0, 0.0, 0.0]), 1.0)
        assert roots[0] == 0.0 and roots[2] == 1.0
        assert roots[1] == pytest.approx(0.5, abs=1e-14)

    def test_row_without_a_root_raises(self):
        c = np.array([0.5, 2.0])
        with pytest.raises(ValueError, match="straddle"):
            _bisect_rows(lambda t: t - c, 0.0, 1.0)


class TestStationaryPoints:
    def test_single_root_before_focus(self):
        sp = stationary_points_3d(0.3, 0.8 / 50.0, 50.0)
        assert sp.theta01 is not None
        assert sp.theta02 is None and sp.theta03 is None

    def test_merged_pair_on_axis(self):
        P, s = 50.0, 1.4
        sp = stationary_points_3d(0.0, s / P, P)
        tg = sc.glory_angle_planar(s / P, P)
        assert sp.theta01 == pytest.approx(tg, rel=1e-12)
        assert sp.theta02 == pytest.approx(tg, rel=1e-12)
        assert sp.theta03 == 0.0

    def test_roots_satisfy_cubic(self):
        P, s = 50.0, 1.4
        tau = s / P
        for theta in (0.05, 0.2, 0.4):
            sp = stationary_points_3d(theta, tau, P)
            for t, sign in ((sp.theta01, -1), (sp.theta02, 1), (sp.theta03, 1)):
                if t is None:
                    continue
                res = P * t ** 3 / 6 + (1 / tau - P) * t + sign * theta / tau
                assert abs(res) < 1e-12 * max(1.0, P / tau)

    def test_topology_ordering(self):
        sp = stationary_points_3d(0.2, 1.4 / 50.0, 50.0)
        tg = sc.glory_angle_planar(1.4 / 50.0, 50.0)
        assert sp.theta03 < sp.theta02 < tg < sp.theta01


class TestWindowAnnotation:
    def test_windows(self):
        v = sc.annotate_validity
        assert v("pearcey", 0.0, 1.0 / 50, 50.0) == "inside"
        assert v("pearcey", 0.0, 2.0 / 50, 50.0) == "outside"
        assert v("pearcey3d", 0.0, 1.2 / 50, 50.0) == "inside"
        thr = rainbow_angle(4.0)
        assert v("airy", thr, 4.0 / 75, 75.0) == "inside"
        assert v("airy", 0.3, 4.0 / 75, 75.0) == "outside"
        assert v("airy", thr - 3.0 * sc.airy_fringe_width(4.0 / 75, 75.0),
                 4.0 / 75, 75.0) == "edge"
        assert v("uniform-airy", 2.0, 4.0 / 75, 75.0) == "inside"
        assert v("uniform-bessel", 0.3, 4.0 / 75, 75.0) == "inside"
        assert v("uniform-bessel", 2.3, 4.0 / 75, 75.0) == "outside"
        with pytest.raises(ValueError):
            v("nope", 0.0, 0.1, 1.0)
