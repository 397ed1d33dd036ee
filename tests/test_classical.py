"""Classical kick map: inversion round-trips, branch topology, singular
densities against a Monte Carlo oracle, critical angles and times."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kickedrotor import classical as cl
from kickedrotor import cli
from kickedrotor import specfun as sf
from oracles import box_means, density_classical_loop, invert_map_loop, map_forward

SPHERE = cl.Geometry.SPHERE_3D
PLANAR = cl.Geometry.PLANAR_2D


def branch_roots(theta, params):
    """Every initial angle arriving at one angle, from the runtime's inversion."""
    return cl._branches(np.array([float(theta)]), params)[1].tolist()


def sin2_integral(f, pts, n=64):
    """Integral of an array function f over [pts[0], pts[-1]]: n-node
    Gauss-Legendre on each [a, b] between consecutive pts after the
    substitution theta = a + (b - a) sin^2 u, which turns inverse-square-root
    end singularities into smooth integrands of u."""
    u, w = np.polynomial.legendre.leggauss(n)
    u, w = 0.25 * math.pi * (u + 1.0), 0.25 * math.pi * w
    a, b = np.asarray(pts[:-1])[:, None], np.asarray(pts[1:])[:, None]
    return float(np.sum(f(a + (b - a) * np.sin(u) ** 2) * (b - a) * np.sin(2.0 * u) * w))


def total_probability(params, n):
    """The density integrated over the circle, or with the solid-angle
    weight 2 pi sin(theta) over the sphere, split at the focal angles
    k pi/m and at the fold images: the forward map of the zeros of
    1 - m s cos(m theta0)."""
    s, m = params.s, params.harmonic
    sphere = params.geometry is SPHERE
    hi = math.pi if sphere else 2 * math.pi
    pts = [k * math.pi / m for k in range(round(hi * m / math.pi) + 1)]
    if m * s > 1.0:
        a = math.acos(1.0 / (m * s))
        folds = [(sign * a + 2 * math.pi * k) / m for k in range(m + 1) for sign in (1, -1)]
        pts += [map_forward(t0, params) for t0 in folds if 0.0 < t0 < hi]
    weight = (lambda t: 2 * math.pi * np.sin(t)) if sphere else (lambda t: 1.0)
    return sin2_integral(lambda t: cl.density_classical(t, params) * weight(t), np.unique(pts), n)


class TestMapForward:
    # the kick map's conventions, read back through the runtime's inversion
    def test_identity_at_zero_strength(self):
        p = cl.MapParams(0.0)
        for t0 in (0.1, 2.0, 5.5):
            assert branch_roots(t0, p) == pytest.approx([t0])

    def test_small_angle_cubic_degeneracy(self):
        # at s = 1: theta = theta0 - sin(theta0) ~ theta0^3/6
        p = cl.MapParams(1.0)
        for t0 in (1e-2, 1e-3):
            assert branch_roots(t0 ** 3 / 6.0, p) == pytest.approx([t0], rel=1e-3)

    def test_direct_evaluation_with_fold(self):
        p = cl.MapParams(3.0)
        val = (math.pi / 2 - 3.0) % (2 * math.pi)
        assert min(abs(r - math.pi / 2) for r in branch_roots(val, p)) < 1e-10

    def test_sphere_reflection(self):
        p = cl.MapParams(3.0, geometry=SPHERE)
        raw = math.pi / 2 - 3.0  # negative: reflected through the pole
        assert min(abs(r - math.pi / 2) for r in branch_roots(-raw, p)) < 1e-10

    def test_polarization_uses_double_angle(self):
        p = cl.MapParams(0.5, coupling=cl.Coupling.POLARIZATION)
        t0 = 0.7
        assert branch_roots(t0 - 0.5 * math.sin(2 * t0), p) == pytest.approx([t0])


class TestInvertMap:
    def test_single_branch_below_fold(self):
        p = cl.MapParams(0.8)
        for th in (0.3, 2.0, 4.0, 5.9):
            assert len(branch_roots(th, p)) == 1

    def test_three_branches_at_origin_sphere(self):
        p = cl.MapParams(3.0, geometry=SPHERE)
        assert len(branch_roots(0.0, p)) == 3

    def test_roots_round_trip(self):
        rng = np.random.default_rng(11)
        for geometry in (PLANAR, SPHERE):
            hi = 2 * math.pi if geometry is PLANAR else math.pi
            for s in (0.5, 2.0, 4.0):
                p = cl.MapParams(s, geometry=geometry)
                theta = rng.uniform(0.0, hi, 12)
                index, roots, _ = cl._branches(theta, p)
                for i, r in zip(index, roots):
                    assert map_forward(r, p) == pytest.approx(theta[i], abs=1e-10)

    def test_branch_count_changes_by_two_at_rainbow(self):
        s = 3.0
        thr = cl.rainbow_angle(s)
        p = cl.MapParams(s, geometry=SPHERE)
        n_in = len(branch_roots(thr - 1e-3, p))
        n_out = len(branch_roots(thr + 1e-3, p))
        assert n_in - n_out == 2

    def test_count_change_across_rainbow_dense_scan(self):
        # dense forward-map scan oracle: count sign changes of
        # g(theta0) - target over 1e5 points and compare with the inversion
        s = 3.0
        p = cl.MapParams(s, geometry=SPHERE)
        thr = cl.rainbow_angle(s)
        t0 = np.linspace(0.0, math.pi, 100001)
        g = t0 - s * np.sin(t0)
        for theta in (thr - 1e-2, thr + 1e-2, 0.4, 2.0):
            n_scan = 0
            for target in {theta, -theta, theta - 2 * math.pi, -theta + 2 * math.pi}:
                f = g - target
                n_scan += int(np.count_nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0))
            assert n_scan == len(branch_roots(theta, p))
        n_lit = len(branch_roots(thr - 1e-2, p))
        n_shadow = len(branch_roots(thr + 1e-2, p))
        assert n_lit - n_shadow == 2

    def test_planar_count_scan_parity(self):
        # interior branch count is odd, jumps of +-2 only
        s = 3.0
        p = cl.MapParams(s, geometry=PLANAR)
        thr = cl.rainbow_angle(s)
        special = {0.0, thr, 2 * math.pi - thr}
        counts = []
        for th in np.linspace(0.013, 2 * math.pi - 0.013, 401):
            if min(abs(th - x) for x in special) < 2e-2:
                counts.append(None)
                continue
            counts.append(len(branch_roots(th, p)))
        seen = [c for c in counts if c is not None]
        assert all(c % 2 == 1 for c in seen)
        jumps = {abs(a - b) for a, b in zip(seen, seen[1:])}
        assert jumps <= {0, 2}


class TestDensity:
    def test_uniform_at_zero_strength(self):
        assert cl.density_classical(1.0, cl.MapParams(0.0)) == pytest.approx(1 / (2 * math.pi))
        assert (cl.density_classical(1.0, cl.MapParams(0.0, geometry=SPHERE))
                == pytest.approx(math.sin(1.0) / math.sin(1.0) / (4 * math.pi), rel=1e-10))

    def test_divergence_at_rainbow(self):
        s = 1.84
        thr = cl.rainbow_angle(s)
        assert math.isinf(cl.density_classical(thr, cl.MapParams(s)))
        # one-sided inverse-sqrt approach on the lit side, against the fold
        # coefficient (1/2pi) sqrt(2/|g''|) with |g''| = s sin(tbar)
        tbar = math.acos(1.0 / s)
        coefficient = math.sqrt(2.0 / (s * math.sin(tbar))) / (2 * math.pi)
        eps = np.array([1e-4, 1e-5, 1e-6])
        vals = cl.density_classical(thr - eps, cl.MapParams(s))
        # subtract the smooth single background branch: fit c/sqrt(eps)
        ratio = vals * np.sqrt(eps)
        assert ratio[-1] == pytest.approx(coefficient, rel=2e-2)

    @pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
    def test_probability_conserved_2d(self, s):
        p = cl.MapParams(s, geometry=PLANAR)
        special = [0.0, 2 * math.pi]
        if s >= 1:
            thr = cl.rainbow_angle(s)
            special += [thr, 2 * math.pi - thr]
        total = sin2_integral(lambda t: cl.density_classical(t, p), sorted(set(special)))
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_probability_conserved_3d(self, s):
        # sin(theta)*density has a finite limit at the glory pole
        p = cl.MapParams(s, geometry=SPHERE)
        special = [0.0, math.pi]
        if s >= 1:
            special.append(cl.rainbow_angle(s))
        total = sin2_integral(lambda t: cl.density_classical(t, p) * 2 * math.pi * np.sin(t),
                              sorted(set(special)))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_oracle_3d(self):
        # 10^6 mapped particles vs the branch-sum density away from
        # singular angles, s = 2 (glory at theta = 0 and theta_g image)
        s = 2.0
        p = cl.MapParams(s, geometry=SPHERE)
        rng = np.random.default_rng(5)
        n = 10 ** 6
        t0 = np.arccos(1.0 - 2.0 * rng.random(n))
        raw = t0 - s * np.sin(t0)
        r = np.mod(raw, 2 * math.pi)
        theta = np.where(r > math.pi, 2 * math.pi - r, r)
        bins = np.linspace(0, math.pi, 101)
        counts, edges = np.histogram(theta, bins=bins)
        widths = np.diff(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mc = counts / (n * widths) / (2 * math.pi * np.sin(centers))
        thr = cl.rainbow_angle(s)
        keep = np.ones_like(centers, dtype=bool)
        for x in (0.0, thr):  # glory pole and rainbow are singular
            keep &= np.abs(centers - x) > 0.12
        refs = box_means(lambda t: cl.density_classical(t, p),
                         centers[keep] - 0.5 * widths[0], centers[keep] + 0.5 * widths[0])
        for ref, m, cnt in zip(refs, mc[keep], counts[keep]):
            # 2% modeling tolerance plus the bin's own sampling noise
            tol = 0.02 + 4.0 / math.sqrt(max(cnt, 1))
            assert m == pytest.approx(ref, rel=tol)


_COUPLINGS = st.sampled_from(list(cl.Coupling))
_GEOMETRIES = st.sampled_from(list(cl.Geometry))


class TestDensityProperties:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(s=st.floats(0.0, 8.0), coupling=_COUPLINGS, geometry=_GEOMETRIES)
    def test_integrates_to_one(self, s, coupling, geometry):
        p = cl.MapParams(s, coupling, geometry)
        # within 1% of the cusp's birth (m s = 1) the fold images close on
        # the focal angle at a distance ~ (m s - 1)^(3/2): the fixed rule
        # cannot resolve that, and its end nodes fall inside the solver's
        # 1e-12 pole and fold tolerances
        assume(abs(p.harmonic * s - 1.0) >= 0.01)
        assert total_probability(p, 128) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(s=st.floats(0.0, 8.0), coupling=_COUPLINGS, geometry=_GEOMETRIES,
           theta=st.lists(st.floats(-1.0, 7.5), min_size=1, max_size=6))
    def test_column_equals_scalar_calls_and_loop_oracle(self, s, coupling, geometry, theta):
        p = cl.MapParams(s, coupling, geometry)
        if s >= 1.0:
            theta += [cl.rainbow_angle(s)]
        theta += [0.0, math.pi, 2 * math.pi]
        grid = np.concatenate([theta, np.linspace(0.0, 2 * math.pi, 101)])
        column = cl.density_classical(grid, p)
        assert np.array_equal(column, [density_classical_loop(t, p) for t in grid])
        assert np.array_equal(column[:len(theta)], [cl.density_classical(t, p) for t in theta])
        for t in theta:
            assert branch_roots(t, p) == invert_map_loop(t, p)
        # several blocks per column: the blocks must not mix angles
        with mock.patch.object(sf, "_CONTOUR_BLOCK", 512):
            assert np.array_equal(cl.density_classical(grid, p), column)

    @pytest.mark.parametrize("line", [
        {"command": "classical", "P": 75.0, "s": 1.84, "dim": 2, "grid_points": 800},
        {"command": "compare", "P": 75.0, "s": 4.0, "dim": 3, "methods": ["exact", "classical"],
         "grid_points": 600, "window": [0.004, 3.1376]},
    ])
    def test_one_bisection_call_per_column(self, tmp_path, monkeypatch, line):
        calls, per_column = [], []
        bisect_rows, density = cl._bisect_rows, cli.density_classical

        def counted(f, a, b):
            calls.append(np.size(a))
            return bisect_rows(f, a, b)

        def column(theta, params):
            before = len(calls)
            out = density(theta, params)
            per_column.append(len(calls) - before)
            return out

        monkeypatch.setattr(cl, "_bisect_rows", counted)
        monkeypatch.setattr(cli, "density_classical", column)
        cli.run(cli.ScenarioConfig.from_dict(dict(line, output_path=str(tmp_path / "c.csv"))))
        assert per_column == [1]

    def test_strong_kick_column_in_bounded_blocks(self, monkeypatch):
        # s = 300: about a hundred target copies per angle; the brackets go
        # to _bisect_rows in blocks of at most _CONTOUR_BLOCK rows
        p = cl.MapParams(300.0)
        rows, bisect_rows = [], cl._bisect_rows
        monkeypatch.setattr(cl, "_bisect_rows",
                            lambda f, a, b: rows.append(np.size(a)) or bisect_rows(f, a, b))
        total = total_probability(p, 100)  # 4 arcs of 100 nodes: a 400-point column
        assert len(rows) > 1 and max(rows) <= sf._CONTOUR_BLOCK
        assert total == pytest.approx(1.0, abs=1e-8)


class TestCriticalAngles:
    def test_rainbow_birth(self):
        assert cl.rainbow_angle(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_printed_values(self):
        assert cl.rainbow_angle(4.0) == pytest.approx(2.555, abs=1e-3)
        assert cl.rainbow_angle(4.7) == pytest.approx(3.236, abs=1e-3)
        assert cl.rainbow_angle(6.0) == pytest.approx(4.513, abs=1e-3)

    def test_rainbow_domain_error(self):
        with pytest.raises(ValueError):
            cl.rainbow_angle(0.9)

    def test_forward_glory(self):
        assert cl.glory_angles(1.0)[0] == 0.0
        # bisection oracle: root of theta = 2 sin(theta)
        assert cl.glory_angles(2.0)[0] == pytest.approx(1.895494267033981, abs=1e-10)
        assert cl.glory_angles(0.5)[0] is None

    def test_backward_glory_onset(self):
        assert cl.glory_angles(2.0)[1] is None
        assert cl._S_BACKWARD == pytest.approx(4.603338848751701, abs=1e-6)
        _, backward = cl.glory_angles(6.0)
        assert backward is not None
        b1, b2 = backward
        for b in (b1, b2):
            assert b - 6.0 * math.sin(b) == pytest.approx(-math.pi, abs=1e-10)

    def test_focal_times(self):
        assert cl.focal_times(85.0) == pytest.approx(1 / 85)
        assert cl.focal_times(75.0, cl.Coupling.POLARIZATION) == pytest.approx(1 / 150)
        assert cl.focal_times(2 * 40.0) == pytest.approx(cl.focal_times(40.0) / 2)
        with pytest.raises(ValueError):
            cl.focal_times(0.0)
