"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
(or just `pytest`, where the lines land in the captured output).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from kickedrotor import classical as cl
from kickedrotor import quantum2d as q2
from kickedrotor import quantum3d as q3
from kickedrotor import semiclassical as sc
from kickedrotor import specfun as sf
from kickedrotor import squeeze as sq
from kickedrotor import thermal as th
from oracles import box_means


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def kicked_2d(P, tau):
    p = q2.apply_kick(q2.ground_packet(), P)
    return q2.free_evolve(p, tau)


def kicked_3d(P, tau):
    return q2.free_evolve(q3.dipole_kick_ground(P), tau)


def test_criterion_01_focal_peak_2d():
    t0 = time.perf_counter()
    P = 85.0
    target = 0.4078 * math.sqrt(P)
    exact = q2.density(kicked_2d(P, 1.0 / P), np.array([0.0]))[0]
    closed = abs(sc.pearcey_focus_2d(0.0, 1.0 / P, P)) ** 2
    elapsed = time.perf_counter() - t0
    ok = (abs(exact - target) / target < 0.05
          and abs(closed - target) / target < 1e-3
          and elapsed < 5.0)
    report(1, "2D focal peak 0.4078*sqrt(P)", ok,
           f"exact/target={exact / target:.4f}, closed/target={closed / target:.6f}, "
           f"{elapsed:.2f}s")


def test_criterion_02_focal_tail_2d():
    results = {}
    for P in (50.0, 100.0):
        for theta in (0.5, 1.0):
            results[(P, theta)] = abs(sc.pearcey_focus_2d(theta, 1.0 / P, P)) ** 2
    ok = True
    detail = []
    for theta in (0.5, 1.0):
        ref = sc.focal_tail_2d(theta)
        dev50 = abs(results[(50.0, theta)] - ref) / ref
        pdev = abs(results[(100.0, theta)] - results[(50.0, theta)]) / results[(50.0, theta)]
        ok &= dev50 < 0.10 and pdev < 0.05
        detail.append(f"theta={theta}: dev={dev50:.4f}, P-dep={pdev:.4f}")
    report(2, "2D focal tail 1/(pi (6 theta)^(2/3)), P-independent", ok,
           "; ".join(detail))


def test_criterion_03_focal_peak_3d():
    t0 = time.perf_counter()
    P = 75.0
    cusp = abs(sc.pearcey_cusp_3d(0.0, 1.0 / P, P)) ** 2
    exact_match = abs(cusp - 3.0 * P / 8.0) / (3.0 * P / 8.0) < 1e-12
    P2 = 200.0
    quadrature = abs(sc.planar_psi(0.0, 1.0 / P2, P2)) ** 2
    bracket = sc.focal_density_asymptotic(P2)
    asym_match = abs(quadrature - bracket) / bracket < 0.01
    elapsed = time.perf_counter() - t0
    ok = exact_match and asym_match and elapsed < 30.0
    report(3, "3D focal peak 3P/8 and finite-disc bracket", ok,
           f"cusp={cusp:.12g} vs {3 * P / 8}, oracle/bracket="
           f"{quadrature / bracket:.5f}, {elapsed:.2f}s")


def test_criterion_04_uniform_airy_norm():
    t0 = time.perf_counter()
    val = sc.uniform_airy_norm(4.0 / 75.0, 75.0)
    elapsed = time.perf_counter() - t0
    ok = abs(val - 0.838) <= 0.01 and elapsed < 60.0
    report(4, "uniform-Airy norm 0.838 +- 0.01", ok, f"{val:.4f}, {elapsed:.1f}s")


def test_criterion_05_rainbow_angles():
    vals = {4.0: 2.555, 4.7: 3.236, 6.0: 4.513}
    ok = all(abs(cl.rainbow_angle(s) - v) < 1e-3 for s, v in vals.items())
    P = 75.0
    tau = 4.0 / P
    thr = cl.rainbow_angle(4.0)
    fringe = sc.airy_fringe_width(tau, P)
    grid = np.linspace(thr - 1.2, thr + 0.4, 800)
    dens = q2.density(kicked_2d(P, tau), grid)
    peak = grid[np.argmax(dens)]
    ok &= abs(peak - thr) < fringe
    report(5, "rainbow angles and exact peak within one Airy fringe", ok,
           f"peak at {peak:.4f}, theta_r={thr:.4f}, fringe={fringe:.4f}")


def test_criterion_06_glory():
    # oracle radius: the quartic glory ring sits at 2.12 > 2, so the
    # disc integration is extended to include it (documented deviation
    # from the default radius)
    P = 75.0
    tau = 4.0 / P
    grid = np.linspace(0.0, 0.8, 33)
    ub = np.abs(sc.uniform_bessel_glory(grid, tau, P)) ** 2
    oracle = np.abs(sc.planar_psi(grid, tau, P, radius=math.pi)) ** 2
    scale = oracle.max()
    dev = np.max(np.abs(ub - oracle)) / scale
    ok = dev < 0.10
    # Ford-Wheeler limit check in its own regime (P tau slightly above 1)
    P2, tau2 = 50.0, 1.2 / 50.0
    near_axis = np.array([0.0, 1e-4, 1e-3])
    fw = np.abs(sc.ford_wheeler_glory(near_axis, tau2, P2)) ** 2
    fw_dev = np.max(np.abs(np.abs(sc.uniform_bessel_glory(near_axis, tau2, P2)) ** 2 - fw) / fw)
    ok &= fw_dev < 0.01
    report(6, "uniform Bessel vs planar oracle and Ford-Wheeler limit", ok,
           f"max dev={dev:.4f} of peak, FW dev={fw_dev:.2e}")


def test_criterion_07_norm_and_revivals():
    P = 40.0
    p2 = kicked_2d(P, 0.7)
    norm_ok = abs(p2.norm() - 1.0) < 1e-10
    grid2 = np.linspace(0, 2 * math.pi, 512, endpoint=False)
    d_a = q2.density(p2, grid2)
    d_b = q2.density(q2.free_evolve(p2, 4 * math.pi), grid2)
    rev2 = np.max(np.abs(d_a - d_b))

    p3 = kicked_3d(P, 0.7)
    norm_ok &= abs(p3.norm() - 1.0) < 1e-10
    pol = q3.polarization_kick_ground(20.0)
    norm_ok &= abs(pol.norm() - 1.0) < 1e-10
    grid3 = np.linspace(0, math.pi, 512)
    d3a = q3.density_3d(p3, grid3)
    d3b = q3.density_3d(q2.free_evolve(p3, 2 * math.pi), grid3)
    rev3 = np.max(np.abs(d3a - d3b))
    ok = norm_ok and rev2 < 1e-8 and rev3 < 1e-8
    report(7, "norm conservation 1e-10; revivals pointwise 1e-8", ok,
           f"rev2={rev2:.2e}, rev3={rev3:.2e}")


def test_criterion_08_recurrence_and_polarization():
    from scipy.special import eval_legendre
    table = q3.build_recurrence(220)
    rows_ok = np.max(np.abs(table[:, :101].sum(axis=0) - 1.0)) < 1e-10
    odd_ok = np.max(np.abs(table[1::2, :])) < 1e-10
    proj_ok = True
    worst = 0.0
    for P in (5.0, 12.0, 20.0):
        packet = q3.polarization_kick_ground(P)
        for L in (0, 2, 8, 14):
            yl = math.sqrt((2 * L + 1) / (4 * math.pi))

            def f(t):
                return (yl * eval_legendre(L, np.cos(t))
                        * np.exp(1j * P * np.cos(t) ** 2)
                        * 2 * np.pi * np.sin(t) / math.sqrt(4 * math.pi))

            re, _ = quad(lambda t: f(t).real, 0, np.pi, limit=400)
            im, _ = quad(lambda t: f(t).imag, 0, np.pi, limit=400)
            err = abs(packet.coeffs[L] - complex(re, im))
            worst = max(worst, err)
            proj_ok &= err < 1e-8
    ok = rows_ok and odd_ok and proj_ok
    report(8, "recurrence rows/selection rule; kick projection 1e-8", ok,
           f"worst projection err={worst:.2e}")


def test_criterion_09_classical_quantum_correspondence():
    # box averages (width 0.1) with +-0.15 exclusions around the singular
    # angles; agreement taken as the RMS of per-box relative deviations
    # (single boxes can land on an interference beat of the 3-branch zone)
    P, s = 75.0, 2.0
    tau = s / P
    packet = kicked_3d(P, tau)
    params = cl.MapParams(s, geometry=cl.Geometry.SPHERE_3D)
    thr = cl.rainbow_angle(s)
    tg_img = 0.0  # forward glory lands on the pole
    exclude = [0.0, thr, cl.glory_angles(s)[0], math.pi]
    boxes = [c0 for c0 in np.arange(0.05, math.pi - 0.049, 0.1)
             if all(abs(c0 - x) >= 0.15 for x in exclude if x is not None)]
    # classical box means: one density call on the Gauss nodes of every box
    cvs = box_means(lambda t: cl.density_classical(t, params),
                    np.array(boxes) - 0.05, np.array(boxes) + 0.05)
    rels = []
    for c0, cv in zip(boxes, cvs):
        lo, hi = c0 - 0.05, c0 + 0.05
        gridb = np.linspace(lo, hi, 41)
        qv = float(np.trapezoid(q3.density_3d(packet, gridb), gridb)) / 0.1
        rels.append((qv - cv) / cv)
    rms = float(np.sqrt(np.mean(np.square(rels))))
    ok = rms < 0.10
    report(9, "classical vs quantum box-averaged densities (RMS)", ok,
           f"rms={rms:.4f} over {len(rels)} boxes, worst={max(np.abs(rels)):.3f}")


def test_criterion_10_thermal_hole():
    t0 = time.perf_counter()
    blocks = th.sample_blocks(10 ** 6, seed=11)
    grid, dens, _, _ = th.kicked_profile(blocks, 10.0, 0.1, 400)  # P't' = 1
    peak_zone = dens[grid < 0.3]
    elapsed = time.perf_counter() - t0
    ok = (dens[0] < 0.10 * peak_zone.max()
          and peak_zone.max() == dens.max()
          and elapsed < 60.0)
    report(10, "thermal hole at theta=0 with focal peak inside 0.3 rad", ok,
           f"first bin/peak={dens[0] / peak_zone.max():.4f}, {elapsed:.1f}s")


def test_criterion_11_squeezing():
    tr = sq.run_accumulative(1.0, 1.0, 1000)
    k, u, dtau = tr["k"], tr["u"], tr["dtau"]
    m = k >= 100
    slope = float(np.polyfit(np.log(k[m]), np.log(u[m]), 1)[0])
    prod = (k * dtau)[m]
    slope_ok = abs(slope + 0.5) < 0.05
    prod_ok = float(np.max(prod) / np.min(prod)) - 1 < 0.10

    sol = solve_ivp(lambda x, y: [-y[0] ** 2 / (y[1] + y[0]), y[0]],
                    (0.0, 300.0), [1.0, 1.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    inv_ref = sq.ode_invariant(1.0, 1.0)
    inv_dev = max(abs(sq.ode_invariant(*sol.sol(x)) - inv_ref)
                  for x in (1.0, 30.0, 300.0))
    inv_ok = inv_dev < 1e-9

    trace = sq.classical_accumulative_3d(20000, math.inf, 10, seed=3)
    obs = trace["observable"]
    mono_ok = bool(np.all(np.diff(obs) < 0))
    ok = slope_ok and prod_ok and inv_ok and mono_ok
    report(11, "squeezing asymptotics, ODE invariant, monotone driver", ok,
           f"slope={slope:.3f}, dtau*k spread={np.max(prod) / np.min(prod) - 1:.3f}, "
           f"invariant dev={inv_dev:.1e}, O monotone={mono_ok}")


def test_criterion_12_property_suite():
    from oracles import map_forward, p1_contour_oracle

    # Pearcey evaluator vs scipy rotated-contour quadrature on the stated grid
    worst_p = 0.0
    for x in (-8.0, -4.0, 0.0, 4.0, 8.0):
        for b in (-8.0, -4.0, 0.0, 4.0, 8.0):
            oracle = p1_contour_oracle(x, abs(b)) + p1_contour_oracle(x, -abs(b))
            worst_p = max(worst_p, abs(sf.pearcey(x, b) - oracle))
    pearcey_ok = worst_p < 1e-8

    # Bessel sum rule
    sum_ok = True
    for P in (1.0, 10.0, 85.0):
        j = sf.bessel_jn_array(int(math.ceil(P + 8 * P ** (1 / 3) + 20)), P)
        sum_ok &= abs(j[0] ** 2 + 2 * np.sum(j[1:] ** 2) - 1.0) < 1e-10

    # map-inversion round trips
    rng = np.random.default_rng(2)
    map_ok = True
    for geometry in (cl.Geometry.PLANAR_2D, cl.Geometry.SPHERE_3D):
        hi = 2 * math.pi if geometry is cl.Geometry.PLANAR_2D else math.pi
        for s in (0.5, 2.0, 4.0):
            params = cl.MapParams(s, geometry=geometry)
            theta = rng.uniform(0, hi, 10)
            index, roots, _ = cl._branches(theta, params)
            for i, r in zip(index, roots):
                map_ok &= abs(map_forward(r, params) - theta[i]) < 1e-10

    # thermal conservation
    energy = lambda e: 0.5 * (e.p_theta ** 2 + (e.p_phi / e.sin_theta) ** 2)
    ens = th.kick(th.sample_ensemble(10 ** 5, seed=8), 1.0)
    ev = th._fly(ens, th._free_flight(ens), 1.3)
    cons_ok = (np.max(np.abs(energy(ev) - energy(ens))) < 1e-9
               and np.array_equal(ev.p_phi, ens.p_phi))
    ok = pearcey_ok and sum_ok and map_ok and cons_ok
    report(12, "property suite: Pearcey grid, sum rule, round trips, conservation",
           ok, f"pearcey worst={worst_p:.2e}")
