"""Acceptance criteria for the whole laboratory, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers
(visible under ``pytest -s``) and then asserts the stated tolerances.

Criterion 4 checks that the N = 2 barrier exponent gamma tends to 2 as
A - a, epsilon and delta go to 0.  At a fixed delta gamma stays above
2: S_delta is the arc of width pi/2 - delta, so at a = A and epsilon = 0
gamma is exactly pi / (pi/2 - delta), 2.0258 at delta = 0.02, and a < A
or epsilon > 0 only raise it (2.0460 at the point (0.99, 1e-3, 0.02)).
So the criterion asserts the limit, not a value at one point:

- limit: gamma along (a, epsilon, delta) = (1 - t, t/10, 2t), t in
  {0.04, 0.02, 0.01}, extrapolated to t = 0, lies within 0.02 of 2;
  the path ends at the point above;
- anchor: gamma(a = A, epsilon = 0, delta = 0.02) matches
  pi / (pi/2 - 0.02) to a relative 1e-3;
- the point value is at least the anchor value;
- |gamma - 2| decreases along three shrinking triples, and gamma > 2
  strictly for a/A = 0.9;
- all of it within 120 s.
"""

import time

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

from pucci_lab import (Constant, Disk, Ellipse, EigenPower, GridField,
                       Polygon, PucciParams, SymMatrix, Variant,
                       boundary_hessian, build_domain, boundary_data,
                       closed_form_constant, comparison_check, discretize_F,
                       critical_plane_position, neumann_constant,
                       neumann_trace, overdetermined_radius, pucci,
                       principal_eigenvalue_ball, principal_eigenvalue_grid,
                       reflection_gap, small_domain_check, solve_dirichlet,
                       shoot)
from pucci_lab.sector import (SectorMesh, SectorOperatorParams,
                              extrapolate_to_zero, gamma_exponent,
                              sector_principal_eigenvalue)

SWEEP = [(alpha, n) for alpha in (-0.5, 0.0, 1.0) for n in (2, 3)]


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return f"criterion {num}: {detail}"


def test_criterion_01_closed_form_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for alpha, n in SWEEP:
        params = PucciParams(1.0, 1.0, Variant.PLUS, alpha)
        m = closed_form_constant(params, n, 1.0, 0.0)
        prof = shoot(params, n, Constant(1.0), m, 1.2, 5e-4)
        keep = prof.radii <= 1.0
        exact = closed_form_constant(params, n, 1.0, prof.radii[keep])
        worst = max(worst, float(np.abs(prof.u[keep] - exact).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 1.0
    msg = _verdict(1, ok, f"sup_error={worst:.3e} <= 1e-5, {elapsed:.2f}s < 1s")
    assert ok, msg


def test_criterion_02_overdetermined_round_trip():
    started = time.perf_counter()
    worst = 0.0
    for alpha, n in SWEEP:
        params = PucciParams(1.0, 1.0, Variant.PLUS, alpha)
        c = -0.4
        radius = overdetermined_radius(params, n, c)
        m = closed_form_constant(params, n, radius, 0.0)
        prof = shoot(params, n, Constant(1.0), m, 1.3 * radius,
                     2.5e-4 * max(radius, 1.0))
        worst = max(worst, abs(neumann_constant(prof) - c))
    lap_gap = 0.0
    for n in (2, 3):
        params = PucciParams(1.0, 1.0)
        lap_gap = max(lap_gap, abs(
            overdetermined_radius(params, n, -1.0 / n) - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and lap_gap <= 1e-10 and elapsed < 1.0
    msg = _verdict(2, ok, f"residual={worst:.3e} <= 1e-5, "
                   f"laplacian={lap_gap:.1e} <= 1e-10, {elapsed:.2f}s < 1s")
    assert ok, msg


def test_criterion_03_quarter_sphere_eigenvalue():
    started = time.perf_counter()
    rels = {}
    for n in (2, 3):
        lams = []
        deltas = [0.2, 0.1, 0.05]
        for delta in deltas:
            mesh = SectorMesh(n, delta, np.pi / 400)
            lam, _ = sector_principal_eigenvalue(
                SectorOperatorParams(1.0, 1.0), mesh)
            lams.append(lam)
        extrap = extrapolate_to_zero(deltas, lams)
        rels[n] = abs(extrap - 2.0 * n) / (2.0 * n)
    elapsed = time.perf_counter() - started
    ok = rels[2] <= 0.01 and rels[3] <= 0.02 and elapsed < 60.0
    msg = _verdict(3, ok, f"rel N=2 {rels[2]:.2%} <= 1%, "
                   f"rel N=3 {rels[3]:.2%} <= 2%, {elapsed:.1f}s < 60s")
    assert ok, msg


def test_criterion_04_exponent_limit():
    started = time.perf_counter()
    # the path (a, epsilon, delta) = (1 - t, t/10, 2t) ends at the stated
    # point (0.99, 1e-3, 0.02), where t = 0.01
    ts = [0.04, 0.02, 0.01]
    path = [(0.96, 4e-3, 0.08), (0.98, 2e-3, 0.04), (0.99, 1e-3, 0.02)]
    gam_path = [gamma_exponent(a, 1.0, eps, delta, 2)
                for a, eps, delta in path]
    gam_point = gam_path[-1]
    gam_limit = extrapolate_to_zero(ts, gam_path)
    # at a = A and epsilon = 0, gamma^2 is the box eigenvalue of S_delta,
    # the arc of width pi/2 - delta
    anchor_exact = np.pi / (np.pi / 2 - 0.02)
    gam_anchor = gamma_exponent(1.0, 1.0, 0.0, 0.02, 2)
    triples = [(0.7, 0.05, 0.3), (0.85, 0.01, 0.15), (0.95, 1e-3, 0.05)]
    gams = [gamma_exponent(a, 1.0, eps, delta, 2)
            for a, eps, delta in triples]
    gam_strict = gamma_exponent(0.9, 1.0, 0.0, 0.05, 2)
    elapsed = time.perf_counter() - started
    clauses = {
        "limit": abs(gam_limit - 2.0) <= 0.02,
        "anchor": abs(gam_anchor - anchor_exact) <= 1e-3 * anchor_exact,
        "point>=anchor": gam_point >= gam_anchor,
        "monotone": all(abs(gams[i] - 2.0) > abs(gams[i + 1] - 2.0)
                        for i in range(len(gams) - 1)),
        "strict": gam_strict > 2.0,
        "time": elapsed < 120.0,
    }
    failed = [name for name, held in clauses.items() if not held]
    ok = not failed
    msg = _verdict(4, ok,
                   f"anchor gamma(1,0,0.02)={gam_anchor:.6f} vs "
                   f"pi/(pi/2-0.02)={anchor_exact:.6f} rel<=1e-3; "
                   f"point gamma(0.99,1e-3,0.02)={gam_point:.6f} >= anchor; "
                   "path t=" + ",".join(f"{t:g}" for t in ts) + ": "
                   + ", ".join(f"{g:.6f}" for g in gam_path)
                   + f" -> limit {gam_limit:.6f}, "
                   f"|g-2|={abs(gam_limit - 2.0):.4f} <= 0.02; triples "
                   + " > ".join(f"{g:.4f}" for g in gams)
                   + f"; gamma(0.9)={gam_strict:.4f} > 2; "
                   f"{elapsed:.1f}s < 120s; failed: "
                   + (", ".join(failed) if failed else "none"))
    assert ok, msg


def test_criterion_05_disk_symmetry_diagnostics():
    started = time.perf_counter()
    params = PucciParams(1.0, 1.0)
    h = 0.01
    dom = build_domain(Disk(1.0), h)
    u = solve_dirichlet(params, dom, Constant(1.0))
    _, trace = neumann_trace(u)
    trace_std = float(trace.std())
    worst_gap = -np.inf
    for direction in ([1, 0], [0, 1], [1, 1], [2, -1]):
        d = np.asarray(direction, dtype=float)
        t_star = critical_plane_position(Disk(1.0), d)
        for t in np.linspace(-1.0 + 3.0 * h, t_star, 4):
            worst_gap = max(worst_gap, reflection_gap(u, d, float(t)))
    edom = build_domain(Ellipse(2.0, 1.0), 0.02)
    ue = solve_dirichlet(params, edom, Constant(1.0))
    _, etrace = neumann_trace(ue)
    pts = edom.boundary["point"]
    cval = 1.0 / (2.0 * (2.0 ** -2 + 1.0))
    exact = -2.0 * cval * np.hypot(pts[:, 0] / 4.0, pts[:, 1])
    oracle_err = float(np.abs(etrace - exact).max())
    spread = float(etrace.max() - etrace.min())
    elapsed = time.perf_counter() - started
    ok = (trace_std <= 5e-3 and worst_gap <= 2.0 * h and spread >= 0.2
          and oracle_err <= 0.05 and elapsed < 60.0)
    msg = _verdict(5, ok, f"trace_std={trace_std:.2e} <= 5e-3, "
                   f"max_gap={worst_gap:.4f} <= {2 * h}, "
                   f"spread={spread:.3f} >= 0.2 "
                   f"(oracle gap {oracle_err:.1e}), {elapsed:.1f}s < 60s")
    assert ok, msg


def test_criterion_06_boundary_hessian():
    started = time.perf_counter()
    gaps = {}
    signs_ok = True
    for key, (a, big_a), tol in (("equal", (1.0, 1.0), 5e-3),
                                 ("wide", (1.0, 1.5), 2e-2)):
        params = PucciParams(a, big_a)
        c = -1.0 / (2.0 * a)
        hess = boundary_hessian(params, c, 1.0, SymMatrix(1, np.array([1.0])))
        fd = 1e-4
        u_nn = (closed_form_constant(params, 2, 1.0, 1.0 - 2.0 * fd)
                - 2.0 * closed_form_constant(params, 2, 1.0, 1.0 - fd)) / fd ** 2
        full = hess.full()
        gaps[key] = abs(full[1, 1] - u_nn)
        signs_ok = signs_ok and full[0, 0] < 0.0 and full[1, 1] < 0.0
    elapsed = time.perf_counter() - started
    ok = (gaps["equal"] <= 5e-3 and gaps["wide"] <= 2e-2 and signs_ok
          and elapsed < 5.0)
    msg = _verdict(6, ok, f"gap a=A {gaps['equal']:.1e} <= 5e-3, "
                   f"gap (1,1.5) {gaps['wide']:.1e} <= 2e-2, "
                   f"signs {'ok' if signs_ok else 'VIOLATED'}, "
                   f"{elapsed:.2f}s < 5s")
    assert ok, msg


def test_criterion_07_eigenvalue_oracles():
    started = time.perf_counter()
    bessel = brentq(j0, 2.0, 3.0) ** 2
    dom = build_domain(Disk(1.0), 0.02)
    lam_lap, _ = principal_eigenvalue_grid(PucciParams(1.0, 1.0), dom)
    rel_bessel = abs(lam_lap - bessel) / bessel
    wide = PucciParams(1.0, 1.5)
    lam_grid, _ = principal_eigenvalue_grid(wide, dom)
    lam_ball = principal_eigenvalue_ball(wide, 2, 1.0)
    rel_cross = abs(lam_grid - lam_ball) / lam_ball
    elapsed = time.perf_counter() - started
    ok = rel_bessel <= 0.02 and rel_cross <= 0.03 and elapsed < 60.0
    msg = _verdict(7, ok, f"disk vs j0^2 {rel_bessel:.2%} <= 2%, "
                   f"grid vs shooting (1,1.5) {rel_cross:.2%} <= 3%, "
                   f"{elapsed:.1f}s < 60s")
    assert ok, msg


def test_criterion_08_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    plus = PucciParams(1.0, 2.0)
    minus = PucciParams(1.0, 2.0, Variant.MINUS)
    cubic = PucciParams(1.0, 2.0, Variant.PLUS, 1.0)
    dom = build_domain(Disk(1.0), 0.1)
    bv = boundary_data(dom, 0.0)
    pts = dom.pts

    dual_gap = hom_gap = 0.0
    mono_gap = np.inf
    trials = 200
    for trial in range(trials):
        dim = int(rng.integers(2, 5))
        b = rng.standard_normal((dim, dim))
        x = SymMatrix.from_full(0.5 * (b + b.T))
        neg = SymMatrix.from_full(-x.full())
        dual_gap = max(dual_gap, abs(pucci(plus, x) + pucci(minus, neg)))

        q = rng.standard_normal(5)
        v = (q[0] * pts[:, 0] ** 2 + q[1] * pts[:, 0] * pts[:, 1]
             + q[2] * pts[:, 1] ** 2 + q[3] * pts[:, 0] + q[4] * pts[:, 1])
        j = int(rng.integers(dom.n_cells))
        base = discretize_F(plus, dom, GridField(dom, v, bv)).values
        vp = v.copy()
        vp[j] += 1e-3
        pert = discretize_F(plus, dom, GridField(dom, vp, bv)).values
        mono_gap = min(mono_gap, float(np.delete(pert - base, j).min()))

        s = float(rng.uniform(0.5, 3.0))
        f_one = discretize_F(cubic, dom, GridField(dom, v, bv)).values
        f_s = discretize_F(cubic, dom, GridField(dom, s * v, s * bv)).values
        hom_gap = max(hom_gap, float(np.abs(f_s - s ** 2 * f_one).max()
                                     / max(1.0, np.abs(f_one).max())))

    comp1 = comparison_check(plus, dom, Constant(1.0), 0.0, 0.2)
    comp2 = comparison_check(plus, dom, EigenPower(1.0), 0.0, 0.0)
    square = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    small = small_domain_check(plus, 10.0, square)
    elapsed = time.perf_counter() - started
    ok = (dual_gap <= 1e-10 and mono_gap >= -1e-11 and hom_gap <= 1e-10
          and comp1.passed and comp1.case == "nonincreasing"
          and comp2.passed and comp2.case == "homogeneous"
          and small.passed and elapsed < 120.0)
    msg = _verdict(8, ok, f"{trials} trials: duality {dual_gap:.1e}, "
                   f"monotone {mono_gap:.1e}, homogeneity {hom_gap:.1e}, "
                   f"comparison {comp1.passed}/{comp2.passed}, "
                   f"small-domain threshold {small.threshold_size}, "
                   f"{elapsed:.1f}s < 120s")
    assert ok, msg
