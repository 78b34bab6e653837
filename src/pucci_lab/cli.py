"""Command line front end wiring the library into reproducible experiments.

Each subcommand reads a JSON config (every key has a documented default),
applies ``--set key=value`` overrides, runs one experiment, and writes
``<command>.report.json`` plus CSV artifacts into the output directory.
The report separates volatile metadata (timestamp, wall time) from the
deterministic payload, so re-runs with the same config and seed differ
only in the ``meta`` block.  The process exits 0 iff every check passed.
"""

import argparse
import csv
import json
import os
import sys
import textwrap
import time
from datetime import datetime, timezone

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

from . import __version__
from .errors import PucciLabError
from .operators import PucciParams, SymMatrix, Variant, boundary_hessian, pucci
from .radial import (Constant, EigenPower, closed_form_constant,
                     neumann_constant, overdetermined_radius,
                     principal_eigenvalue_ball, shoot)
from .grid import (Disk, Ellipse, GridField, Polygon, boundary_data,
                   broken_weights, build_domain, comparison_check,
                   critical_plane_position, discretize_F, export_field_csv,
                   neumann_trace, principal_eigenvalue_grid, reflection_gap,
                   small_domain_check, solve_dirichlet)
from .sector import (SectorMesh, SectorOperatorParams, export_sector_csv,
                     extrapolate_to_zero, gamma_exponent,
                     sector_principal_eigenvalue)

_DEFAULTS = {
    "radial": {
        "a": 1.0, "A": 1.0, "alpha": 0.0, "n_dim": 2, "radius": 1.0,
        "f0": 1.0, "step": 5e-4, "tol": 1e-5,
    },
    "overdetermined": {
        "a": 1.0, "A": 1.0, "alpha": 0.0, "n_dim": 2,
        "c_values": [-0.25, -0.5, -1.0], "step": 2.5e-4, "tol": 1e-5,
    },
    "eigen": {
        "a": 1.0, "A": 1.0, "radius": 1.0, "h": 0.04,
        "grid_tol": 0.02, "cross_tol": 0.03,
    },
    "serrin": {
        "a": 1.0, "A": 1.0, "h": 0.02, "disk_radius": 1.0,
        "ellipse": [2.0, 1.0],
        "directions": [[1, 0], [0, 1], [1, 1], [2, -1]],
        "n_planes": 4, "trace_std_tol": 5e-3, "spread_min": 0.2,
        "oracle_tol": 1e-2, "hessian_tol": 5e-3,
    },
    "sector": {
        "a": 1.0, "A": 1.0, "epsilon": 0.0, "n_dim": 2,
        "deltas": [0.2, 0.1, 0.05], "spacing_denom": 400,
        "gamma_delta": 0.05, "anchor_rel_tol": 0.01,
    },
    "properties": {
        "a": 1.0, "A": 2.0, "alpha": 0.0, "seed": 0, "trials": 200,
        "grid_h": 0.1, "shift": 10.0, "break_stencil": False,
    },
    "report": {},
}

_EPILOG = "config keys per command:\n" + "".join(
    textwrap.fill(" ".join(keys), width=70, initial_indent=f"  {cmd:<16}",
                  subsequent_indent=" " * 18) + "\n"
    for cmd, keys in _DEFAULTS.items() if keys
) + "All commands also accept output_dir (overridden by --out).\n"


def _parse_overrides(items):
    out = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set needs key=value, got {item!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def load_config(command, path=None, overrides=None):
    """Defaults for the command, updated from a JSON file and overrides.

    Unknown keys are rejected up front so typos cannot silently fall back
    to a default.
    """
    cfg = dict(_DEFAULTS[command])
    known = set(cfg) | {"output_dir"}
    for layer, name in ((path, "config file"), (overrides, "--set")):
        if not layer:
            continue
        if isinstance(layer, str):
            with open(layer) as fh:
                layer = json.load(fh)
            if not isinstance(layer, dict):
                raise SystemExit("config file must hold a JSON object")
        unknown = sorted(set(layer) - known)
        if unknown:
            raise SystemExit(
                f"unknown {name} keys for '{command}': {', '.join(unknown)}")
        cfg.update(layer)
    return cfg


def _check(name, passed, value=None, bound=None):
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = float(value)
    if bound is not None:
        entry["bound"] = float(bound)
    return entry


def _at_most(name, value, bound):
    return _check(name, value <= bound, value, bound)


def _at_least(name, value, bound):
    return _check(name, value >= bound, value, bound)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _finish(command, cfg, results, checks, out_dir, started):
    report = {
        "command": command,
        "parameters": cfg,
        "results": results,
        "checks": checks,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "wall_time_s": round(time.perf_counter() - started, 3),
            "version": __version__,
        },
    }
    path = os.path.join(out_dir, f"{command}.report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for chk in checks:
        verdict = "PASS" if chk["passed"] else "FAIL"
        detail = ""
        if "value" in chk:
            detail = f"  value={chk['value']:.6g}"
        if "bound" in chk:
            detail += f"  bound={chk['bound']:.6g}"
        print(f"[{verdict}] {command}/{chk['name']}{detail}")
    n_pass = sum(c["passed"] for c in checks)
    print(f"{command}: {n_pass}/{len(checks)} checks passed -> {path}")
    return 0 if n_pass == len(checks) else 1


def cmd_radial(cfg, out_dir):
    """Shooting against the closed form for constant source on a ball."""
    params = PucciParams(cfg["a"], cfg["A"], Variant.PLUS, cfg["alpha"])
    n_dim, radius, f0 = int(cfg["n_dim"]), float(cfg["radius"]), float(cfg["f0"])
    if n_dim < 2:
        raise ValueError(f"need n_dim >= 2, got {n_dim}")
    if radius <= 0.0:
        raise ValueError(f"need radius > 0, got {radius}")
    if f0 < 0.0:
        raise ValueError("constant source must be nonnegative here, the "
                         "closed form covers decreasing profiles only")
    results, checks = {}, []
    if f0 == 0.0:
        prof = shoot(params, n_dim, Constant(0.0), 1.0, 2.0 * radius,
                     cfg["step"])
        flat = float(np.abs(prof.u - 1.0).max())
        results.update(degenerate=True, flat_deviation=flat)
        checks.append(_at_most("flat_profile", flat, 0.0))
    else:
        scale = f0 ** (1.0 / (1.0 + params.alpha))
        m = scale * closed_form_constant(params, n_dim, radius, 0.0)
        prof = shoot(params, n_dim, Constant(f0), m, 2.0 * radius, cfg["step"])
        keep = prof.radii <= radius
        exact = scale * closed_form_constant(params, n_dim, radius,
                                             prof.radii[keep])
        sup_err = float(np.abs(prof.u[keep] - exact).max())
        results.update(degenerate=False, centre_value=m, sup_error=sup_err,
                       first_zero=prof.first_zero)
        checks.append(_at_most("closed_form_sup_error", sup_err, cfg["tol"]))
        if prof.first_zero is not None:
            zero_err = abs(prof.first_zero - radius)
            checks.append(_at_most("first_zero_at_radius", zero_err,
                                   10.0 * cfg["tol"]))
        _write_csv(os.path.join(out_dir, "radial_profile.csv"),
                   ["r", "u", "exact"],
                   zip(prof.radii[keep], prof.u[keep], exact))
    return results, checks


def cmd_overdetermined(cfg, out_dir):
    """Neumann datum to ball radius and back through the shot profile."""
    params = PucciParams(cfg["a"], cfg["A"], Variant.PLUS, cfg["alpha"])
    n_dim = int(cfg["n_dim"])
    if n_dim < 2:
        raise ValueError(f"need n_dim >= 2, got {n_dim}")
    rows = []
    for c in cfg["c_values"]:
        c = float(c)
        radius = overdetermined_radius(params, n_dim, c)
        m = closed_form_constant(params, n_dim, radius, 0.0)
        step = cfg["step"] * max(radius, 1.0)
        prof = shoot(params, n_dim, Constant(1.0), m, 2.5 * radius, step)
        c_back = neumann_constant(prof)
        rows.append((c, radius, c_back, abs(c_back - c)))
    residual = max(r[3] for r in rows)
    results = {"table": [{"c": r[0], "radius": r[1], "c_back": r[2]}
                         for r in rows],
               "max_residual": residual}
    checks = [_at_most("round_trip_residual", residual, cfg["tol"])]
    if cfg["a"] == cfg["A"] and cfg["alpha"] == 0.0:
        # the scale constant degenerates to a*N, so radius 1 pairs with
        # c = -1/(a N) up to round-off
        r1 = overdetermined_radius(params, n_dim, -1.0 / (cfg["a"] * n_dim))
        results["laplacian_radius"] = r1
        checks.append(_at_most("laplacian_link", abs(r1 - 1.0), 1e-10))
    _write_csv(os.path.join(out_dir, "overdetermined_roundtrip.csv"),
               ["c", "radius", "c_back", "residual"], rows)
    return results, checks


def cmd_eigen(cfg, out_dir):
    """Ball (shooting) and disk (grid) principal eigenvalues side by side."""
    params = PucciParams(cfg["a"], cfg["A"])
    radius = float(cfg["radius"])
    lam_ball = principal_eigenvalue_ball(params, 2, radius)
    dom = build_domain(Disk(radius), cfg["h"])
    lam_grid, _ = principal_eigenvalue_grid(params, dom)
    lam_scaled = principal_eigenvalue_ball(params, 2, 2.0 * radius)
    scale_gap = abs(lam_scaled * (2.0 * radius) ** 2
                    - lam_ball * radius ** 2) / (lam_ball * radius ** 2)
    results = {"ball_shooting": lam_ball, "disk_grid": lam_grid,
               "scaling_residual": scale_gap}
    rows = [("ball_shooting", lam_ball), ("disk_grid", lam_grid)]
    checks = []
    if cfg["a"] == cfg["A"]:
        bessel = (brentq(j0, 2.0, 3.0) ** 2) * cfg["a"] / radius ** 2
        results["bessel_oracle"] = bessel
        rows.append(("bessel_oracle", bessel))
        rel = abs(lam_grid - bessel) / bessel
        checks.append(_at_most("grid_vs_bessel", rel, cfg["grid_tol"]))
    rel_cross = abs(lam_grid - lam_ball) / lam_ball
    checks.append(_at_most("grid_vs_shooting", rel_cross, cfg["cross_tol"]))
    checks.append(_at_most("radius_scaling", scale_gap, 1e-6))
    _write_csv(os.path.join(out_dir, "eigen_values.csv"),
               ["method", "value"], rows)
    return results, checks


def _ellipse_exact_trace(shape, points, a):
    """Outward normal derivative of the exact concave solution on an ellipse.

    u = (1 - x^2/ax^2 - y^2/ay^2) / (2a (ax^-2 + ay^-2)) solves the constant
    source problem when both bounds coincide, and its normal derivative on
    the boundary is -2 C |(x/ax^2, y/ay^2)|.
    """
    cval = 1.0 / (2.0 * a * (shape.ax ** -2 + shape.ay ** -2))
    gx = points[:, 0] / shape.ax ** 2
    gy = points[:, 1] / shape.ay ** 2
    return -2.0 * cval * np.hypot(gx, gy)


def cmd_serrin(cfg, out_dir):
    """Symmetry diagnostics: traces, moving planes, boundary Hessians."""
    params = PucciParams(cfg["a"], cfg["A"])
    h = float(cfg["h"])
    results, checks = {}, []

    radius = float(cfg["disk_radius"])
    disk = Disk(radius)
    dom = build_domain(disk, h)
    u = solve_dirichlet(params, dom, Constant(1.0))
    arc, trace = neumann_trace(u)
    trace_std = float(trace.std())
    results["disk_trace_mean"] = float(trace.mean())
    results["disk_trace_std"] = trace_std
    checks.append(_at_most("disk_trace_std", trace_std, cfg["trace_std_tol"]))
    export_field_csv(u, os.path.join(out_dir, "serrin_disk_field.csv"))
    _write_csv(os.path.join(out_dir, "serrin_disk_trace.csv"),
               ["arc", "dn"], zip(arc, trace))

    gap_rows = []
    worst_gap = -np.inf
    for direction in cfg["directions"]:
        d = np.asarray(direction, dtype=float)
        t_star = critical_plane_position(disk, d)
        proj = disk.boundary_points(4096) @ (d / np.hypot(d[0], d[1]))
        t_lo = proj.min() + 3.0 * h
        for t in np.linspace(t_lo, t_star, int(cfg["n_planes"])):
            gap = reflection_gap(u, d, float(t))
            gap_rows.append((direction[0], direction[1], float(t), gap))
            worst_gap = max(worst_gap, gap)
    results["max_reflection_gap"] = worst_gap
    checks.append(_at_most("reflection_gaps", worst_gap, 2.0 * h))
    _write_csv(os.path.join(out_dir, "serrin_reflection_gaps.csv"),
               ["dir_x", "dir_y", "t", "gap"], gap_rows)

    ellipse = Ellipse(*[float(v) for v in cfg["ellipse"]])
    edom = build_domain(ellipse, h)
    ue = solve_dirichlet(params, edom, Constant(1.0))
    earc, etrace = neumann_trace(ue)
    spread = float(etrace.max() - etrace.min())
    results["ellipse_trace_spread"] = spread
    checks.append(_at_least("ellipse_trace_spread", spread, cfg["spread_min"]))
    if cfg["a"] == cfg["A"]:
        exact = _ellipse_exact_trace(ellipse, edom.boundary["point"], cfg["a"])
        oracle_err = float(np.abs(etrace - exact).max())
        results["ellipse_oracle_error"] = oracle_err
        checks.append(_at_most("ellipse_vs_oracle", oracle_err,
                               cfg["oracle_tol"]))
    _write_csv(os.path.join(out_dir, "serrin_ellipse_trace.csv"),
               ["arc", "dn"], zip(earc, etrace))

    # boundary Hessian against a second difference of the closed form
    # along the radius, at the disk boundary
    c_exact = -radius / (2.0 * params.a)
    curv = SymMatrix(1, np.array([1.0 / radius]))
    hess = boundary_hessian(params, c_exact, 1.0, curv)
    fd = 1e-4
    u_nn_fd = (closed_form_constant(params, 2, radius, radius - 2.0 * fd)
               - 2.0 * closed_form_constant(params, 2, radius, radius - fd)) / fd ** 2
    gap_nn = abs(hess.full()[1, 1] - u_nn_fd)
    results["boundary_hessian_nn"] = float(hess.full()[1, 1])
    results["boundary_hessian_fd"] = float(u_nn_fd)
    checks.append(_at_most("boundary_hessian", gap_nn, cfg["hessian_tol"]))
    return results, checks


def cmd_sector(cfg, out_dir):
    """Sector eigenvalue table over delta with extrapolation, plus gamma."""
    n_dim = int(cfg["n_dim"])
    a, A, eps = float(cfg["a"]), float(cfg["A"]), float(cfg["epsilon"])
    spacing = np.pi / float(cfg["spacing_denom"])
    deltas = [float(d) for d in cfg["deltas"]]
    if len(deltas) < 2:
        raise ValueError("need at least two deltas to extrapolate")
    sparams = SectorOperatorParams(a, A, gamma=2.0, epsilon=eps)
    rows = []
    psi_last = None
    for delta in deltas:
        mesh = SectorMesh(n_dim, delta, spacing)
        lam, psi_last = sector_principal_eigenvalue(sparams, mesh)
        rows.append((delta, lam))
    lam_extrap = extrapolate_to_zero([r[0] for r in rows],
                                     [r[1] for r in rows])
    gam = gamma_exponent(a, A, eps, cfg["gamma_delta"], n_dim,
                         spacing=spacing)
    anchor = 2.0 * n_dim * A
    results = {"table": [{"delta": d, "lambda_bar": l} for d, l in rows],
               "lambda_extrapolated": lam_extrap, "gamma": gam,
               "anchor": anchor}
    checks = []
    if a == A:
        rel = abs(lam_extrap - anchor) / anchor
        checks.append(_at_most("anchor_eigenvalue", rel,
                               cfg["anchor_rel_tol"]))
    else:
        checks.append(_check("eigenvalue_above_anchor", lam_extrap > anchor,
                             lam_extrap, anchor))
        checks.append(_check("gamma_above_two", gam > 2.0, gam, 2.0))
    _write_csv(os.path.join(out_dir, "sector_lambda_table.csv"),
               ["delta", "lambda_bar"], rows)
    export_sector_csv(psi_last,
                      os.path.join(out_dir, "sector_eigenfunction.csv"))
    return results, checks


def _random_sym(rng, dim):
    b = rng.standard_normal((dim, dim))
    return SymMatrix.from_full(0.5 * (b + b.T))


def cmd_properties(cfg, out_dir):
    """Randomized identity and ordering suites with a fixed seed."""
    plus = PucciParams(cfg["a"], cfg["A"], Variant.PLUS, cfg["alpha"])
    minus = PucciParams(cfg["a"], cfg["A"], Variant.MINUS, cfg["alpha"])
    rng = np.random.default_rng(int(cfg["seed"]))
    trials = int(cfg["trials"])
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")

    dual_gap = mono_gap = hom_gap = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        x = _random_sym(rng, dim)
        neg = SymMatrix.from_full(-x.full())
        dual_gap = max(dual_gap, abs(pucci(plus, x) + pucci(minus, neg)))
        c = rng.standard_normal((dim, dim))
        bumped = SymMatrix.from_full(x.full() + 0.1 * c @ c.T)
        mono_gap = min(mono_gap, pucci(plus, bumped) - pucci(plus, x))
        s = float(rng.uniform(0.5, 3.0))
        scaled = SymMatrix.from_full(s * x.full())
        hom_gap = max(hom_gap, abs(pucci(plus, scaled) - s * pucci(plus, x)))
    checks = [
        _at_most("matrix_duality", dual_gap, 1e-10),
        _at_least("matrix_monotone", mono_gap, -1e-12),
        _at_most("matrix_homogeneous", hom_gap, 1e-10),
    ]

    weights = broken_weights() if cfg["break_stencil"] else None
    dom = build_domain(Disk(1.0), cfg["grid_h"])
    bv = boundary_data(dom, 0.0)
    pts = dom.pts
    # deterministic probe: concave paraboloid plus a single-cell bump on
    # the diagonal neighbour of the centre cell
    centre = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    target = pts[centre] + dom.h * np.array([1.0, 1.0])
    diag = int(np.argmin(np.hypot(pts[:, 0] - target[0],
                                  pts[:, 1] - target[1])))
    scheme_gap, grid_dual = np.inf, 0.0
    for trial in range(trials):
        if trial == 0:
            v = -(pts[:, 0] ** 2 + pts[:, 1] ** 2)
            j = diag
        else:
            q = rng.standard_normal(5)
            v = (q[0] * pts[:, 0] ** 2 + q[1] * pts[:, 0] * pts[:, 1]
                 + q[2] * pts[:, 1] ** 2 + q[3] * pts[:, 0] + q[4] * pts[:, 1])
            j = int(rng.integers(dom.n_cells))
        base = discretize_F(plus, dom, GridField(dom, v, bv), weights).values
        vp = v.copy()
        vp[j] += 1e-3
        pert = discretize_F(plus, dom, GridField(dom, vp, bv), weights).values
        diff = np.delete(pert - base, j)
        scheme_gap = min(scheme_gap, float(diff.min()))
        dual = base + discretize_F(minus, dom, GridField(dom, -v, bv),
                                   weights).values
        grid_dual = max(grid_dual, float(np.abs(dual).max()))
    checks.append(_at_least("monotone_scheme", scheme_gap, -1e-11))
    checks.append(_at_most("scheme_duality", grid_dual, 1e-10))

    comp1 = comparison_check(plus, dom, Constant(1.0), 0.0, 0.2)
    comp2 = comparison_check(plus, dom, EigenPower(1.0), 0.0, 0.0)
    checks.append(_check("comparison_nonincreasing", comp1.passed,
                         comp1.gap, comp1.threshold))
    checks.append(_check("comparison_homogeneous", comp2.passed,
                         comp2.gap, comp2.threshold))

    square = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    small = small_domain_check(plus, cfg["shift"], square)
    checks.append(_check("small_domain_threshold", small.passed,
                         small.threshold_size))

    results = {"trials": trials, "seed": int(cfg["seed"]),
               "stencil": "broken" if cfg["break_stencil"] else "default",
               "worst": {"duality": dual_gap, "monotone_matrix": mono_gap,
                         "homogeneity": hom_gap, "monotone_scheme": scheme_gap,
                         "scheme_duality": grid_dual},
               "comparison": {"case1": comp1.case, "case2": comp2.case},
               "small_domain_sizes": list(small.sizes),
               "small_domain_threshold": small.threshold_size}
    _write_csv(os.path.join(out_dir, "properties_worst.csv"),
               ["suite", "worst_value"],
               sorted(results["worst"].items()))
    return results, checks


def cmd_report(cfg, out_dir):
    """Aggregate the other commands' reports into one summary table."""
    rows = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".report.json") or name == "report.report.json":
            continue
        with open(os.path.join(out_dir, name)) as fh:
            rep = json.load(fh)
        n_pass = sum(c["passed"] for c in rep["checks"])
        rows.append({"command": rep["command"], "checks": len(rep["checks"]),
                     "passed": n_pass,
                     "all_pass": n_pass == len(rep["checks"]),
                     "wall_time_s": rep["meta"]["wall_time_s"]})
    if not rows:
        raise SystemExit(f"no *.report.json files under {out_dir}")
    results = {"commands": rows}
    checks = [_check(f"{row['command']}_all_pass", row["all_pass"])
              for row in rows]
    _write_csv(os.path.join(out_dir, "report_summary.csv"),
               ["command", "checks", "passed", "all_pass", "wall_time_s"],
               [(r["command"], r["checks"], r["passed"], r["all_pass"],
                 r["wall_time_s"]) for r in rows])
    return results, checks


_COMMANDS = {
    "radial": cmd_radial,
    "overdetermined": cmd_overdetermined,
    "eigen": cmd_eigen,
    "serrin": cmd_serrin,
    "sector": cmd_sector,
    "properties": cmd_properties,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pucci-lab",
        description="Numerical experiments around extremal-operator "
                    "symmetry: radial profiles, grid solves, sector spectra.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file with config overrides")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override one config key (JSON-parsed value)")
    parser.add_argument("--out", help="output directory "
                        "(default: config output_dir or the working directory)")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.command, args.config,
                          _parse_overrides(args.overrides))
        out_dir = cfg.pop("output_dir", None)
        out_dir = args.out or out_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        started = time.perf_counter()
        results, checks = _COMMANDS[args.command](cfg, out_dir)
    except (PucciLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _finish(args.command, cfg, results, checks, out_dir, started)


if __name__ == "__main__":
    sys.exit(main())
