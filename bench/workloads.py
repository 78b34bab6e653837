"""Seeded inputs, set-up and problem sets of the three benchmark workloads.

Each workload is a closed loop with one client: its problems run one after
another in one process, each calls the public pucci_lab API and checks its
answer against an oracle.  The library sees only the values drawn here from
the seed.

Library functions are always reached through their module (``pl.``,
``sector.``, ``cli.``), never bound to a name in this file, so that the
traced run, which replaces them at every module attribute, sees each call.

Every tolerance, inner tolerance and iteration cap is passed explicitly, so
a changed library default cannot shorten the measured work.  The oracle
tolerances are the ones the tier-1 suite states for the same quantity; where
tier-1 states none (the singular disk), the CLI's ``oracle_tol`` is used.
"""

import contextlib
import io
import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

import pucci_lab as pl
from pucci_lab import cli, sector

# full is the measured size; tiny is for the self-check only
SIZES = {
    "full": {
        "disk_h": 0.01, "square_h": 0.028, "hexagon_h": 0.02,
        "singular_h": 0.02, "eigen_h": 0.03,
        "ball_steps": 2000, "n3_spacing": math.pi / 200,
        "n2_spacing": math.pi / 400, "barrier_samples": 100,
        "cli_serrin_h": 0.02, "cli_spacing_denom": 400,
    },
    "tiny": {
        "disk_h": 0.05, "square_h": 0.1, "hexagon_h": 0.08,
        "singular_h": 0.05, "eigen_h": 0.06,
        "ball_steps": 500, "n3_spacing": math.pi / 40,
        "n2_spacing": math.pi / 100, "barrier_samples": 20,
        "cli_serrin_h": 0.05, "cli_spacing_denom": 100,
    },
}

SOLVE_TOL = 1e-8
MAX_OUTER = 80
EIGEN_TOL = 1e-6
INNER_TOL = 1e-10
GRID_MAX_POWER = 400
SECTOR_MAX_POWER = 500
BALL_REL_TOL = 1e-8
BALL_MAX_ITER = 200
GAMMA_TOL = 1e-6
GAMMA_MAX_ITER = 100
GAMMA_DAMPING = 0.5
GAMMA_EIGEN_TOL = 1e-8
DELTAS = (0.2, 0.1, 0.05)
# a square's solve cost swings by a factor of two with its rotation against
# the lattice; the sum over two copies a quarter period apart swings by
# about a third as much
SQUARES = 2


def draw_inputs(seed):
    """All seeded inputs, drawn in a fixed order so each seed maps to one set."""
    rng = np.random.default_rng(seed)
    offset = float(rng.uniform(0.0, math.pi / 2 / SQUARES))
    return {
        "square_rotations": [offset + k * math.pi / 2 / SQUARES
                             for k in range(SQUARES)],
        "hexagon_rotation": float(rng.uniform(0.0, math.pi / 3)),
        "ellipse_aspect": float(rng.uniform(1.6, 2.4)),
        "A": float(rng.uniform(1.25, 1.75)),
        "sector_a": float(rng.uniform(0.85, 0.95)),
        "reflection_angles": [float(t) for t in rng.uniform(0.0, math.pi, 4)],
        "barrier_seed": int(rng.integers(0, 2 ** 31)),
    }


def _rotated_polygon(radius, n_sides, rotation):
    t = rotation + 2.0 * math.pi * np.arange(n_sides) / n_sides
    return pl.Polygon(radius * np.stack([np.cos(t), np.sin(t)], axis=1))


def _ellipse(aspect):
    # the area stays 2*pi whatever the aspect, so the cell count (and the
    # work) does not move with the seed
    return pl.Ellipse(math.sqrt(2.0 * aspect), math.sqrt(2.0 / aspect))


# ---------------------------------------------------------------- set-up

def setup(workload, inputs, size):
    """Build every domain and mesh the workload's problems use."""
    z = SIZES[size]
    if workload == "serrin":
        built = {
            "disk": pl.build_domain(pl.Disk(1.0), z["disk_h"]),
            "ellipse": pl.build_domain(_ellipse(inputs["ellipse_aspect"]),
                                       z["disk_h"]),
            # hexagon of circumradius 1, squares of side 2
            "hexagon": pl.build_domain(_rotated_polygon(
                1.0, 6, inputs["hexagon_rotation"]), z["hexagon_h"]),
            "singular": pl.build_domain(pl.Disk(1.0), z["singular_h"]),
        }
        for k, rot in enumerate(inputs["square_rotations"]):
            built[f"square{k}"] = pl.build_domain(
                _rotated_polygon(math.sqrt(2.0), 4, rot), z["square_h"])
        return built
    if workload == "eigen":
        return {"disk": pl.build_domain(pl.Disk(1.0), z["eigen_h"])}
    if workload == "corner":
        meshes = {f"n3_{d}": sector.SectorMesh(3, d, z["n3_spacing"])
                  for d in DELTAS}
        meshes["n2_barrier"] = sector.SectorMesh(2, 0.05, z["n2_spacing"])
        return meshes
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks

def _check(name, passed, value, bound):
    return {"name": name, "passed": bool(passed), "value": float(value),
            "bound": float(bound)}


def _at_most(name, value, bound):
    return _check(name, value <= bound, value, bound)


def _at_least(name, value, bound):
    return _check(name, value >= bound, value, bound)


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


class Context:
    """What a problem reads: inputs, built objects, sizes, earlier results."""

    def __init__(self, inputs, built, size, out_dir):
        self.inputs = inputs
        self.built = built
        self.z = SIZES[size]
        self.out_dir = out_dir
        self.state = {}

    @property
    def wide(self):
        return pl.PucciParams(1.0, self.inputs["A"])


def _solve_constant(params, dom):
    return pl.solve_dirichlet(params, dom, pl.Constant(1.0), 0.0,
                              method="policy", tol=SOLVE_TOL,
                              max_outer=MAX_OUTER)


def _trace_stats(field):
    _, dn = pl.neumann_trace(field)
    return dn, {"trace_mean": float(dn.mean()), "trace_std": float(dn.std()),
                "trace_spread": float(dn.max() - dn.min()),
                "trace_samples": int(dn.size)}


def _run_cli(ctx, argv):
    """Run one CLI command quietly and return its exit code and results."""
    out = str(ctx.out_dir / f"cli_{argv[0]}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv) + ["--out", out])
    with open(f"{out}/{argv[0]}.report.json") as fh:
        report = json.load(fh)
    return code, report["results"]


# ------------------------------------------------------------ serrin

def serrin_disk(ctx):
    params, dom = ctx.wide, ctx.built["disk"]
    u = _solve_constant(params, dom)
    ctx.state["disk_u"] = u
    r = np.hypot(dom.pts[:, 0], dom.pts[:, 1])
    err = float(np.abs(u.values - pl.closed_form_constant(params, 2, 1.0, r)).max())
    return ({"sup_u": float(u.values.max()), "closed_form_error": err},
            [_at_most("closed_form_error", err, 1e-10)])


def serrin_disk_trace(ctx):
    params = ctx.wide
    _, stats = _trace_stats(ctx.state["disk_u"])
    radius = pl.overdetermined_radius(params, 2, stats["trace_mean"])
    stats["recovered_radius"] = float(radius)
    return stats, [_at_most("trace_std", stats["trace_std"], 5e-3),
                   _at_most("radius_error", abs(radius - 1.0), 1e-5)]


def serrin_reflection(ctx):
    u, disk = ctx.state["disk_u"], pl.Disk(1.0)
    h = u.domain.h
    gaps = []
    for angle in ctx.inputs["reflection_angles"]:
        d = np.array([math.cos(angle), math.sin(angle)])
        t_star = pl.critical_plane_position(disk, d, samples=4096, iters=80)
        for t in np.linspace(-1.0 + 3.0 * h, t_star, 4):
            gaps.append(pl.reflection_gap(u, d, float(t)))
    worst = max(gaps)
    return ({"max_gap": worst, "gaps": [float(g) for g in gaps]},
            [_at_most("max_reflection_gap", worst, 2.0 * h)])


def serrin_ellipse(ctx):
    params, dom = ctx.wide, ctx.built["ellipse"]
    shape = dom.shape
    u = _solve_constant(params, dom)
    dn, stats = _trace_stats(u)
    # u = C (1 - x^2/ax^2 - y^2/ay^2) is concave, so the plus operator
    # applies a on both eigenvalues and this is the exact solution
    cval = 1.0 / (2.0 * params.a * (shape.ax ** -2 + shape.ay ** -2))
    pts = dom.boundary["point"]
    exact = -2.0 * cval * np.hypot(pts[:, 0] / shape.ax ** 2,
                                   pts[:, 1] / shape.ay ** 2)
    stats["oracle_error"] = float(np.abs(dn - exact).max())
    return stats, [_at_least("trace_spread", stats["trace_spread"], 0.2),
                   _at_most("oracle_error", stats["oracle_error"], 0.05)]


def _polygon(ctx, key, inradius, circumradius):
    """Comparison with the inscribed and circumscribed disks' closed forms."""
    params, dom = ctx.wide, ctx.built[key]
    u = _solve_constant(params, dom)
    _, stats = _trace_stats(u)
    sup_u = float(u.values.max())
    slack = 2.0 * dom.h * max(1.0, sup_u)
    lo = pl.closed_form_constant(params, 2, inradius, 0.0) - slack
    hi = pl.closed_form_constant(params, 2, circumradius, 0.0) + slack
    stats.update(sup_u=sup_u, min_u=float(u.values.min()))
    return stats, [_check("sup_between_disks", lo <= sup_u <= hi, sup_u, hi),
                   _at_least("min_u", stats["min_u"], 0.0),
                   _at_least("trace_spread", stats["trace_spread"], 0.2)]


def _square(k):
    def problem(ctx):
        return _polygon(ctx, f"square{k}", 1.0, math.sqrt(2.0))
    return problem


def serrin_hexagon(ctx):
    return _polygon(ctx, "hexagon", math.sqrt(3.0) / 2.0, 1.0)


def serrin_singular(ctx):
    params = pl.PucciParams(1.0, ctx.inputs["A"], pl.Variant.PLUS, -0.5)
    dom = ctx.built["singular"]
    u = _solve_constant(params, dom)
    r = np.hypot(dom.pts[:, 0], dom.pts[:, 1])
    err = float(np.abs(u.values - pl.closed_form_constant(params, 2, 1.0, r)).max())
    return ({"sup_u": float(u.values.max()), "closed_form_error": err},
            [_at_most("closed_form_error", err, 1e-2)])


def serrin_boundary_hessian(ctx):
    params = ctx.wide
    c = -1.0 / (2.0 * params.a)
    hess = pl.boundary_hessian(params, c, 1.0, pl.SymMatrix(1, np.array([1.0])))
    fd = 1e-4
    u_nn = (pl.closed_form_constant(params, 2, 1.0, 1.0 - 2.0 * fd)
            - 2.0 * pl.closed_form_constant(params, 2, 1.0, 1.0 - fd)) / fd ** 2
    full = hess.full()
    return ({"u_nn": float(full[1, 1]), "u_tt": float(full[0, 0]),
             "u_nn_fd": float(u_nn)},
            [_at_most("u_nn_gap", abs(full[1, 1] - u_nn), 2e-2),
             _check("signs", full[0, 0] < 0.0 and full[1, 1] < 0.0,
                    full[1, 1], 0.0)])


def serrin_cli(ctx):
    code, results = _run_cli(ctx, ["serrin", "--set",
                                   f"h={ctx.z['cli_serrin_h']}",
                                   "--set", "n_planes=4"])
    return results, [_check("exit_code", code == 0, code, 0)]


# ------------------------------------------------------------- eigen

def _grid_eigen(params, dom):
    lam, _ = pl.principal_eigenvalue_grid(params, dom, tol=EIGEN_TOL,
                                          max_power=GRID_MAX_POWER,
                                          inner_tol=INNER_TOL)
    return lam


def eigen_disk_laplace(ctx):
    lam = _grid_eigen(pl.PucciParams(1.0, 1.0), ctx.built["disk"])
    bessel = brentq(j0, 2.0, 3.0) ** 2
    return ({"lambda": lam, "bessel": bessel},
            [_at_most("rel_to_bessel", _rel(lam, bessel), 0.02)])


def eigen_ball(ctx):
    lam = pl.principal_eigenvalue_ball(ctx.wide, 2, 1.0,
                                       h=1.0 / ctx.z["ball_steps"],
                                       rel_tol=BALL_REL_TOL,
                                       max_iter=BALL_MAX_ITER)
    ctx.state["ball"] = lam
    return {"lambda": lam}, [_check("positive", lam > 0.0, lam, 0.0)]


def eigen_disk_wide(ctx):
    lam = _grid_eigen(ctx.wide, ctx.built["disk"])
    ball = ctx.state["ball"]
    return ({"lambda": lam},
            [_at_most("rel_to_ball", _rel(lam, ball), 0.03)])


def _round_trip(alpha, n_dim):
    def problem(ctx):
        params = pl.PucciParams(1.0, ctx.inputs["A"], pl.Variant.PLUS, alpha)
        c = -0.4
        radius = pl.overdetermined_radius(params, n_dim, c)
        m = pl.closed_form_constant(params, n_dim, radius, 0.0)
        prof = pl.shoot(params, n_dim, pl.Constant(1.0), m, 1.3 * radius,
                        2.5e-4 * max(radius, 1.0))
        c_back = pl.neumann_constant(prof)
        return ({"radius": radius, "c_back": c_back},
                [_at_most("round_trip_residual", abs(c_back - c), 1e-5)])
    return problem


# ------------------------------------------------------------ corner

def _sector_eigen(params, mesh):
    return sector.sector_principal_eigenvalue(
        params, mesh, tol=EIGEN_TOL, max_power=SECTOR_MAX_POWER,
        inner_tol=INNER_TOL, method="policy")


def _n3_equal(delta):
    def problem(ctx):
        lam, _ = _sector_eigen(sector.SectorOperatorParams(1.0, 1.0),
                               ctx.built[f"n3_{delta}"])
        ctx.state.setdefault("n3", {})[delta] = lam
        return {"lambda": lam}, [_check("above_anchor", lam > 6.0, lam, 6.0)]
    return problem


def corner_extrapolation(ctx):
    lams = ctx.state["n3"]
    extrap = sector.extrapolate_to_zero(list(DELTAS), [lams[d] for d in DELTAS])
    return ({"lambda_extrapolated": extrap},
            [_at_most("rel_to_anchor", _rel(extrap, 6.0), 0.02)])


def corner_n3_wide(ctx):
    a = ctx.inputs["sector_a"]
    lam, _ = _sector_eigen(sector.SectorOperatorParams(a, 1.0),
                           ctx.built["n3_0.05"])
    return {"lambda": lam}, [_check("above_anchor", lam > 6.0, lam, 6.0)]


def _gamma(a, spacing):
    return sector.gamma_exponent(a, 1.0, 0.0, 0.05, 2, spacing=spacing,
                                 tol=GAMMA_TOL, max_iter=GAMMA_MAX_ITER,
                                 damping=GAMMA_DAMPING,
                                 eigen_tol=GAMMA_EIGEN_TOL)


def corner_gamma_equal(ctx):
    mesh = ctx.built["n2_barrier"]
    gam = _gamma(1.0, ctx.z["n2_spacing"])
    # at a = A the fixed point is sqrt of the box eigenvalue (pi / width)^2
    exact = math.pi / (math.pi / 2.0 - 2.0 * mesh.delta_prime)
    return ({"gamma": gam, "exact": exact},
            [_at_most("rel_to_box", _rel(gam, exact), 1e-3)])


def corner_gamma_wide(ctx):
    a, mesh = ctx.inputs["sector_a"], ctx.built["n2_barrier"]
    gam = _gamma(a, ctx.z["n2_spacing"])
    params = sector.SectorOperatorParams(a, 1.0, gamma=gam, epsilon=0.0)
    _, psi = sector.sector_principal_eigenvalue(
        params, mesh, tol=GAMMA_EIGEN_TOL, max_power=SECTOR_MAX_POWER,
        inner_tol=INNER_TOL, method="policy")
    margins = sector.barrier_margin(params, psi, gam,
                                    n_samples=ctx.z["barrier_samples"],
                                    seed=ctx.inputs["barrier_seed"],
                                    r_range=(0.5, 2.0))
    worst = float(margins.min())
    return ({"gamma": gam, "min_margin": worst},
            [_check("gamma_above_two", gam > 2.0, gam, 2.0),
             _at_least("min_margin", worst, -10.0 * mesh.spacing)])


def corner_cli(ctx):
    code, results = _run_cli(ctx, [
        "sector", "--set", "n_dim=2", "--set", "deltas=[0.2,0.1,0.05]",
        "--set", f"spacing_denom={ctx.z['cli_spacing_denom']}",
        "--set", "gamma_delta=0.05"])
    return results, [_check("exit_code", code == 0, code, 0)]


PROBLEMS = {
    "serrin": [
        ("disk", serrin_disk),
        ("disk_trace", serrin_disk_trace),
        ("reflection", serrin_reflection),
        ("ellipse", serrin_ellipse),
        ("hexagon", serrin_hexagon),
    ] + [(f"square{k}", _square(k)) for k in range(SQUARES)] + [
        ("singular", serrin_singular),
        ("boundary_hessian", serrin_boundary_hessian),
        ("cli_serrin", serrin_cli),
    ],
    "eigen": [
        ("disk_laplace", eigen_disk_laplace),
        ("ball", eigen_ball),
        ("disk_wide", eigen_disk_wide),
    ] + [(f"round_trip_alpha{alpha}_n{n}", _round_trip(alpha, n))
         for alpha in (-0.5, 0.0, 1.0) for n in (2, 3)],
    "corner": [(f"n3_delta{d}", _n3_equal(d)) for d in DELTAS] + [
        ("n3_extrapolation", corner_extrapolation),
        ("n3_wide", corner_n3_wide),
        ("n2_gamma_equal", corner_gamma_equal),
        ("n2_gamma_wide", corner_gamma_wide),
        ("cli_sector", corner_cli),
    ],
}
