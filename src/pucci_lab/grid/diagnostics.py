"""Boundary traces and qualitative checks on grid solutions.

These consume solved fields and produce the quantities the symmetry
arguments turn on: normal derivatives along the boundary, moving-plane
reflection gaps, ordering of solutions under ordered data, and the sign of
solutions on small domains.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import IterationLimit, OutOfDomain, ReflectionOutOfDomain
from ..radial import Source
from .domain import boundary_data, build_domain
from .solver import _resolved_table, solve_dirichlet


def neumann_trace(field):
    """Outward normal derivative at the axis-aligned boundary cuts.

    Requires zero Dirichlet data.  Each sample fits a quadratic through
    the boundary point and the two interior cells behind it along a grid
    axis whose angle with the normal is at most 60 degrees; with zero
    tangential derivative on the level set, the directional derivative
    divided by the axis-normal cosine is the normal derivative, at O(h^2).

    Returns (arc, dn): arc parameters sorted ascending and the outward
    normal derivative at each sample.
    """
    dom = field.domain
    if field.boundary_values is None or np.abs(field.boundary_values).max(initial=0.0) > 1e-10:
        raise ValueError("neumann_trace needs a field with zero boundary data")
    b = dom.boundary
    if len(b["s"]) == 0:
        raise OutOfDomain("domain has no usable axis cuts for traces")
    u0 = field.values[b["cell0"]]
    u1 = field.values[b["cell1"]]
    z1 = b["s"]
    z2 = z1 + dom.h
    # derivative at the boundary point of the quadratic through
    # (0, 0), (z1, u0), (z2, u1), taken along the inward axis e
    d_e = u0 * z2 / (z1 * dom.h) - u1 * z1 / (z2 * dom.h)
    dn = d_e / b["e_dot_n"]
    return b["arc"], dn


def _unit(direction):
    """The plane direction at length 1; ValueError if it names no plane."""
    d = np.asarray(direction, dtype=float)
    norm = np.hypot(d[0], d[1])
    if not 0.0 < norm < np.inf:
        raise ValueError(f"need a finite nonzero plane direction, got {d}")
    return d / norm


def _offset(t):
    """The plane offset as a float; ValueError if it is not finite."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"need a finite plane offset t, got {t}")
    return t


def _reflect(pts, proj, d, t):
    # pts reflected across {x . d = t}, given their projections on d
    return pts + (2.0 * (t - proj))[:, None] * d


def reflect_points(pts, direction, t):
    """Mirror points, rows or one point, across {x . direction = t}."""
    pts = np.atleast_2d(pts)
    d = _unit(direction)
    return _reflect(pts, pts @ d, d, _offset(t))


def reflection_gap(field, direction, t):
    """Moving-plane defect of a solved field at plane offset t.

    The half-domain swept by the plane is reflected onto the other side;
    the gap is sup over the reflected cap of u(reflected x) - u(x),
    interpolated bilinearly.  Nonpositive gap (up to scheme error) is the
    discrete form of the reflection inequality.  A policy solve folds by
    each lattice map of its problem, so where a lattice mirror maps the
    problem onto itself the field is mirror-symmetric by construction:
    on a disk the gaps along (1, 0), (0, 1) and (1, 1) at t ~ 0 are zero
    up to rounding, whatever the scheme does.  A direction such as
    (2, -1), or a seeded angle, names no lattice mirror and keeps the
    check's teeth.

    Only the cells the gap reads are reflected: the swept ones, and those
    whose image can land in the shape's box, projection below 2t - pmin
    with pmin the box's lowest projection, plus one h against rounding.

    Raises ReflectionOutOfDomain if any swept grid point reflects outside
    the domain, which means t lies beyond the critical position for this
    direction, OutOfDomain when the reflected cap contains no cells, and
    ValueError for a t that is not finite.
    """
    dom = field.domain
    d = _unit(direction)
    t = _offset(t)
    xmin, ymin, xmax, ymax = dom.shape.bbox()
    pmin = min(xmin * d[0], xmax * d[0]) + min(ymin * d[1], ymax * d[1])
    proj = dom.pts @ d
    near = np.flatnonzero(proj < max(t, 2.0 * t - pmin + dom.h))
    proj = proj[near]
    refl = _reflect(dom.pts[near], proj, d, t)
    lev = dom.shape.level(refl)
    swept = lev[proj < t]
    bad = swept > 1e-9
    if np.any(bad):
        raise ReflectionOutOfDomain(
            f"{int(bad.sum())} reflected points leave the domain at "
            f"t={t:.6g} (max level {swept.max():.3e})")
    cap = (proj > t) & (lev < 0.0)
    if not np.any(cap):
        raise OutOfDomain(f"reflected cap is empty at t={t:.6g}")
    mirrored = dom.interp(field.values, refl[cap])
    return float((mirrored - field.values[near[cap]]).max())


# the critical-plane bisection stops once its bracket is this share of
# the boundary's extent along the direction
_PLANE_RTOL = 1e-12


def critical_plane_position(shape, direction, *, samples=4096, iters=80):
    """Largest plane offset whose swept region reflects inside the shape.

    Works on the analytic boundary: dense boundary samples are reflected
    and tested against the level function, and the offset is bisected
    until the bracket is at most ``_PLANE_RTOL`` of the samples' extent
    along the direction, or for ``iters`` steps, whichever comes first.
    A trial offset reflects only the samples it sweeps, a prefix of the
    samples sorted by projection.

    Raises ValueError for samples < 3 or iters < 1.
    """
    d = _unit(direction)
    if samples < 3:
        raise ValueError(f"need samples >= 3 boundary points, got {samples}")
    if iters < 1:
        raise ValueError(f"need iters >= 1 bisection steps, got {iters}")
    bpts = shape.boundary_points(samples)
    proj = bpts @ d
    order = np.argsort(proj, kind="stable")
    bpts, proj = bpts[order], proj[order]
    lo, hi = proj[0], proj[-1]

    def ok(t):
        k = np.searchsorted(proj, t)
        if k == 0:
            return True
        refl = _reflect(bpts[:k], proj[:k], d, t)
        return shape.level(refl).max() <= 1e-9

    if ok(hi):
        return float(hi)
    t_lo, t_hi = lo, hi
    for _ in range(iters):
        if t_hi - t_lo <= _PLANE_RTOL * (hi - lo):
            break
        mid = 0.5 * (t_lo + t_hi)
        if ok(mid):
            t_lo = mid
        else:
            t_hi = mid
    return float(t_lo)


@dataclass
class ComparisonReport:
    case: str
    gap: float | None
    threshold: float | None
    passed: bool


def _comparison_case(source):
    """Classify the zeroth order term against the comparison hypotheses."""
    if not isinstance(source, Source):
        raise ValueError("source term is outside the comparison hypotheses")
    # c is constant and the mu term (mu >= 0) nonincreasing, so the sign
    # of lam decides
    return "nonincreasing" if source.lam <= 0.0 else "homogeneous"


def comparison_check(params, dom, source, g1, g2, *, tol=1e-8):
    """Solve with ordered boundary data and check the solutions order.

    g1 <= g2 pointwise on the cut registry is required.  In the
    "homogeneous" case (an increasing zeroth order part) both data must
    vanish.  The admitted violation scales like the grid spacing times the
    solution size.  Solver breakdown counts as a failed comparison, with
    no gap or threshold.
    """
    case = _comparison_case(source)
    # order the data on every cut the solves read
    _resolved_table(params, dom)
    b1 = boundary_data(dom, g1)
    b2 = boundary_data(dom, g2)
    if np.any(b1 > b2 + 1e-12):
        raise ValueError("boundary data are not ordered: need g1 <= g2")
    if case == "homogeneous" and (np.abs(b1).max(initial=0.0) > 0.0
                                  or np.abs(b2).max(initial=0.0) > 0.0):
        raise ValueError("increasing zeroth order terms require zero data")
    try:
        u1 = solve_dirichlet(params, dom, source, g1, tol=tol)
        u2 = solve_dirichlet(params, dom, source, g2, tol=tol)
    except (IterationLimit, RuntimeError):
        return ComparisonReport(case=case, gap=None, threshold=None,
                                passed=False)
    gap = float((u1.values - u2.values).max())
    scale = float(np.abs(u2.values).max(initial=0.0))
    threshold = 2.0 * dom.h * max(1.0, scale)
    return ComparisonReport(case=case, gap=gap, threshold=threshold,
                            passed=bool(gap <= threshold))


@dataclass
class SmallDomainReport:
    sizes: list
    sup_values: list
    threshold_size: float | None
    passed: bool


def small_domain_check(params, shift, base_shape, *,
                       scales=(1.0, 0.5, 0.25, 0.125, 0.0625),
                       cells_across=24, tol=1e-8):
    """Probe the maximum principle for M + shift on shrinking copies.

    On each scaled copy, solves M[w] + shift*|w|^alpha w = 1 with zero data
    and records sup w; the probe term is shift*w only at alpha = 0.  Where
    the principle holds the solution is nonpositive; the report gives the
    largest size from which every smaller copy has sup w <= tol, or None
    when even the smallest fails.  Solver breakdown (near-resonant shift)
    counts as a failure for that size.
    """
    xmin, ymin, xmax, ymax = base_shape.bbox()
    diam0 = float(np.hypot(xmax - xmin, ymax - ymin))
    sizes, sups = [], []
    for s in sorted(scales, reverse=True):
        shape = base_shape.scaled(s)
        xmin, ymin, xmax, ymax = shape.bbox()
        h = max(xmax - xmin, ymax - ymin) / cells_across
        sizes.append(diam0 * s)
        try:
            dom = build_domain(shape, h)
            sol = solve_dirichlet(params, dom, Source(c=-1.0, lam=shift), 0.0,
                                  tol=tol)
            sups.append(float(sol.values.max()))
        except (IterationLimit, RuntimeError):
            sups.append(np.inf)
    ok = [v <= tol for v in sups]
    threshold = None
    for size, good in zip(sizes, ok):
        if good and all(o for sz, o in zip(sizes, ok) if sz <= size):
            threshold = size
            break
    return SmallDomainReport(sizes=sizes, sup_values=sups,
                             threshold_size=threshold,
                             passed=threshold is not None)
