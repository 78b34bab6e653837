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
from .solver import solve_dirichlet


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


def reflect_points(pts, direction, t):
    """Mirror points across the plane {x . direction = t}."""
    d = np.asarray(direction, dtype=float)
    d = d / np.hypot(d[0], d[1])
    proj = pts @ d
    return pts + (2.0 * (t - proj))[:, None] * d


def reflection_gap(field, direction, t):
    """Moving-plane defect of a solved field at plane offset t.

    The half-domain swept by the plane is reflected onto the other side;
    the gap is sup over the reflected cap of u(reflected x) - u(x),
    interpolated bilinearly.  Nonpositive gap (up to scheme error) is the
    discrete form of the reflection inequality.

    Raises ReflectionOutOfDomain if any swept grid point reflects outside
    the domain, which means t lies beyond the critical position for this
    direction, and OutOfDomain when the reflected cap contains no cells.
    """
    dom = field.domain
    d = np.asarray(direction, dtype=float)
    d = d / np.hypot(d[0], d[1])
    proj = dom.pts @ d
    refl = reflect_points(dom.pts, d, t)
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
    return float((mirrored - field.values[cap]).max())


def critical_plane_position(shape, direction, *, samples=4096, iters=80):
    """Largest plane offset whose swept region reflects inside the shape.

    Works on the analytic boundary: dense boundary samples are reflected
    and tested against the level function, and the offset is bisected.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.hypot(d[0], d[1])
    bpts = shape.boundary_points(samples)
    proj = bpts @ d
    lo, hi = proj.min(), proj.max()

    def ok(t):
        sel = proj < t
        if not np.any(sel):
            return True
        refl = reflect_points(bpts[sel], d, t)
        return shape.level(refl).max() <= 1e-9

    if ok(hi):
        return float(hi)
    t_lo, t_hi = lo, hi
    for _ in range(iters):
        mid = 0.5 * (t_lo + t_hi)
        if ok(mid):
            t_lo = mid
        else:
            t_hi = mid
    return float(t_lo)


@dataclass
class ComparisonReport:
    case: str
    gap: float
    threshold: float
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
    solution size.
    """
    case = _comparison_case(source)
    b1 = boundary_data(dom, g1)
    b2 = boundary_data(dom, g2)
    if np.any(b1 > b2 + 1e-12):
        raise ValueError("boundary data are not ordered: need g1 <= g2")
    if case == "homogeneous" and (np.abs(b1).max(initial=0.0) > 0.0
                                  or np.abs(b2).max(initial=0.0) > 0.0):
        raise ValueError("increasing zeroth order terms require zero data")
    u1 = solve_dirichlet(params, dom, source, g1, tol=tol)
    u2 = solve_dirichlet(params, dom, source, g2, tol=tol)
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
