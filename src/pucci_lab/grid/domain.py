"""Masked uniform grids on curved domains with cut-cell boundary data.

Cells are the points of a uniform lattice whose centres fall inside the
shape.  Every stencil arm that leaves the domain is resolved to its exact
boundary crossing, and those cut distances drive one-sided differences of
the same order as the interior scheme, which is what keeps boundary traces
usable at O(h^2).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from ..errors import InvalidShape

_BISECT_STEPS = 60
_SCAN_POINTS = 16


@dataclass(frozen=True)
class Disk:
    radius: float

    def level(self, pts):
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0], pts[:, 1]) - self.radius

    def bbox(self):
        r = self.radius
        return (-r, -r, r, r)

    def boundary_normal(self, pts):
        pts = np.atleast_2d(pts)
        nrm = np.hypot(pts[:, 0], pts[:, 1])
        return pts / nrm[:, None]

    def arc_parameter(self, pts):
        pts = np.atleast_2d(pts)
        return np.arctan2(pts[:, 1], pts[:, 0])

    def boundary_points(self, n):
        t = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return self.radius * np.stack([np.cos(t), np.sin(t)], axis=1)

    def scaled(self, s):
        return Disk(self.radius * s)

    def validate(self):
        if self.radius <= 0.0:
            raise InvalidShape(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Ellipse:
    ax: float
    ay: float

    def level(self, pts):
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0] / self.ax, pts[:, 1] / self.ay) - 1.0

    def bbox(self):
        return (-self.ax, -self.ay, self.ax, self.ay)

    def boundary_normal(self, pts):
        pts = np.atleast_2d(pts)
        g = np.stack([pts[:, 0] / self.ax ** 2, pts[:, 1] / self.ay ** 2], axis=1)
        return g / np.hypot(g[:, 0], g[:, 1])[:, None]

    def arc_parameter(self, pts):
        pts = np.atleast_2d(pts)
        return np.arctan2(pts[:, 1] / self.ay, pts[:, 0] / self.ax)

    def boundary_points(self, n):
        t = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return np.stack([self.ax * np.cos(t), self.ay * np.sin(t)], axis=1)

    def scaled(self, s):
        return Ellipse(self.ax * s, self.ay * s)

    def validate(self):
        if self.ax <= 0.0 or self.ay <= 0.0:
            raise InvalidShape("ellipse semi-axes must be positive")


class Polygon:
    """Simple polygon; vertices are reordered counter-clockwise."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise InvalidShape("polygon needs at least 3 planar vertices")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if abs(area2) < 1e-14:
            raise InvalidShape("polygon has vanishing area")
        self.vertices = v if area2 > 0.0 else v[::-1].copy()
        self._edges = np.roll(self.vertices, -1, axis=0) - self.vertices
        self._edge_len = np.hypot(self._edges[:, 0], self._edges[:, 1])
        self._cum_len = np.concatenate([[0.0], np.cumsum(self._edge_len)])

    def _edge_distances(self, pts):
        # distance from each point to each edge segment
        rel = pts[:, None, :] - self.vertices[None, :, :]
        t = np.einsum("pek,ek->pe", rel, self._edges) / (self._edge_len ** 2)
        t = np.clip(t, 0.0, 1.0)
        foot = self.vertices[None, :, :] + t[:, :, None] * self._edges[None, :, :]
        d = np.hypot(pts[:, None, 0] - foot[:, :, 0], pts[:, None, 1] - foot[:, :, 1])
        return d, t

    def level(self, pts):
        pts = np.atleast_2d(pts)
        d, _ = self._edge_distances(pts)
        dist = d.min(axis=1)
        # even-odd crossing test for the sign
        vx, vy = self.vertices[:, 0], self.vertices[:, 1]
        wx, wy = np.roll(vx, -1), np.roll(vy, -1)
        y = pts[:, 1][:, None]
        x = pts[:, 0][:, None]
        straddle = (vy[None, :] > y) != (wy[None, :] > y)
        xin = vx[None, :] + (y - vy[None, :]) / (wy[None, :] - vy[None, :] + 1e-300) \
            * (wx[None, :] - vx[None, :])
        inside = np.sum(straddle & (x < xin), axis=1) % 2 == 1
        return np.where(inside, -dist, dist)

    def bbox(self):
        v = self.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())

    def boundary_normal(self, pts):
        pts = np.atleast_2d(pts)
        d, _ = self._edge_distances(pts)
        nearest = d.argmin(axis=1)
        e = self._edges[nearest]
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        return n / np.hypot(n[:, 0], n[:, 1])[:, None]

    def arc_parameter(self, pts):
        pts = np.atleast_2d(pts)
        d, t = self._edge_distances(pts)
        nearest = d.argmin(axis=1)
        along = t[np.arange(len(pts)), nearest] * self._edge_len[nearest]
        return self._cum_len[nearest] + along

    def boundary_points(self, n):
        total = self._cum_len[-1]
        s = np.linspace(0.0, total, n, endpoint=False)
        idx = np.searchsorted(self._cum_len, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.vertices) - 1)
        frac = (s - self._cum_len[idx]) / self._edge_len[idx]
        return self.vertices[idx] + frac[:, None] * self._edges[idx]

    def scaled(self, s):
        return Polygon(self.vertices * s)

    def validate(self):
        pass  # the constructor already rejects degenerate inputs


def inside(shape, pts):
    return shape.level(pts) < 0.0


# the 8 orthogonal pairs of lattice directions with offsets up to 3;
# each row of PAIRS indexes two perpendicular entries of DIRECTIONS
_DIRECTIONS = np.array([
    (1, 0), (0, 1),
    (1, 1), (1, -1),
    (2, 1), (1, -2),
    (1, 2), (2, -1),
    (3, 1), (1, -3),
    (1, 3), (3, -1),
    (3, 2), (2, -3),
    (2, 3), (3, -2),
], dtype=int)
_PAIRS = np.array([(0, 1), (2, 3), (4, 5), (6, 7),
                   (8, 9), (10, 11), (12, 13), (14, 15)], dtype=int)


@dataclass
class StencilSet:
    """Directions, their orthogonal pairing, and per-direction weights.

    Weights are 1 for the consistent scheme; they exist so a deliberately
    broken stencil can be injected as a negative control.
    """

    directions: np.ndarray
    pairs: np.ndarray
    weights: np.ndarray

    @classmethod
    def default(cls):
        st = cls(_DIRECTIONS.copy(), _PAIRS.copy(),
                 np.ones(len(_DIRECTIONS)))
        st.validate()
        return st

    @classmethod
    def broken(cls):
        """Negative control: one direction enters with a flipped sign,
        which destroys monotonicity of the assembled scheme."""
        st = cls(_DIRECTIONS.copy(), _PAIRS.copy(), np.ones(len(_DIRECTIONS)))
        st.weights[2] = -1.0
        return st

    def validate(self):
        d = self.directions
        for i, j in self.pairs:
            if int(d[i] @ d[j]) != 0:
                raise InvalidShape(f"pair ({d[i]}, {d[j]}) is not orthogonal")
        used = sorted(int(k) for pair in self.pairs for k in pair)
        if used != list(range(len(d))):
            raise InvalidShape("pairs must cover each direction exactly once")
        if np.any(self.weights <= 0.0):
            raise InvalidShape("stencil weights must be positive")


class GridDomain:
    """Uniform lattice restricted to a shape, with stencil connectivity.

    ``nbf``/``nbb`` are the one arm table, shape (n_cells, n_directions):
    the forward/backward arm of cell c along direction j ends at entry
    i = nbf[c, j] (nbb[c, j]).  An entry i < n_cells is the neighbouring
    cell; an entry i >= n_cells is the cut point ``cut_xy[i - n_cells]``,
    where the arm leaves the shape.  Each cut point belongs to exactly one
    arm, so values and boundary data concatenated address every arm end.
    """

    def __init__(self, shape, h, stencil, origin, nx, ny):
        self.shape = shape
        self.h = float(h)
        self.stencil = stencil
        self.x0, self.y0 = origin
        self.nx, self.ny = nx, ny

    # filled by build_domain
    mask: np.ndarray      # (nx, ny) bool, lattice centres inside the shape
    cell_id: np.ndarray   # (nx, ny) cell index, -1 outside
    cells: np.ndarray     # (n_cells, 2) lattice indices of the cells
    pts: np.ndarray       # (n_cells, 2) cell centres
    nbf: np.ndarray       # (n_cells, n_directions) forward arm ends
    nbb: np.ndarray       # (n_cells, n_directions) backward arm ends
    armf: np.ndarray      # (n_cells, n_directions) forward arm lengths
    armb: np.ndarray      # (n_cells, n_directions) backward arm lengths
    cut_xy: np.ndarray    # (n_cuts, 2) boundary crossings of the cut arms
    boundary: dict        # trace samples, one per kept axis cut

    @property
    def n_cells(self):
        return len(self.pts)

    def full_array(self, values, fill=np.nan):
        out = np.full((self.nx, self.ny), fill)
        out[self.cells[:, 0], self.cells[:, 1]] = values
        return out

    def interp(self, values, pts, outside=0.0):
        """Bilinear interpolation of interior values at arbitrary points.

        Outside cells contribute ``outside`` (appropriate for fields with
        zero boundary data, where extending by zero is O(h) accurate);
        points beyond the lattice take the value at its nearest edge.
        """
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        clamped = np.clip(np.atleast_2d(pts), (xs[0], ys[0]), (xs[-1], ys[-1]))
        return RegularGridInterpolator(
            (xs, ys), self.full_array(values, fill=outside))(clamped)


def _first_crossing(shape, starts, offsets):
    """Fraction t in (0, 1] where each segment start + t*offset first exits."""
    n = len(starts)
    t_in = np.zeros(n)
    t_out = np.ones(n)
    # coarse scan so re-entrant boundaries resolve to their first crossing
    found = np.zeros(n, dtype=bool)
    for k in range(1, _SCAN_POINTS + 1):
        t = k / _SCAN_POINTS
        out = shape.level(starts + t * offsets) >= 0.0
        newly = out & ~found
        t_out[newly] = t
        t_in[newly] = (k - 1) / _SCAN_POINTS
        found |= out
    t_out[~found] = 1.0
    t_in[~found] = 1.0 - 1.0 / _SCAN_POINTS
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (t_in + t_out)
        out = shape.level(starts + mid[:, None] * offsets) >= 0.0
        t_out = np.where(out, mid, t_out)
        t_in = np.where(out, t_in, mid)
    return 0.5 * (t_in + t_out)


def build_domain(shape, h, stencil=None):
    """Mask the lattice, wire stencil neighbours, and resolve all cuts.

    Raises
    ------
    InvalidShape
        For degenerate shapes or grids with fewer than 100 interior cells.
    """
    shape.validate()
    if stencil is None:
        stencil = StencilSet.default()
    xmin, ymin, xmax, ymax = shape.bbox()
    margin = 5.0 * h
    nx = int(np.ceil((xmax - xmin + 2.0 * margin) / h))
    ny = int(np.ceil((ymax - ymin + 2.0 * margin) / h))
    # centre the lattice on the bbox midpoint so symmetric shapes get
    # symmetric cell sets (the rotation-invariance checks rely on it)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    x0, y0 = cx - 0.5 * nx * h, cy - 0.5 * ny * h

    dom = GridDomain(shape, h, stencil, (x0, y0), nx, ny)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    centers = np.stack([x0 + (ii + 0.5) * h, y0 + (jj + 0.5) * h], axis=-1)
    mask = inside(shape, centers.reshape(-1, 2)).reshape(nx, ny)
    n_in = int(mask.sum())
    if n_in < 100:
        raise InvalidShape(f"only {n_in} interior cells at h={h}; refine")

    cell_id = np.full((nx, ny), -1, dtype=int)
    cells = np.argwhere(mask)
    cell_id[cells[:, 0], cells[:, 1]] = np.arange(n_in)
    pts = centers[cells[:, 0], cells[:, 1]]

    dom.mask, dom.cell_id, dom.cells, dom.pts = mask, cell_id, cells, pts

    # every arm family at once, indexed (side, cell, direction) with the
    # forward side first; an arm whose target is not a cell ends on a cut
    dirs = stencil.directions
    steps = np.stack([dirs, -dirs])
    tgt = cells[None, :, None, :] + steps[:, None, :, :]
    ok = ((tgt >= 0) & (tgt < (nx, ny))).all(axis=-1)
    tgt[~ok] = 0
    nb = np.where(ok, cell_id[tgt[..., 0], tgt[..., 1]], -1)
    arm = np.broadcast_to(np.hypot(dirs[:, 0], dirs[:, 1]) * h, nb.shape).copy()
    # cut ids run over directions, then sides, then cells
    j, side, cut = np.nonzero(nb.transpose(2, 0, 1) < 0)
    offs = steps[side, j] * h
    t = _first_crossing(shape, pts[cut], offs)
    arm[side, cut, j] *= t
    nb[side, cut, j] = n_in + np.arange(cut.size)

    dom.nbf, dom.nbb = nb
    dom.armf, dom.armb = arm
    dom.cut_xy = pts[cut] + t[:, None] * offs

    _build_boundary_samples(dom)
    return dom


def _build_boundary_samples(dom):
    """Pick, per axis cut, the trace sample (cut point, two inward cells)."""
    n = dom.n_cells
    # the axis arms of both sides, indexed (side, cell, axis), forward first
    ends = np.stack([dom.nbf[:, :2], dom.nbb[:, :2]])
    axis, side, cell = np.nonzero(ends.transpose(2, 0, 1) >= n)
    point = dom.cut_xy[ends[side, cell, axis] - n]
    normal = dom.shape.boundary_normal(point)
    # the unit inward step runs against the cut arm
    e_dot_n = np.where(side == 0, -1.0, 1.0) * normal[np.arange(len(point)), axis]
    cell1 = ends[1 - side, cell, axis]
    s = np.where(side == 0, dom.armf[cell, axis], dom.armb[cell, axis])
    # keep cuts where this axis is the dominant normal direction and
    # a second interior cell exists along the inward line
    keep = (np.abs(e_dot_n) >= 0.5) & (cell1 < n)
    rec = dict(cell0=cell, cell1=cell1, s=s, point=point, normal=normal,
               e_dot_n=e_dot_n)
    rec = {k: v[keep] for k, v in rec.items()}
    rec["arc"] = dom.shape.arc_parameter(rec["point"])
    order = np.argsort(rec["arc"], kind="stable")
    dom.boundary = {k: v[order] for k, v in rec.items()}


@dataclass
class GridField:
    """Values on the interior cells plus data on the cut registry."""

    domain: GridDomain
    values: np.ndarray
    boundary_values: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.n_cells,):
            raise ValueError("values must align with the interior cells")
        if not np.isfinite(self.values).all():
            raise ValueError("field has non-finite interior values")

    def full(self, fill=np.nan):
        return self.domain.full_array(self.values, fill)


def boundary_data(dom, g):
    """Evaluate Dirichlet data g (callable or constant) on the cut registry."""
    if callable(g):
        return np.asarray(g(dom.cut_xy[:, 0], dom.cut_xy[:, 1]), dtype=float) \
            * np.ones(len(dom.cut_xy))
    return np.full(len(dom.cut_xy), float(g))


def field_from_function(dom, fn):
    """Sample a function of (x, y) on interior cells and cut points."""
    vals = np.asarray(fn(dom.pts[:, 0], dom.pts[:, 1]), dtype=float)
    bvals = np.asarray(fn(dom.cut_xy[:, 0], dom.cut_xy[:, 1]), dtype=float)
    return GridField(dom, vals * np.ones(dom.n_cells),
                     bvals * np.ones(len(dom.cut_xy)))


def export_field_csv(field, path):
    """Write (x, y, value) rows for the interior cells."""
    dom = field.domain
    data = np.column_stack([dom.pts, field.values])
    np.savetxt(path, data, delimiter=",", header="x,y,value", comments="")
