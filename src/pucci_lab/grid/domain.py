"""Masked uniform grids on curved domains with cut-cell boundary data.

Cells are the points of a uniform lattice whose centres fall inside the
shape.  Every stencil arm that leaves the domain ends where it first
crosses the boundary, which each shape computes in closed form, and those
cut distances drive one-sided differences of the same order as the
interior scheme, which is what keeps boundary traces usable at O(h^2).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidShape


@dataclass(frozen=True)
class Ellipse:
    ax: float
    ay: float

    def __post_init__(self):
        if not (0.0 < self.ax < np.inf and 0.0 < self.ay < np.inf):
            raise InvalidShape("ellipse semi-axes must be finite and positive")

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

    def exit_fraction(self, starts, offsets):
        """First t in (0, 1] where start + t*offset leaves the ellipse, or
        1 where the segment stays inside; starts lie inside."""
        p, d = starts / (self.ax, self.ay), offsets / (self.ax, self.ay)
        # |p + t d| = 1 is a t^2 + 2 b t + c = 0 with c < 0; its positive
        # root, in the form that does not cancel
        a, b = (d * d).sum(axis=1), (p * d).sum(axis=1)
        c = (p * p).sum(axis=1) - 1.0
        root = np.sqrt(b * b - a * c)
        t = np.where(b > 0.0, -c / (b + root), (root - b) / a)
        return np.minimum(t, 1.0)

    def scaled(self, s):
        return Ellipse(self.ax * s, self.ay * s)


def Disk(radius):
    """The disk of the given radius about the origin, an ellipse with
    equal axes."""
    return Ellipse(radius, radius)


class Polygon:
    """Simple polygon; vertices are reordered counter-clockwise."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise InvalidShape("polygon needs at least 3 planar vertices")
        if not np.isfinite(v).all():
            raise InvalidShape("polygon vertices must be finite")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if abs(area2) < 1e-14:
            raise InvalidShape("polygon has vanishing area")
        self.vertices = v if area2 > 0.0 else v[::-1].copy()
        self._edges = np.roll(self.vertices, -1, axis=0) - self.vertices
        self._edge_len = np.hypot(self._edges[:, 0], self._edges[:, 1])
        # a zero-length edge would be a 0/0 in every edge distance
        if not self._edge_len.all():
            x, y = self.vertices[self._edge_len.argmin()]
            raise InvalidShape(f"polygon repeats the vertex ({x:g}, {y:g}); "
                               f"list each vertex once")
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
        """At least n points along the boundary: n evenly spaced in arc
        length, merged with the vertices, in arc order from vertex 0."""
        total = self._cum_len[-1]
        s = np.union1d(np.linspace(0.0, total, n, endpoint=False),
                       self._cum_len[:-1])
        idx = np.searchsorted(self._cum_len, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.vertices) - 1)
        frac = (s - self._cum_len[idx]) / self._edge_len[idx]
        return self.vertices[idx] + frac[:, None] * self._edges[idx]

    def exit_fraction(self, starts, offsets):
        """First t in (0, 1] where start + t*offset leaves the polygon, or
        1 where the segment stays inside; starts lie inside.  The exit is
        the nearest crossing of an edge e with cross(offset, e) > 0, the
        outward sense of a counter-clockwise edge."""
        def cross(u, v):
            return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

        d, e = offsets[:, None, :], self._edges[None, :, :]
        rel = self.vertices[None, :, :] - starts[:, None, :]
        denom = cross(d, e)
        # an arm parallel to an edge up to rounding does not cross it
        out = denom > 1e-12 * np.hypot(*offsets.T)[:, None] * self._edge_len
        denom = np.where(out, denom, 1.0)
        t, s = cross(rel, e) / denom, cross(rel, d) / denom
        # the slack on the edge parameter s keeps an arm through a vertex
        # from slipping between the two edges that meet there
        hit = out & (t > 0.0) & (s >= -1e-12) & (s <= 1.0 + 1e-12)
        return np.where(hit, t, 1.0).min(axis=1, initial=1.0)

    def scaled(self, s):
        return Polygon(self.vertices * s)


# the 12 lattice directions with offsets up to 3, up to sign, that the
# scheme's superbases read (the solver's _candidate_table), in the order
# they join: every table reads a prefix of 2, 4, 8 or 12 of them
DIRECTIONS = np.array([
    (1, 0), (0, 1),
    (1, 1), (1, -1),
    (2, 1), (1, -2),
    (1, 2), (2, -1),
    (3, 1), (1, -3),
    (1, 3), (3, -1),
], dtype=int)
_LENGTHS = np.hypot(*DIRECTIONS.T)
# the arm table's entry type, which bounds cells plus cuts
_INDEX = np.int32


def broken_weights():
    """Negative control: per-direction weights of the second differences,
    1 except direction 0, the x axis, which enters with a flipped sign and
    so destroys monotonicity and consistency of the scheme; every
    candidate reads it."""
    weights = np.ones(len(DIRECTIONS))
    weights[0] = -1.0
    return weights


class GridDomain:
    """Uniform lattice restricted to a shape, with stencil connectivity.

    ``nb`` is the one arm table, int32 of shape (2, n_cells, k), the
    forward side first: the forward/backward arm of cell c along
    direction j ends at entry i = nb[0, c, j] (nb[1, c, j]).  An
    entry i < n_cells is the neighbouring cell; an entry i >= n_cells is
    the cut point ``cut_xy[i - n_cells]``, where the arm leaves the shape.
    Each cut point belongs to exactly one arm, so values and boundary data
    concatenated address every arm end.  The table holds the first k
    entries of ``DIRECTIONS``: the build resolves the 9-point stencil
    (k = 4), and a solver whose scheme reads farther resolves the prefix
    it reads once, at first read (``_resolve``); the new columns and cut
    points are appended, so every arm end handed out keeps its id, and
    boundary data sampled before a resolve no longer covers the cuts.
    The domain stores no arm lengths:
    an arm along d has length |d| h, times ``cut_frac`` where it is cut, and
    ``arm_lengths(k, rows)`` reads those of the first k directions of the
    cells ``rows`` through the arm table, as arm-end values are read; a
    solve asks once, for the cells it reads.
    """

    def __init__(self, shape, h, centre, nx, ny):
        self.shape = shape
        self.h = float(h)
        self.cx, self.cy = centre
        self.nx, self.ny = nx, ny

    # filled by build_domain
    mask: np.ndarray      # (nx, ny) bool, lattice centres inside the shape
    cell_id: np.ndarray   # (nx, ny) cell index, -1 outside
    cells: np.ndarray     # (n_cells, 2) lattice indices of the cells
    pts: np.ndarray       # (n_cells, 2) cell centres
    nb: np.ndarray        # (2, n_cells, k) int32 arm ends, k resolved
    cut_frac: np.ndarray  # (n_cuts,) share of its full length a cut arm keeps
    cut_xy: np.ndarray    # (n_cuts, 2) boundary crossings of the cut arms
    boundary: dict        # trace samples, one per kept axis cut

    @property
    def n_cells(self):
        return len(self.pts)

    def axes(self):
        """The lattice's centre coordinates along x and along y, placed
        about the centre (cx, cy) as c + (i - (n - 1)/2) h: a lattice centred
        at 0 is mirror-symmetric in the last bit."""
        return tuple(c + (np.arange(n) - 0.5 * (n - 1)) * self.h
                     for c, n in ((self.cx, self.nx), (self.cy, self.ny)))

    def arm_lengths(self, k=None, rows=slice(None)):
        """Arm lengths shaped like ``nb[:, rows, :k]``: |d| h for an arm
        along d, times the cut fraction where the arm is cut."""
        nb = self.nb[:, rows, :k]
        arms = np.concatenate([np.ones(self.n_cells), self.cut_frac]).take(nb)
        arms *= _LENGTHS[:nb.shape[2]] * self.h
        return arms

    def interp(self, values, pts):
        """Bilinear interpolation of interior values at arbitrary points.

        Outside cells contribute 0 (appropriate for fields with zero
        boundary data, where extending by zero is O(h) accurate); points
        beyond the lattice take the value at its nearest edge.  Each point
        reads the four lattice centres about it by index, with weights
        taken from the lattice coordinates.  Raises ValueError for a point
        that is not finite.
        """
        pts = np.atleast_2d(pts)
        if not np.isfinite(pts).all():
            raise ValueError("interpolation points must be finite")
        ends = np.append(values, 0.0)
        lower, weight = [], []
        for ax, x in zip(self.axes(), pts.T):
            x = np.clip(x, ax[0], ax[-1])
            i = np.minimum(((x - ax[0]) / self.h).astype(int), len(ax) - 2)
            lower.append(i)
            weight.append((x - ax[i]) / (ax[i + 1] - ax[i]))
        (i, j), (wx, wy) = lower, weight
        cid = self.cell_id
        return ((1.0 - wx) * ((1.0 - wy) * ends[cid[i, j]]
                              + wy * ends[cid[i, j + 1]])
                + wx * ((1.0 - wy) * ends[cid[i + 1, j]]
                        + wy * ends[cid[i + 1, j + 1]]))


def build_domain(shape, h):
    """Mask the lattice, wire the 9-point stencil, and resolve its cuts.

    Raises
    ------
    InvalidShape
        For degenerate shapes, a spacing h that is not finite and positive,
        grids with fewer than 100 interior cells, or more cells and cuts
        than the int32 arm table can address (also raised by a later
        ``_resolve``).
    """
    if not 0.0 < h < np.inf:
        raise InvalidShape(f"grid spacing must be finite and positive, "
                           f"got h={h}")
    xmin, ymin, xmax, ymax = shape.bbox()
    margin = 5.0 * h
    nx = int(np.ceil((xmax - xmin + 2.0 * margin) / h))
    ny = int(np.ceil((ymax - ymin + 2.0 * margin) / h))
    # centre the lattice on the bbox midpoint so symmetric shapes get
    # symmetric cell sets (the rotation-invariance checks and the solver's
    # mirror fold rely on it)
    dom = GridDomain(shape, h, (0.5 * (xmin + xmax), 0.5 * (ymin + ymax)),
                     nx, ny)
    centers = np.stack(np.meshgrid(*dom.axes(), indexing="ij"), axis=-1)
    level = shape.level(centers.reshape(-1, 2)).reshape(nx, ny)
    # a centre on the boundary up to rounding would get a zero-length arm
    mask = level < -1e-12 * h
    n_in = int(mask.sum())
    if n_in < 100:
        raise InvalidShape(f"only {n_in} interior cells at h={h}; refine")

    cell_id = np.full((nx, ny), -1, dtype=int)
    cells = np.argwhere(mask)
    cell_id[cells[:, 0], cells[:, 1]] = np.arange(n_in)
    pts = centers[cells[:, 0], cells[:, 1]]

    dom.mask, dom.cell_id, dom.cells, dom.pts = mask, cell_id, cells, pts
    dom.nb = np.empty((2, n_in, 0), dtype=_INDEX)
    dom.cut_frac, dom.cut_xy = np.empty(0), np.empty((0, 2))
    # the 9-point stencil, all the scheme reads for A/a <= 5.83
    _resolve(dom, 4, level[mask])
    _build_boundary_samples(dom)
    return dom


def _resolve(dom, k, inside=None):
    """Extend the arm table to the first k directions (no-op if it holds
    them), one direction and side at a time.

    The new columns are appended to ``nb`` and their cut points after the
    existing ones, ordered by direction, then side, then cell, which is the
    order of the cut ids; so resolving in steps gives the table of one
    step, and every arm end already handed out keeps its id.  ``inside``
    is the level of the cell centres, taken from the shape if not given.

    Raises
    ------
    InvalidShape
        Where the cells and cuts would overflow the arm table's entry
        type; the domain is then left as it was.
    """
    done = dom.nb.shape[2]
    if k <= done:
        return
    if inside is None:
        inside = dom.shape.level(dom.pts)
    n_in, ny, h = dom.n_cells, dom.ny, dom.h
    # the 5h lattice margin keeps every arm end of a cell on the lattice
    flat_id = dom.cell_id.reshape(-1)
    at = dom.cells[:, 0] * ny + dom.cells[:, 1]
    new = np.empty((2, n_in, k - done), dtype=dom.nb.dtype)
    near = []
    for j in range(done, k):
        # an arm is cut where it ends off the cells (at t = 1 if its end
        # rounds inside the shape) or where it crosses the boundary before
        # reaching a cell, which needs the cell to lie within one arm length
        # of it (level is a signed distance for polygons; a convex shape
        # holds every segment between two of its cells)
        close = inside > -_LENGTHS[j] * h
        for side, sign in enumerate((1, -1)):
            end = flat_id[at + sign * (DIRECTIONS[j] @ (ny, 1))]
            new[side, :, j - done] = end
            near.append((side * n_in + np.flatnonzero((end < 0) | close))
                        * (k - done) + j - done)
    # the candidate arms as flat positions in the new columns, in the
    # order of the cut ids
    pos = np.concatenate(near)
    side, cell, j = np.unravel_index(pos, new.shape)
    offs = np.where(side == 0, 1, -1)[:, None] * DIRECTIONS[done + j] * h
    t = dom.shape.exit_fraction(dom.pts[cell], offs)
    cut = (t < 1.0) | (new.reshape(-1)[pos] < 0)
    pos, cell, t, offs = pos[cut], cell[cut], t[cut], offs[cut]
    n_cut = len(dom.cut_frac) + pos.size
    if n_in + n_cut > np.iinfo(new.dtype).max:
        raise InvalidShape(f"{n_in} cells and {n_cut} cuts in {k} "
                           f"directions at h={h} overflow the "
                           f"{new.dtype.name} arm table")
    new.reshape(-1)[pos] = np.arange(n_in + n_cut - pos.size, n_in + n_cut)

    dom.nb = np.concatenate([dom.nb, new], axis=2)
    dom.cut_frac = np.concatenate([dom.cut_frac, t])
    dom.cut_xy = np.concatenate([dom.cut_xy,
                                 dom.pts[cell] + t[:, None] * offs])


def _build_boundary_samples(dom):
    """Pick, per axis cut, the trace sample (cut point, two inward cells)."""
    n = dom.n_cells
    # the axis arms of both sides, indexed (side, cell, axis), forward first
    ends = dom.nb[:, :, :2]
    axis, side, cell = np.nonzero(ends.transpose(2, 0, 1) >= n)
    cut = ends[side, cell, axis] - n
    point = dom.cut_xy[cut]
    normal = dom.shape.boundary_normal(point)
    # the unit inward step runs against the cut arm
    e_dot_n = np.where(side == 0, -1.0, 1.0) * normal[np.arange(len(point)), axis]
    cell1 = ends[1 - side, cell, axis]
    s = dom.arm_lengths(2)[side, cell, axis]
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


def boundary_data(dom, g):
    """Evaluate Dirichlet data g (callable or constant) on the cut registry."""
    if callable(g):
        return np.asarray(g(dom.cut_xy[:, 0], dom.cut_xy[:, 1]), dtype=float) \
            * np.ones(len(dom.cut_xy))
    return np.full(len(dom.cut_xy), float(g))


def field_from_function(dom, fn):
    """Sample a function of (x, y) on interior cells and cut points."""
    vals = np.asarray(fn(dom.pts[:, 0], dom.pts[:, 1]), dtype=float)
    return GridField(dom, vals * np.ones(dom.n_cells), boundary_data(dom, fn))


# rows per block of the CSV exports
_CSV_ROWS = 1024


def _write_csv(path, header, data):
    """``np.savetxt(path, data, delimiter=",", header=header, comments="")``
    to the byte, with one format call per block of rows, so that the text
    in memory stays a block's."""
    row = ",".join(["%.18e"] * data.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for at in range(0, len(data), _CSV_ROWS):
            block = data[at:at + _CSV_ROWS]
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def export_field_csv(field, path):
    """Write x,y,value rows for the interior cells (``_write_csv``)."""
    dom = field.domain
    _write_csv(path, "x,y,value", np.column_stack([dom.pts, field.values]))
