import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0
from scipy.optimize import brentq

from pucci_lab import (Constant, EigenPower, PowerPair, PucciParams,
                       SymMatrix, Variant, principal_eigenvalue_ball, pucci)
from pucci_lab.errors import (InvalidShape, IterationLimit, OutOfDomain,
                              ReflectionOutOfDomain)
from pucci_lab.grid import (DIRECTIONS, ComparisonReport, Disk,
                            Ellipse, GridField, Polygon, broken_weights,
                            build_domain, comparison_check,
                            critical_plane_position, discretize_F,
                            field_from_function, neumann_trace,
                            principal_eigenvalue_grid, reflect_points,
                            reflection_gap, small_domain_check,
                            solve_dirichlet)
from pucci_lab._iterate import (inverse_power, policy_eigen, policy_iterate,
                                relax)
from pucci_lab.grid import diagnostics as diagnostics_module
from pucci_lab.grid import domain as domain_module
from pucci_lab.grid import solver as solver_module
from pucci_lab.grid.diagnostics import _comparison_case
from pucci_lab.grid.solver import (_GRAD_FLOOR, _active_weights,
                                   _candidate_table, _linearize,
                                   _policy_matrix, _resolved_table)

DISK_LAPLACE_EIG = brentq(j0, 2.0, 3.0) ** 2
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]

LAP = PucciParams(1.0, 1.0)
WIDE = PucciParams(0.5, 2.0)


@pytest.fixture(scope="module")
def disk_dom():
    return build_domain(Disk(1.0), 0.05)


@pytest.fixture(scope="module")
def disk_resolved():
    return resolved(Disk(1.0), 0.05)


@pytest.fixture(scope="module")
def disk_coarse():
    return build_domain(Disk(1.0), 0.1)


@pytest.fixture(scope="module")
def ellipse_dom():
    return build_domain(Ellipse(2.0, 1.0), 0.05)


@pytest.fixture
def count_freezes(monkeypatch):
    """The shapes of the frozen grid matrices made from now on, one entry
    per matrix."""
    calls = []
    real = solver_module._policy_matrix

    def recording(*args):
        mat = real(*args)
        calls.append(mat.shape)
        return mat

    monkeypatch.setattr(solver_module, "_policy_matrix", recording)
    return calls


@pytest.fixture
def count_arm_lengths(monkeypatch):
    """The ``GridDomain.arm_lengths`` calls made from now on, one k per
    call."""
    calls = []
    real = domain_module.GridDomain.arm_lengths

    def recording(self, k=None):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(domain_module.GridDomain, "arm_lengths", recording)
    return calls


def resolved(shape, h, k=len(DIRECTIONS)):
    """A domain whose arm table holds the first k directions."""
    dom = build_domain(shape, h)
    domain_module._resolve(dom, k)
    return dom


def linearized(params, dom, values, bvals):
    return _linearize(params, values, bvals, _resolved_table(params, dom))


def rotated_hessian(deg, lam):
    """The symmetric matrix with eigenvalues lam and its frame at deg
    degrees."""
    th = np.radians(deg)
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return r @ np.diag(lam) @ r.T


def regular(n_sides, radius, turn):
    """The regular polygon of circumradius ``radius``, turned by ``turn``
    radians off the x axis: its vertices come from cos and sin, so its
    images under its own lattice maps agree only up to rounding."""
    t = turn + np.arange(n_sides) * 2.0 * np.pi / n_sides
    return Polygon(radius * np.stack([np.cos(t), np.sin(t)], 1))


def quad_field(dom, hxx, hxy, hyy, gx=0.0, gy=0.0, c0=0.0):
    def fn(x, y):
        return 0.5 * (hxx * x * x + hyy * y * y) + hxy * x * y \
            + gx * x + gy * y + c0
    return field_from_function(dom, fn)


class TestDomain:
    def test_counts_scale_with_area(self):
        d1 = build_domain(Disk(1.0), 0.1)
        d2 = build_domain(Disk(1.0), 0.05)
        ratio = d2.n_cells / d1.n_cells
        assert 3.7 < ratio < 4.3

    @pytest.mark.parametrize("shape", [Ellipse(2.0, 1.0), Polygon(L_SHAPE)],
                             ids=["ellipse", "L"])
    def test_scaled_copy(self, shape):
        assert_allclose(shape.scaled(0.5).bbox(), 0.5 * np.array(shape.bbox()))

    def test_cells_inside(self, disk_dom):
        r = np.hypot(disk_dom.pts[:, 0], disk_dom.pts[:, 1])
        assert r.max() < 1.0

    def test_arm_lengths_positive_and_bounded(self, disk_resolved):
        norms = np.hypot(*DIRECTIONS.T) * disk_resolved.h
        armf, armb = disk_resolved.arm_lengths()
        assert armf.min() > 0.0
        assert np.all(armf <= norms[None, :] * (1 + 1e-12))
        assert np.all(armb <= norms[None, :] * (1 + 1e-12))

    @pytest.mark.parametrize("shape", [Disk(1.0), Ellipse(2.0, 1.0),
                                       Polygon([(0, 0), (2, 0), (0.5, 1.5)]),
                                       Polygon(L_SHAPE)],
                             ids=["disk", "ellipse", "triangle", "L"])
    def test_cut_points_on_boundary(self, shape):
        dom = resolved(shape, 0.05)
        assert np.abs(shape.level(dom.cut_xy)).max() < 1e-12

    @pytest.mark.parametrize("shape", [Disk(1.0),
                                       Polygon([(0, 0), (2, 0), (0.5, 1.5)])],
                             ids=["disk", "triangle"])
    def test_arm_table_addresses_cells_and_cuts(self, shape):
        dom = resolved(shape, 0.05)
        n, n_cut = dom.n_cells, len(dom.cut_xy)
        dirs = DIRECTIONS
        armf, armb = dom.arm_lengths()
        nbf, nbb = dom.nb
        for nb, arm, sign in ((nbf, armf, 1), (nbb, armb, -1)):
            assert nb.shape == (n, len(dirs))
            assert nb.min() >= 0 and nb.max() < n + n_cut
            # an interior entry is the lattice cell one step away
            cell, j = np.nonzero(nb < n)
            assert_array_equal(dom.cells[nb[cell, j]],
                               dom.cells[cell] + sign * dirs[j])
            # a cut entry is where the arm ends, on the boundary
            cell, j = np.nonzero(nb >= n)
            unit = sign * dirs[j] / np.hypot(*dirs[j].T)[:, None]
            assert_allclose(dom.cut_xy[nb[cell, j] - n],
                            dom.pts[cell] + arm[cell, j, None] * unit,
                            rtol=0.0, atol=1e-12)
        assert_array_equal(np.sort(dom.nb[dom.nb >= n]), n + np.arange(n_cut))

    @pytest.mark.parametrize("shape", [Disk(1.0), Polygon(L_SHAPE)],
                             ids=["disk", "L"])
    def test_arm_lengths_from_the_cut_fractions(self, shape):
        # the table stores ends only: an arm along d is |d| h long, times
        # its cut fraction where it is cut
        dom = resolved(shape, 0.05)
        n = dom.n_cells
        assert dom.nb.dtype == np.int32
        full = np.broadcast_to(np.hypot(*DIRECTIONS.T) * dom.h,
                               dom.nb.shape)
        arms, cut = dom.arm_lengths(), dom.nb >= n
        assert_array_equal(arms[~cut], full[~cut])
        assert_array_equal(arms[cut],
                           full[cut] * dom.cut_frac[dom.nb[cut] - n])

    def test_kept_arrays_per_cell(self):
        # the unit disk at h = 0.02 kept 578 bytes per cell when the
        # domain stored int64 ends and float arm lengths, and 202 with
        # int32 ends in 16 directions and 8,172 cuts; the build resolves
        # the 9-point stencil only
        dom = build_domain(Disk(1.0), 0.02)
        assert dom.nb.shape == (2, 7860, 4)
        assert (dom.n_cells, len(dom.cut_xy)) == (7860, 964)
        arrays = [v for v in vars(dom).values() if isinstance(v, np.ndarray)]
        arrays += list(dom.boundary.values())
        buffers = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
        kept = sum(buffers.values())
        assert kept <= 100 * dom.n_cells

    @pytest.mark.parametrize("h", [0.0, -0.05, np.nan, np.inf])
    def test_rejects_bad_spacing(self, h):
        with pytest.raises(InvalidShape, match="finite and positive"):
            build_domain(Disk(1.0), h)

    def test_rejects_tables_past_the_index_type(self, monkeypatch):
        # cells plus cuts must fit the arm table's entries: 7,860 + 964
        # do in int16, and 31,4xx cells with their cuts do not
        monkeypatch.setattr(domain_module, "_INDEX", np.int16)
        assert build_domain(Disk(1.0), 0.02).nb.dtype == np.int16
        with pytest.raises(InvalidShape, match="int16"):
            build_domain(Disk(1.0), 0.01)

    def test_rejects_resolves_past_the_index_type(self, monkeypatch):
        # 25,984 cells and the 1,756 cuts of the 9-point stencil fit int16,
        # the 9,604 cuts of 12 directions do not; a failed resolve leaves
        # the domain as it was
        monkeypatch.setattr(domain_module, "_INDEX", np.int16)
        dom = build_domain(Disk(1.0), 0.011)
        assert (dom.n_cells, len(dom.cut_xy)) == (25984, 1756)
        nb, cut_xy = dom.nb.copy(), dom.cut_xy.copy()
        with pytest.raises(InvalidShape, match="9604 cuts.*int16"):
            domain_module._resolve(dom, len(DIRECTIONS))
        assert_array_equal(dom.nb, nb)
        assert_array_equal(dom.cut_xy, cut_xy)
        assert len(dom.cut_frac) == len(cut_xy)

    @pytest.mark.parametrize("shape", [Disk(1.0), Polygon(L_SHAPE)],
                             ids=["disk", "L"])
    def test_resolve_in_steps_equals_one_step(self, shape):
        steps = resolved(shape, 0.05, 8)
        domain_module._resolve(steps, 12)
        once = resolved(shape, 0.05, 12)
        for name in ("nb", "cut_frac", "cut_xy"):
            assert_array_equal(getattr(steps, name), getattr(once, name))

    @pytest.mark.parametrize("shape", [Disk(1.0), Polygon(L_SHAPE)],
                             ids=["disk", "L"])
    def test_resolve_keeps_the_arms_handed_out(self, shape):
        # new directions append columns and cuts: every arm end and cut
        # already resolved keeps its id and its point
        dom = build_domain(shape, 0.05)
        nb, cut_frac, cut_xy = dom.nb.copy(), dom.cut_frac, dom.cut_xy
        boundary = dict(dom.boundary)
        domain_module._resolve(dom, len(DIRECTIONS))
        assert dom.nb.shape[2] == len(DIRECTIONS)
        assert len(dom.cut_xy) > len(cut_xy)
        assert_array_equal(dom.nb[:, :, :4], nb)
        assert_array_equal(dom.cut_frac[:len(cut_frac)], cut_frac)
        assert_array_equal(dom.cut_xy[:len(cut_xy)], cut_xy)
        assert dom.boundary.keys() == boundary.keys()
        for key, v in boundary.items():
            assert_array_equal(dom.boundary[key], v)
        # resolving what the table holds changes nothing
        nb = dom.nb
        domain_module._resolve(dom, 8)
        assert dom.nb is nb

    @pytest.mark.parametrize("ratio, reach", [(1.0, 4), (5.8, 4), (10.0, 8),
                                              (30.0, 12)])
    def test_solvers_resolve_what_the_scheme_reads(self, ratio, reach):
        # a domain holds the 9-point stencil until a scheme reads farther,
        # which keeps the arm table of every A/a <= 5.8 at 4 directions
        params = PucciParams(0.5, 0.5 * ratio)
        dom = build_domain(Disk(1.0), 0.1)
        sol = solve_dirichlet(params, dom, Constant(1.0))
        assert dom.nb.shape[2] == reach
        assert len(sol.boundary_values) == len(dom.cut_xy)
        dom = build_domain(Disk(1.0), 0.1)
        principal_eigenvalue_grid(params, dom)
        assert dom.nb.shape[2] == reach

    @pytest.mark.parametrize("shape, start, offset, t", [
        # the chord from (0, 0.5) along +x leaves at x = 2 sqrt(3/4)
        (Ellipse(2.0, 1.0), (0.0, 0.5), (4.0, 0.0), np.sqrt(0.75) / 2.0),
        (Ellipse(2.0, 1.0), (0.0, 0.5), (1.0, 0.0), 1.0),
        # the arm across the notch vertex (1, 1) of the L
        (Polygon(L_SHAPE), (0.975, 0.975), (0.05, 0.05), 0.5),
        (Polygon(L_SHAPE), (0.5, 0.5), (0.2, 0.1), 1.0),
    ], ids=["ellipse-chord", "ellipse-inside", "L-notch-vertex", "L-inside"])
    def test_exit_fraction_matches_hand_computed_exit(self, shape, start,
                                                      offset, t):
        got = shape.exit_fraction(np.array([start], dtype=float),
                                  np.array([offset], dtype=float))
        assert_allclose(got, [t], rtol=1e-12)

    def test_no_cell_on_the_boundary(self):
        # seven lattice centres lie on the edge y = 3x up to rounding; as
        # cells they would get outward arms of zero length
        dom = build_domain(Polygon([(0, 0), (2, 0), (0.5, 1.5)]), 0.05)
        assert dom.shape.level(dom.pts).max() < -1e-12 * dom.h
        armf, armb = dom.arm_lengths()
        assert min(armf.min(), armb.min()) > 1e-3 * dom.h

    def test_reentrant_corner_cuts_at_first_crossing(self):
        shape = Polygon(L_SHAPE)
        dom = resolved(shape, 0.05)
        assert np.abs(shape.level(dom.cut_xy)).max() < 1e-12
        dirs = DIRECTIONS
        full = np.hypot(*dirs.T) * dom.h
        armf, armb = dom.arm_lengths()
        for arm, sign in ((armf, 1), (armb, -1)):
            # cut arms are the ones shorter than a full lattice step
            cell, j = np.nonzero(arm < full)
            step = sign * dirs[j] * (arm[cell, j] / full[j])[:, None] * dom.h
            # the arm stays inside up to its cut, so no earlier crossing
            # was skipped
            for frac in (0.25, 0.5, 0.75):
                assert shape.level(dom.pts[cell] + frac * step).max() < 0.0
        u = solve_dirichlet(PucciParams(1.0, 1.5), dom, Constant(1.0))
        assert u.values.min() >= 0.0

    def test_no_arm_leaves_the_shape_before_its_end(self):
        # arms between two cells that pass the exterior notch of the L are
        # cut too, so every arm, cut or not, runs inside up to its end
        shape = Polygon(L_SHAPE)
        dom = resolved(shape, 0.05)
        dirs = DIRECTIONS
        unit = dirs / np.hypot(*dirs.T)[:, None]
        frac = np.arange(31) / 31
        armf, armb = dom.arm_lengths()
        for arm, sign in ((armf, 1), (armb, -1)):
            for j in range(len(dirs)):
                step = sign * unit[j] * arm[:, j, None]
                pts = dom.pts[:, None, :] + frac[:, None] * step[:, None, :]
                assert shape.level(pts.reshape(-1, 2)).max() < 0.0

    def test_mask_symmetric_under_quarter_turn(self, disk_dom):
        m = disk_dom.mask
        assert m.shape[0] == m.shape[1]
        assert np.array_equal(m, np.rot90(m))

    @pytest.mark.parametrize("shape, h", [
        (Disk(1.0), 0.01), (Disk(1.0), 0.02), (Disk(0.7), 0.013),
        (Ellipse(1.5, 1.0), 0.04)], ids=["disk", "coarse", "odd", "ellipse"])
    def test_centres_mirror_exactly(self, shape, h):
        # the lattice lies about the box centre, here 0, so a cell's mirror
        # image has its centre negated in the last bit; the ellipse has an
        # odd nx, a lattice column on the mirror line
        dom = build_domain(shape, h)
        i, j = dom.cells.T
        for image, sign in (((dom.nx - 1 - i, j), (-1.0, 1.0)),
                            ((i, dom.ny - 1 - j), (1.0, -1.0))):
            assert_array_equal(dom.pts[dom.cell_id[image]], sign * dom.pts)
        # the centres are read from the axes that the interpolation reads
        xs, ys = dom.axes()
        assert_array_equal(dom.pts, np.stack([xs[i], ys[j]], axis=1))

    def test_boundary_samples(self, disk_dom):
        b = disk_dom.boundary
        assert len(b["s"]) > 0
        assert np.all(np.diff(b["arc"]) >= 0.0)
        nrm = np.hypot(b["normal"][:, 0], b["normal"][:, 1])
        assert_allclose(nrm, 1.0, atol=1e-12)
        assert np.abs(b["e_dot_n"]).min() >= 0.5

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(InvalidShape):
            build_domain(Disk(-1.0), 0.05)
        with pytest.raises(InvalidShape):
            Polygon([(0, 0), (1, 0)])
        with pytest.raises(InvalidShape):
            Polygon([(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(InvalidShape):
            build_domain(Disk(1.0), 0.5)  # too few interior cells
        # a closed ring repeats its first vertex last: a zero-length edge
        with pytest.raises(InvalidShape, match=r"repeats the vertex \(0, 0\)"):
            Polygon([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])

    @pytest.mark.parametrize("make", [
        lambda: Polygon([(0, 0), (1, 0), (np.nan, 1)]),
        lambda: Polygon([(0, 0), (1, 0), (np.inf, 1)]),
        lambda: Ellipse(np.inf, 1.0), lambda: Ellipse(1.0, np.nan)],
        ids=["polygon-nan", "polygon-inf", "ellipse-inf", "ellipse-nan"])
    def test_rejects_nonfinite_shapes(self, make):
        # a nan vertex failed in build_domain, an inf one warned, and an
        # infinite ellipse overflowed in its build
        with pytest.raises(InvalidShape, match="finite"):
            make()

    def test_polygon_level_sign(self):
        tri = Polygon([(0, 0), (2, 0), (0, 2)])
        lev = tri.level(np.array([[0.3, 0.3], [1.5, 1.5], [0.1, 0.1]]))
        assert lev[0] < 0 and lev[1] > 0 and lev[2] < 0

    def test_stencil_validation(self):
        # 12 distinct directions up to sign
        assert len({tuple(d) for d in DIRECTIONS}
                   | {tuple(-d) for d in DIRECTIONS}) == 24
        # the superbase table reads the first 4, 8 and 12 directions
        for ratio, reach in [(1.5, 4), (5.8, 4), (10.0, 8), (30.0, 12),
                             (37.5, 12)]:
            table = _candidate_table(PucciParams(1.0, ratio))
            assert table.k == reach
            # the arcs read every one of the first k directions
            assert np.all(np.abs(table.forms[:3, :, 2:]).sum(axis=(0, 2)) > 0)
            # the arcs, after the two scalar rows, tile [-pi, pi] in order
            lo, hi = table.lo[2:], table.hi[2:]
            assert lo[0] == -np.pi and abs(hi[-1] - np.pi) < 1e-12
            assert_array_equal(lo[1:], hi[:-1])
            assert np.all(hi > lo)
            vecs = DIRECTIONS[:table.k]
            p, q, r, at_lo, at_hi = table.forms[:, :, 2:]
            for m in range(len(lo)):
                assert np.count_nonzero(np.abs(table.forms[:3, :, 2 + m])
                                        .sum(axis=0)) == 3
                for phi in np.linspace(lo[m], hi[m], 9):
                    # the weights of the unit second differences are
                    # rho |v|^2
                    w = p[:, m] + q[:, m] * np.cos(phi) \
                        + r[:, m] * np.sin(phi)
                    assert w.min() >= -1e-12
                    e = np.array([np.cos(phi / 2), np.sin(phi / 2)])
                    alpha = np.eye(2) + (ratio - 1.0) * np.outer(e, e)
                    got = np.einsum("k,ki,kj->ij",
                                    w / (vecs * vecs).sum(axis=1), vecs, vecs)
                    assert_allclose(got, alpha, atol=1e-12 * ratio)
                # the end weights are those of the arc's ends, one of them 0
                for end, w in ((lo[m], at_lo[:, m]), (hi[m], at_hi[:, m])):
                    assert w.min() == 0.0 and np.count_nonzero(w) == 2
                    assert_allclose(w, np.maximum(
                        p[:, m] + q[:, m] * np.cos(end)
                        + r[:, m] * np.sin(end), 0.0), atol=1e-12 * ratio)

    def test_anisotropy_beyond_the_stencil_rejected(self):
        # (4, 1) joins the superbases between A/a = 37.5 and 38
        with pytest.raises(ValueError, match="A/a = 40 needs lattice"):
            _candidate_table(PucciParams(1.0, 40.0))


class TestOperator:
    def test_exact_on_axis_quadratics(self, disk_dom):
        # eigenframe of the Hessian along the axes
        for hxx, hyy in [(-1.0, -2.0), (1.0, -3.0), (2.0, 0.5)]:
            fld = quad_field(disk_dom, hxx, 0.0, hyy, gx=0.3)
            got = discretize_F(WIDE, disk_dom, fld).values
            lam = np.sort([hxx, hyy])
            want = WIDE.A * np.clip(lam, 0, None).sum() \
                + WIDE.a * np.clip(lam, None, 0).sum()
            assert_allclose(got, want, atol=1e-10)

    def test_exact_on_diagonal_quadratics(self, disk_dom):
        # eigenvectors along (1, 1) and (1, -1)
        fld = quad_field(disk_dom, -1.0, 0.5, -1.0)
        got = discretize_F(WIDE, disk_dom, fld).values
        lam = np.array([-1.5, -0.5])
        want = WIDE.a * lam.sum()
        assert_allclose(got, want, atol=1e-10)

    def test_rotated_quadratic_off_the_lattice_is_exact(self, disk_dom,
                                                        disk_coarse):
        # frames at 30 and 81 degrees lie on no lattice direction; a max
        # over 8 fixed orthogonal direction pairs missed Plus there by
        # (A - a)(lam1 - lam2) sin^2(9 deg) = 4.894e-2 at 81 degrees, at
        # every h
        for dom in (disk_coarse, disk_dom):
            for deg in (30.0, 81.0):
                hess = rotated_hessian(deg, [1.0, -1.0])
                got = discretize_F(PucciParams(1.0, 2.0), dom,
                                   quad_field(dom, hess[0, 0], hess[0, 1],
                                              hess[1, 1])).values
                assert np.abs(1.0 - got).max() <= 1e-10

    @pytest.mark.parametrize("ratio", [1.0, 1.5, 4.0, 10.0, 30.0])
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    def test_exact_on_rotated_quadratics(self, disk_coarse, variant, ratio):
        # the candidates' weights decompose every alpha(theta) exactly, and
        # each cut-cell second difference is exact on quadratics
        params = PucciParams(0.8, 0.8 * ratio, variant)
        # cut data sampled before the domain resolves the directions the
        # scheme reads would miss their cuts
        _resolved_table(params, disk_coarse)
        rng = np.random.default_rng(int(10 * ratio))
        for deg in np.linspace(0.0, 180.0, 37):
            hess = rotated_hessian(deg, rng.uniform(-2.0, 2.0, 2))
            got = discretize_F(params, disk_coarse,
                               quad_field(disk_coarse, hess[0, 0], hess[0, 1],
                                          hess[1, 1], gx=0.3, gy=-0.2)).values
            want = pucci(params, SymMatrix.from_full(hess))
            assert np.abs(got - want).max() <= 1e-9 * abs(want)

    def test_laplacian_for_equal_bounds(self, disk_dom):
        rng = np.random.default_rng(11)
        fld = quad_field(disk_dom, 0.7, -0.4, -1.3, gx=0.2, gy=-0.1, c0=0.4)
        got = discretize_F(LAP, disk_dom, fld).values
        assert_allclose(got, 0.7 - 1.3, atol=1e-9)

    def test_monotone_in_other_values(self, disk_coarse):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(disk_coarse.n_cells)
        bvals = rng.standard_normal(len(disk_coarse.cut_xy))
        base = discretize_F(WIDE, disk_coarse, GridField(disk_coarse, vals, bvals)).values
        k = disk_coarse.n_cells // 2
        bump = rng.random(disk_coarse.n_cells) * 0.5
        bump[k] = 0.0
        bumped = discretize_F(WIDE, disk_coarse,
                              GridField(disk_coarse, vals + bump, bvals)).values
        assert bumped[k] >= base[k] - 1e-12
        bumped_b = discretize_F(WIDE, disk_coarse,
                                GridField(disk_coarse, vals, bvals + 0.2)).values
        assert np.all(bumped_b >= base - 1e-12)

    def test_minus_plus_duality(self, disk_coarse):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(disk_coarse.n_cells)
        bvals = rng.standard_normal(len(disk_coarse.cut_xy))
        pp = PucciParams(0.7, 1.9, Variant.PLUS)
        pm = PucciParams(0.7, 1.9, Variant.MINUS)
        fp = discretize_F(pp, disk_coarse, GridField(disk_coarse, vals, bvals)).values
        fm = discretize_F(pm, disk_coarse, GridField(disk_coarse, -vals, -bvals)).values
        assert_allclose(fp, -fm, atol=1e-12)

    def test_quarter_turn_equivariance(self, disk_coarse):
        dom = disk_coarse

        def fn(x, y):
            return np.sin(1.3 * x) * np.cos(0.7 * y) + 0.2 * x * y

        def fn_rot(x, y):
            # pull back by the inverse rotation (x, y) -> (y, -x)
            return fn(y, -x)

        f1 = discretize_F(WIDE, dom, field_from_function(dom, fn)).values
        f2 = discretize_F(WIDE, dom, field_from_function(dom, fn_rot)).values
        # cell (i, j) of the rotated field corresponds to cell (ny-1-j, i)
        i2 = dom.ny - 1 - dom.cells[:, 1]
        j2 = dom.cells[:, 0]
        perm = dom.cell_id[i2, j2]
        assert np.all(perm >= 0)
        assert_allclose(f2[perm], f1, atol=1e-11)

    def test_gradient_weight(self, disk_coarse):
        p = PucciParams(1.0, 1.0, alpha=1.0)
        fld = quad_field(disk_coarse, -1.0, 0.0, -1.0, gx=2.0)
        got = discretize_F(p, disk_coarse, fld).values
        x, y = disk_coarse.pts.T
        grad = np.hypot(-x + 2.0, -y)
        assert_allclose(got, grad * -2.0, rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5])
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    def test_policy_matrix_reproduces_operator(self, disk_coarse, variant,
                                               alpha):
        # M @ u = F[u] at the linearization point (zero Dirichlet data) is
        # what the Newton step and the eigenpair freeze rest on; a random u
        # keeps every gradient above the floor, so the frozen weight must
        # equal the operator's
        params = PucciParams(0.5, 2.0, variant, alpha)
        u = np.random.default_rng(5).standard_normal(disk_coarse.n_cells)
        zero = np.zeros(len(disk_coarse.cut_xy))
        got = _policy_matrix(linearized(params, disk_coarse, u, zero)) @ u
        want = discretize_F(params, disk_coarse,
                            GridField(disk_coarse, u, zero)).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("variant, tie", [(Variant.PLUS, 0.5),
                                              (Variant.MINUS, 2.0)])
    def test_policy_matrix_tie_takes_negative_side(self, disk_coarse,
                                                   variant, tie):
        # at u = 0 every second difference is 0, and the frozen matrix
        # carries the variant's coefficient of a negative eigenvalue
        zero_u = np.zeros(disk_coarse.n_cells)
        zero = np.zeros(len(disk_coarse.cut_xy))

        def frozen(a, A):
            params = PucciParams(a, A, variant)
            lin = linearized(params, disk_coarse, zero_u, zero)
            return _policy_matrix(lin)

        assert (frozen(0.5, 2.0) != frozen(tie, tie)).nnz == 0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5])
    def test_one_linearization_serves_operator_and_matrix(self, disk_coarse,
                                                          alpha):
        params = PucciParams(0.5, 2.0, Variant.PLUS, alpha)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(disk_coarse.n_cells)
        b = rng.standard_normal(len(disk_coarse.cut_xy))
        lin = linearized(params, disk_coarse, u, b)
        assert_array_equal(lin.value, discretize_F(
            params, disk_coarse, GridField(disk_coarse, u, b)).values)
        got = _policy_matrix(lin)
        want = _policy_matrix(linearized(params, disk_coarse, u, b))
        for part in ("data", "indices", "indptr"):
            assert_array_equal(getattr(got, part), getattr(want, part))

    @pytest.mark.parametrize("shape", [Disk(1.0), Polygon(L_SHAPE)],
                             ids=["disk", "L"])
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    def test_policy_matrix_is_an_m_matrix(self, shape, variant):
        # rows lose their zero sum only through active arms that end on a
        # cut, whose weight moves into the boundary term
        dom = build_domain(shape, 0.1)
        params = PucciParams(0.5, 2.0, variant)
        rng = np.random.default_rng(5)
        lin = linearized(params, dom, rng.standard_normal(dom.n_cells),
                         rng.standard_normal(len(dom.cut_xy)))
        mat = _policy_matrix(lin).tocoo()
        off = mat.row != mat.col
        assert np.all(mat.data[off] > 0.0)
        diag = mat.diagonal()
        assert np.all(diag < 0.0)
        # the active stencil: the arms of the directions the maximizer
        # weights
        active = _active_weights(lin) > 0.0
        cut = ((dom.nb[:, :, :lin.table.k] >= dom.n_cells)
               & active).any(axis=(0, 2))
        assert cut.any() and not cut.all()
        rel = np.asarray(mat.sum(axis=1)).ravel() / np.abs(diag)
        assert np.abs(rel[~cut]).max() <= 1e-12
        assert np.all(rel[cut] < 0.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    def test_newton_matrix_is_the_jacobian(self, disk_coarse, monkeypatch,
                                           whole_domain, variant, alpha):
        # for alpha != 0 the solver's matrix keeps the derivative of the
        # gradient weight; a random u keeps every gradient above the floor
        # and, along a short enough segment, every policy fixed.  A random
        # u is not mirror-symmetric: the solver's linearization is taken
        # on the whole domain
        params = PucciParams(0.5, 2.0, variant, alpha)
        source = EigenPower(2.0)
        captured = []

        def capture(linearize, factor, u0, **kwargs):
            captured.append(linearize)
            return u0

        monkeypatch.setattr(solver_module, "policy_iterate", capture)
        solve_dirichlet(params, disk_coarse, source, 0.0)
        linearize, = captured
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((2, disk_coarse.n_cells))
        zero = np.zeros(len(disk_coarse.cut_xy))
        lin = linearized(params, disk_coarse, u, zero)
        assert lin.g.min() > _GRAD_FLOOR
        eps = 1e-6
        fd = (linearize(u + eps * v)[0] - linearize(u - eps * v)[0]) \
            / (2.0 * eps)
        scale = np.abs(fd).max()
        assert np.abs(linearize(u)[1]() @ v - fd).max() <= 1e-6 * scale
        # the frozen matrix alone, which drops the weight's derivative,
        # is far from it
        howard = _policy_matrix(lin) @ v \
            + source.evaluate_deriv(u, alpha) * v
        assert np.abs(howard - fd).max() > 1e-2 * scale

    def test_broken_stencil_is_inconsistent(self, disk_coarse):
        # the flipped direction is the x axis, which every candidate reads,
        # the 5-point Laplacian of a = A included
        fld = quad_field(disk_coarse, -0.5, 0.0, -0.5)
        good = discretize_F(LAP, disk_coarse, fld).values
        bad = discretize_F(LAP, disk_coarse, fld, broken_weights()).values
        assert np.abs(good + 1.0).max() < 1e-10
        assert np.abs(bad + 1.0).max() > 0.5
        # the weights break one call's candidate table, not the next call's
        assert_array_equal(discretize_F(LAP, disk_coarse, fld).values, good)

    def test_requires_boundary_values(self, disk_coarse):
        fld = GridField(disk_coarse, np.zeros(disk_coarse.n_cells))
        with pytest.raises(ValueError):
            discretize_F(LAP, disk_coarse, fld)

    def test_rejects_data_sampled_before_the_resolve(self):
        # at A/a = 10 the scheme reads 8 directions, whose cuts the
        # 9-point data does not cover
        dom = build_domain(Disk(1.0), 0.1)
        fld = quad_field(dom, -1.0, 0.0, -1.0)
        params = PucciParams(0.5, 5.0)
        with pytest.raises(ValueError, match="sample the field after"):
            discretize_F(params, dom, fld)
        fld = quad_field(dom, -1.0, 0.0, -1.0)
        assert_allclose(discretize_F(params, dom, fld).values, -1.0,
                        atol=1e-10)


class TestDirichlet:
    def test_disk_exact_quadratic(self, disk_dom):
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        x, y = disk_dom.pts.T
        assert_allclose(sol.values, 0.25 * (1 - x * x - y * y), atol=1e-12)

    def test_ellipse_exact_quadratic(self, ellipse_dom):
        ax, ay = 2.0, 1.0
        sol = solve_dirichlet(LAP, ellipse_dom, Constant(1.0), 0.0)
        x, y = ellipse_dom.pts.T
        k = ax * ax * ay * ay / (2.0 * (ax * ax + ay * ay))
        exact = k * (1 - x * x / ax ** 2 - y * y / ay ** 2)
        assert_allclose(sol.values, exact, atol=1e-12)

    def test_matches_radial_closed_form_unequal_bounds(self, disk_dom):
        # concave radial solution: Plus applies its lower bound throughout,
        # the solution stays quadratic, and the grid reproduces it exactly
        from pucci_lab import closed_form_constant
        p = PucciParams(1.0, 2.0)
        sol = solve_dirichlet(p, disk_dom, Constant(1.0), 0.0)
        r = np.hypot(disk_dom.pts[:, 0], disk_dom.pts[:, 1])
        assert_allclose(sol.values, closed_form_constant(p, 2, 1.0, r),
                        atol=1e-12)

    def test_nonzero_boundary_data(self, disk_coarse):
        sol = solve_dirichlet(LAP, disk_coarse, Constant(-1.0),
                              lambda x, y: 0.25 * (x * x + y * y))
        x, y = disk_coarse.pts.T
        assert_allclose(sol.values, 0.25 * (x * x + y * y), atol=1e-11)

    def test_damped_agrees_with_policy(self):
        dom = build_domain(Disk(1.0), 0.12)
        a = solve_dirichlet(WIDE, dom, Constant(1.0), 0.0, tol=1e-9)
        b = solve_dirichlet(WIDE, dom, Constant(1.0), 0.0, method="damped",
                            tol=1e-9)
        assert np.abs(a.values - b.values).max() < 1e-7

    @pytest.mark.parametrize("method", ["policy", "damped"])
    def test_arm_lengths_read_once_per_solve(self, monkeypatch,
                                             count_arm_lengths, method):
        # every linearization of a solve reads the arm lengths its
        # candidate table holds
        dom = build_domain(Disk(1.0), 0.15)
        count_arm_lengths.clear()
        lins = []
        real = solver_module._linearize

        def counting(*args):
            lins.append(1)
            return real(*args)

        monkeypatch.setattr(solver_module, "_linearize", counting)
        solve_dirichlet(WIDE, dom, Constant(1.0), _oscillating, tol=1e-4,
                        method=method)
        assert len(lins) > 2 and count_arm_lengths == [4]

    def test_residual_criterion(self, disk_coarse):
        sol = solve_dirichlet(WIDE, disk_coarse, EigenPower(2.0), 0.0,
                              tol=1e-10)
        res = discretize_F(WIDE, disk_coarse, sol).values \
            + EigenPower(2.0).evaluate(sol.values, 0.0)
        assert np.abs(res).max() <= 1e-10 * max(1.0, np.abs(sol.values).max())

    def test_unknown_method(self, disk_coarse):
        with pytest.raises(ValueError):
            solve_dirichlet(LAP, disk_coarse, Constant(1.0), 0.0,
                            method="cg")

    def test_one_factor_per_policy_step(self, disk_coarse, count_splu,
                                        count_freezes):
        # oscillating data keep the maximizers moving for several steps
        solve_dirichlet(WIDE, disk_coarse, Constant(1.0),
                        lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y))
        assert 1 < len(count_splu) == len(count_freezes)

    def test_gradient_degenerate_case_converges(self):
        # the paper's operator with alpha = 0.5: errors 1.98e-3 and 7.40e-4
        # against the closed form, order 1.42.  alpha = 1 solves too
        # (5.63e-3 and 2.19e-3), but for alpha > 0 the centred gradient
        # is not monotone and the discrete solution need not be unique
        from pucci_lab import closed_form_constant
        p = PucciParams(1.0, 1.0, alpha=0.5)
        errs = []
        for h in (0.1, 0.05):
            dom = build_domain(Disk(1.0), h)
            sol = solve_dirichlet(p, dom, Constant(1.0), 0.0)
            r = np.hypot(dom.pts[:, 0], dom.pts[:, 1])
            errs.append(np.abs(sol.values
                               - closed_form_constant(p, 2, 1.0, r)).max())
        assert np.log2(errs[0] / errs[1]) >= 1.2

    def test_singular_case_solves_by_newton(self, disk_dom, count_splu):
        from pucci_lab import closed_form_constant
        p = PucciParams(0.5, 2.0, Variant.PLUS, -0.5)
        sol = solve_dirichlet(p, disk_dom, Constant(1.0), 0.0)
        r = np.hypot(disk_dom.pts[:, 0], disk_dom.pts[:, 1])
        err = np.abs(sol.values - closed_form_constant(p, 2, 1.0, r)).max()
        # 2.480e-3 measured
        assert err <= 2.5e-3
        # 7 measured; the fixed point in the frozen weight took 33
        # factorizations on the scheme of 8 orthogonal pairs
        assert len(count_splu) <= 8

    def test_newton_steps_stable_under_last_bit_cuts(self, disk_dom,
                                                     count_splu,
                                                     whole_domain):
        # cut fractions moved in their last bits: Newton takes 7
        # factorizations at each here (10, 9, 9 and 10 on the scheme of 8
        # orthogonal pairs, whose fixed point in the frozen weight took 33,
        # 30, 31 and 30); on the whole domain, as such cuts fold too
        p = PucciParams(1.0, 1.5, Variant.PLUS, -0.5)
        counts = []
        for seed in (None, 1, 2, 3):
            dom = copy.copy(disk_dom)
            if seed is not None:
                noise = np.random.default_rng(seed).standard_normal(
                    len(dom.cut_frac))
                dom.cut_frac = dom.cut_frac * (1.0 + 1e-14 * noise)
            count_splu.clear()
            solve_dirichlet(p, dom, Constant(1.0), 0.0)
            counts.append(len(count_splu))
        assert max(abs(c - counts[0]) for c in counts[1:]) <= 1

    def test_converged_start_builds_no_matrix(self, disk_coarse,
                                              count_freezes):
        u = solve_dirichlet(WIDE, disk_coarse, Constant(1.0))
        count_freezes.clear()
        again = solve_dirichlet(WIDE, disk_coarse, Constant(1.0),
                                u0=u.values)
        assert count_freezes == []
        assert_array_equal(again.values, u.values)

    def test_rejects_bad_start(self, disk_coarse):
        for u0 in (np.zeros(5), np.full(disk_coarse.n_cells, np.nan)):
            with pytest.raises(ValueError):
                solve_dirichlet(WIDE, disk_coarse, Constant(1.0), u0=u0)

    def test_step_cap_below_one_rejected(self, disk_coarse):
        with pytest.raises(ValueError, match="at least 1"):
            solve_dirichlet(WIDE, disk_coarse, Constant(1.0), 0.0,
                            max_outer=0)

    @pytest.mark.parametrize("loop", [
        lambda r, cap: policy_iterate(lambda v: (r(v), None), None,
                                      np.ones(3), tol=1e-8, max_steps=cap),
        lambda r, cap: relax(r, np.ones(3), 0.1, tol=1e-8, max_steps=cap),
        # the frozen matrix is -diag(1, 2, 3), so the first freeze finds
        # the pair (1, e1) and then reads the residual r(e1) + e1
        lambda r, cap: policy_eigen(
            lambda v: (r(v), lambda: sp.diags([-1.0, -2.0, -3.0],
                                              format="csc")),
            spla.splu, np.ones(3), tol=1e-8, eig_tol=1e-12, max_steps=cap),
    ], ids=["policy_iterate", "relax", "policy_eigen"])
    def test_loop_caps_and_non_finite_residuals(self, loop):
        with pytest.raises(ValueError, match="at least 1"):
            loop(lambda v: v, 0)
        with pytest.raises(IterationLimit, match="not finite") as info:
            loop(lambda v: v * np.nan, 5)
        assert len(info.value.history) == 1

    def test_eigen_cap_below_one_rejected(self, disk_coarse):
        with pytest.raises(ValueError, match="at least 1"):
            principal_eigenvalue_grid(LAP, disk_coarse, max_power=0)

    def test_policy_limit_carries_history(self, disk_coarse):
        with pytest.raises(IterationLimit) as info:
            solve_dirichlet(WIDE, disk_coarse, Constant(1.0), 0.0,
                            max_outer=1)
        assert len(info.value.history) == 1
        assert info.value.history[0] > 0.0


def _oscillating(x, y):
    return np.sin(3.0 * x) * np.cos(2.0 * y)


@pytest.fixture(scope="module")
def square_fine():
    # 40,000 cells: two levels of 3 x 3 blocks above the coarsest
    return build_domain(Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]), 0.01)


class TestNewtonMultigrid:
    """The Dirichlet steps above ``_COARSEST`` unknowns, against the
    whole-matrix LU on the same linearization."""

    @staticmethod
    def solve_both(monkeypatch, params, dom, g):
        """The Newton iterate of solve_dirichlet and the LU path's, each
        with the sizes of the matrices its steps solved, then the first
        step's matrix and the lattice cells the multigrid aggregates: all
        on the folded domain, where the domain folds."""
        runs = []
        real = solver_module.policy_iterate

        def recording(factor, sizes):
            def make(mat):
                sizes.append(mat.shape[0])
                return factor(mat)
            return make

        def capture(linearize, factor, u0, **kwargs):
            steps = []
            u = real(linearize, recording(factor, steps), u0, **kwargs)
            runs.append((u, linearize, factor.keywords["cells"], u0, kwargs,
                         steps))
            return u

        monkeypatch.setattr(solver_module, "policy_iterate", capture)
        solve_dirichlet(params, dom, Constant(1.0), g)
        (u, linearize, cells, u0, kwargs, steps), = runs
        lu_steps = []
        ref = real(linearize, recording(solver_module._factor, lu_steps), u0,
                   **kwargs)
        return u, ref, steps, lu_steps, linearize(u0)[1](), cells

    @pytest.mark.parametrize("case", ["square", "singular", "hexagon"])
    def test_matches_lu(self, request, monkeypatch, count_splu, square_fine,
                        case):
        # measured at most 1.4e-14 relative, with equal step counts
        if case == "square":
            # the whole square: its data, odd in x, would leave the y
            # mirror alone to fold it to 20,000 cells
            request.getfixturevalue("whole_domain")
            params, dom, g = WIDE, square_fine, _oscillating
        elif case == "singular":
            # the disk folds by all 8 maps, to 3,964 cells at h = 0.01
            params = PucciParams(0.5, 2.0, Variant.PLUS, -0.5)
            dom, g = build_domain(Disk(1.0), 0.01), 0.0
        else:
            # A/a = 10 reads 8 directions; the data, odd in x, keep the
            # hexagon's half turn from folding it: 6,494 cells
            params, g = PucciParams(1.0, 10.0), _oscillating
            dom = build_domain(regular(6, 1.0, 0.1), 0.02)
        u, ref, steps, lu_steps, mat, cells = self.solve_both(
            monkeypatch, params, dom, g)
        n = len(cells)
        levels = solver_module._Multigrid(mat, cells).levels
        assert len(levels) == (2 if case == "square" else 1)
        assert steps == lu_steps == [n] * len(steps)
        assert len(steps) > 1
        # no step fell back: the whole-matrix factors are the LU path's
        assert sum(m == n for m, _ in count_splu) == len(steps)
        assert np.abs(u - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_fallback_is_the_lu_path(self, monkeypatch, count_splu):
        # one BiCGSTAB iteration never reaches the relative residual 1e-12,
        # so every step factors its whole matrix as well as the coarsest
        monkeypatch.setattr(solver_module, "_KRYLOV_CAP", 1)
        params = PucciParams(0.5, 2.0, Variant.PLUS, -0.5)
        # 3,964 folded cells, above _COARSEST
        dom = build_domain(Disk(1.0), 0.01)
        u, ref, steps, lu_steps, _, cells = self.solve_both(
            monkeypatch, params, dom, 0.0)
        assert_array_equal(u, ref)
        assert len(steps) == len(lu_steps) > 1
        coarse = [n for n, _ in count_splu if n < len(cells)]
        assert len(coarse) == len(steps)
        assert len(count_splu) == len(coarse) + 2 * len(steps)

    def test_one_coarse_factor_per_newton_step(self, square_fine, count_splu,
                                               count_freezes):
        solve_dirichlet(WIDE, square_fine, Constant(1.0), _oscillating)
        assert 1 < len(count_splu) == len(count_freezes)
        assert max(n for n, _ in count_splu) <= solver_module._COARSEST

    def test_small_matrix_takes_the_lu(self, monkeypatch, disk_dom,
                                       whole_domain, count_splu):
        # at most _COARSEST unknowns: the hierarchy is empty, and each step
        # is one whole-matrix factor that solves it alone
        assert disk_dom.n_cells <= solver_module._COARSEST

        def no_krylov(*args, **kwargs):
            raise AssertionError("BiCGSTAB ran on a matrix with no levels")

        monkeypatch.setattr(spla, "bicgstab", no_krylov)
        solve_dirichlet(WIDE, disk_dom, Constant(1.0), _oscillating)
        assert set(count_splu) == {(disk_dom.n_cells,) * 2}
        rng = np.random.default_rng(3)
        mat = _policy_matrix(linearized(
            WIDE, disk_dom, rng.standard_normal(disk_dom.n_cells),
            rng.standard_normal(len(disk_dom.cut_xy))))
        grid = solver_module._Multigrid(mat, disk_dom.cells)
        assert grid.levels == []
        rhs = rng.standard_normal(disk_dom.n_cells)
        assert_array_equal(grid.solve(rhs),
                           solver_module._factor(mat).solve(rhs))


def _captured(monkeypatch, params, dom, source, g=0.0, u0=None):
    """The fold solve_dirichlet makes and the linearization it hands its
    Newton loop, with no step taken."""
    got = {}
    fold = solver_module._folded

    def folding(*args):
        got["fold"] = fold(*args)
        return got["fold"]

    def capture(linearize, factor, u, **kwargs):
        got["linearize"] = linearize
        return u

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "_folded", folding)
        patch.setattr(solver_module, "policy_iterate", capture)
        solve_dirichlet(params, dom, source, g, u0=u0)
    return got["fold"], got["linearize"]


def _even(x, y):
    # even in x and in y to the last bit
    return x * x * (1.0 - 2.0 * y * y) + 0.5 * y * y


def _perturbed_cuts(dom, rel, rng):
    """A copy of ``dom`` whose cut fractions are moved by about ``rel``
    relative, each its own way."""
    dom = copy.copy(dom)
    dom.cut_frac = dom.cut_frac * (
        1.0 + rel * rng.standard_normal(len(dom.cut_frac)))
    return dom


def _mirrors(dom):
    """Each cell's image under the x mirror and under the y mirror."""
    i, j = dom.cells.T
    return (dom.cell_id[dom.nx - 1 - i, j], dom.cell_id[i, dom.ny - 1 - j])


_FOLD_CASES = {
    # an even nx, the odd-nx ellipse, 8 directions, the singular weight
    # and Minus with data even in x and in y, which breaks the diagonal
    # mirrors and the quarter turns: 4 maps of the group hold.  The
    # singular case's zero data keep all 8 maps, the turned square's the
    # rotations alone and the turned hexagon's the half turn alone; the
    # last entry is the order of the group that folds
    "disk": (WIDE, (Disk(1.0), 0.04), Constant(1.0), _even, 4),
    "ellipse": (PucciParams(1.0, 4.0), (Ellipse(1.5, 1.0), 0.04),
                Constant(1.0), _even, 4),
    "ratio10": (PucciParams(1.0, 10.0), (Disk(1.0), 0.05), Constant(1.0),
                _even, 4),
    "singular": (PucciParams(0.5, 2.0, Variant.PLUS, -0.5),
                 (Disk(1.0), 0.05), Constant(1.0), 0.0, 8),
    "minus": (PucciParams(0.5, 2.0, Variant.MINUS), (Disk(1.0), 0.05),
              Constant(-1.0), _even, 4),
    "square": (WIDE, (regular(4, np.sqrt(2.0), 0.3), 0.04), Constant(1.0),
               0.0, 4),
    "hexagon": (PucciParams(1.0, 10.0), (regular(6, 1.0, 0.1), 0.04),
                Constant(1.0), _even, 2),
}


class TestMirrorFold:
    """Solves on the mirror-folded domain against the whole domain, the
    ``whole_domain`` fixture."""

    def test_lattice_maps_are_the_square_group(self):
        # the 7 maps and the identity: distinct orthogonal integer
        # matrices, closed under products
        group = [np.eye(2, dtype=int), *solver_module._LATTICE_MAPS]
        keys = {g.tobytes() for g in group}
        assert len(keys) == 8
        for g in group:
            assert_array_equal(g @ g.T, np.eye(2))
            for f in group:
                assert (g @ f).tobytes() in keys

    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_mirrors_map_the_directions_read(self, k):
        # a table reads the first k directions, each along both sides:
        # every lattice map takes each (direction, side) to one of them,
        # forward or turned round, and permutes them
        arms = np.concatenate([DIRECTIONS[:k], -DIRECTIONS[:k]])
        for g in solver_module._LATTICE_MAPS:
            hit = ((arms @ g.T)[:, None] == arms).all(axis=2)
            assert_array_equal(hit.sum(axis=0), np.ones(2 * k))
            assert_array_equal(hit.sum(axis=1), np.ones(2 * k))

    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    @pytest.mark.parametrize("ratio", [4.0, 10.0, 30.0])
    def test_candidate_extremum_commutes_with_quarter_turn(self, ratio,
                                                            variant):
        # second differences that are no quadratic's, one row per cell:
        # turning them by 90 degrees moves the maximizing angle by 90
        # degrees, and the extremum over it stays, up to rounding
        params = PucciParams(1.0, ratio, variant)
        table = _candidate_table(params)
        k, n = table.k, 400
        dirs = DIRECTIONS[:k]
        turned = dirs @ np.array([[0, 1], [-1, 0]])
        col = ((turned[:, None] == dirs).all(axis=2)
               | (turned[:, None] == -dirs).all(axis=2)).argmax(axis=1)
        assert sorted(col) == list(range(k))
        # each arm of a cell of value 0 ends at cut data of half the
        # difference, with unit weights
        table.nb = np.arange(n, n + 2 * n * k).reshape(2, n, k)
        table.second = np.ones((2, n, k))

        def extremum(delta):
            return _linearize(params, np.zeros(n),
                              np.tile(0.5 * delta.ravel(), 2), table).core

        delta = np.random.default_rng(11).standard_normal((n, k))
        ref = extremum(delta)
        assert np.abs(extremum(delta[:, col]) - ref).max() <= \
            1e-13 * ratio * np.abs(delta).max()

    def test_axis_swaps_need_a_square_lattice(self):
        # on an nx != ny lattice the quarter turns and the diagonal
        # mirrors do not map the box onto itself: no map, and no index
        # past the box, which these long ellipses' images would reach
        for shape in (Ellipse(2.0, 0.5), Ellipse(0.5, 2.0)):
            dom = build_domain(shape, 0.1)
            assert dom.nx != dom.ny
            table = _resolved_table(WIDE, dom)
            rim = np.flatnonzero(
                (table.nb >= dom.n_cells).any(axis=0).any(axis=1))
            got = [solver_module._mirror(dom, table, g, rim)
                   for g in solver_module._LATTICE_MAPS]
            assert [m is None for m in got] == [
                g[0, 0] == 0 for g in solver_module._LATTICE_MAPS]

    @pytest.mark.parametrize("case", list(_FOLD_CASES))
    def test_linearization_is_the_whole_domain_one(self, monkeypatch,
                                                   request, case):
        params, (shape, h), source, g, order = _FOLD_CASES[case]
        dom = build_domain(shape, h)
        fold, folded = _captured(monkeypatch, params, dom, source, g)
        # an orbit has at most ``order`` cells, and the cells that a map
        # fixes are few
        assert dom.n_cells / order <= len(fold.keep) < 1.25 * dom.n_cells \
            / order
        request.getfixturevalue("whole_domain")
        _, whole = _captured(monkeypatch, params, dom, source, g)
        # a mirror-symmetric iterate, with every policy in play
        v = np.random.default_rng(5).standard_normal(len(fold.keep))
        value, freeze = folded(v)
        whole_value, whole_freeze = whole(v[fold.to_r])
        assert_array_equal(value, whole_value[fold.keep])
        # the folded matrix sums the columns of a mirror orbit
        w = np.random.default_rng(6).standard_normal(len(fold.keep))
        ref = (whole_freeze() @ w[fold.to_r])[fold.keep]
        assert np.abs(freeze() @ w - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("case", list(_FOLD_CASES))
    def test_solve_matches_whole_domain(self, request, case):
        params, (shape, h), source, g, _ = _FOLD_CASES[case]
        dom = build_domain(shape, h)
        # the ellipse has a lattice column on its mirror line, the others
        # not
        assert dom.nx % 2 == (case == "ellipse")
        u = solve_dirichlet(params, dom, source, g).values
        request.getfixturevalue("whole_domain")
        ref = solve_dirichlet(params, dom, source, g).values
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("params", [LAP, WIDE])
    def test_eigenpair_matches_whole_domain(self, request, params):
        # the ellipse folds by 4 maps, the disk by all 8
        doms = [build_domain(shape, 0.04)
                for shape in (Ellipse(1.5, 1.0), Disk(1.0))]
        pairs = [principal_eigenvalue_grid(params, dom) for dom in doms]
        request.getfixturevalue("whole_domain")
        for dom, (lam, phi) in zip(doms, pairs):
            lam_ref, phi_ref = principal_eigenvalue_grid(params, dom)
            assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0.0)
            assert np.abs(phi.values - phi_ref.values).max() <= 1e-12

    def test_folded_field_is_mirror_symmetric(self):
        dom = build_domain(Ellipse(1.5, 1.0), 0.04)
        u = solve_dirichlet(WIDE, dom, Constant(1.0), _even).values
        _, phi = principal_eigenvalue_grid(WIDE, dom)
        for image in _mirrors(dom):
            assert_array_equal(u[image], u)
            assert_array_equal(phi.values[image], phi.values)

    @pytest.mark.parametrize("case", [
        "scalene triangle", "cuts off by 1e-8", "data x + 2y", "start"])
    def test_asymmetric_problems_are_not_folded(self, monkeypatch, request,
                                                case):
        # each case breaks all 7 lattice maps, so the solve is the whole
        # domain's to the bit
        dom = build_domain(
            Polygon([(-1.0, -0.6), (1.1, -0.4), (-0.2, 0.9)])
            if case == "scalene triangle" else Disk(1.0), 0.1)
        rng = np.random.default_rng(7)
        kwargs = dict(params=WIDE, dom=dom, source=Constant(1.0), g=0.0)
        if case == "cuts off by 1e-8":
            # a symmetric mask whose cut arms' weights differ from their
            # images' by far more than _FOLD_RTOL
            dom = kwargs["dom"] = _perturbed_cuts(dom, 1e-8, rng)
        elif case == "data x + 2y":
            kwargs["g"] = lambda x, y: x + 2.0 * y
        elif case == "start":
            kwargs["u0"] = rng.uniform(0.0, 0.1, dom.n_cells)
        fold, _ = _captured(monkeypatch, **kwargs)
        assert_array_equal(fold.keep, np.arange(dom.n_cells))
        u = solve_dirichlet(**kwargs).values
        request.getfixturevalue("whole_domain")
        assert_array_equal(u, solve_dirichlet(**kwargs).values)

    def test_folded_alpha_one_solve_solves_the_whole_scheme(self, request):
        # the g = 0.2 comparison solve of ``properties --set alpha=1``:
        # folded by all 8 maps it converges, and the field mapped back
        # solves the whole domain's scheme within tol; the whole domain's
        # Newton loop stalls at its step cap
        params = PucciParams(1.0, 2.0, Variant.PLUS, 1.0)
        dom = build_domain(Disk(1.0), 0.1)
        source, tol = Constant(1.0), 1e-8
        u = solve_dirichlet(params, dom, source, 0.2, tol=tol)
        res = discretize_F(params, dom, u).values \
            + source.evaluate(u.values, params.alpha)
        assert np.abs(res).max() <= tol * max(1.0, np.abs(u.values).max())
        request.getfixturevalue("whole_domain")
        with pytest.raises(IterationLimit):
            solve_dirichlet(params, dom, source, 0.2, tol=tol)

    def test_last_bit_cuts_fold(self, monkeypatch, request):
        # cut weights that differ from their images' in the last bits, as
        # a turned polygon's do, lie within _FOLD_RTOL: the disk folds by
        # all 8 maps, and the solve is the whole domain's up to rounding
        dom = build_domain(Disk(1.0), 0.1)
        fold, _ = _captured(monkeypatch, WIDE, dom, Constant(1.0))
        dom = _perturbed_cuts(dom, 1e-14, np.random.default_rng(7))
        got, _ = _captured(monkeypatch, WIDE, dom, Constant(1.0))
        assert_array_equal(got.keep, fold.keep)
        assert len(fold.keep) < dom.n_cells / 6
        u = solve_dirichlet(WIDE, dom, Constant(1.0)).values
        request.getfixturevalue("whole_domain")
        ref = solve_dirichlet(WIDE, dom, Constant(1.0)).values
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape, g, axis", [
        (Disk(1.0), lambda x, y: x, 1), (Ellipse(1.5, 1.0),
                                         lambda x, y: y, 0)],
        ids=["x", "y"])
    def test_odd_data_folds_the_other_mirror(self, monkeypatch, request,
                                             shape, g, axis):
        # data odd in one coordinate break that mirror, and the domain
        # folds by the other alone: the cells in the lower half of the
        # folded axis, about half of them
        dom = build_domain(shape, 0.05)
        fold, _ = _captured(monkeypatch, WIDE, dom, Constant(1.0), g)
        half = dom.cells[:, axis] <= (dom.mask.shape[axis] - 1) / 2
        assert_array_equal(fold.keep, np.flatnonzero(half))
        assert 2 * len(fold.keep) >= dom.n_cells
        u = solve_dirichlet(WIDE, dom, Constant(1.0), g).values
        assert_array_equal(u[_mirrors(dom)[axis]], u)
        request.getfixturevalue("whole_domain")
        ref = solve_dirichlet(WIDE, dom, Constant(1.0), g).values
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


class TestEigenvalue:
    def test_disk_matches_bessel(self):
        dom = build_domain(Disk(1.0), 0.04)
        lam, phi = principal_eigenvalue_grid(LAP, dom)
        # -5.6e-4 measured (-7.5e-3 with a max over 8 direction pairs)
        assert abs(lam - DISK_LAPLACE_EIG) / DISK_LAPLACE_EIG < 1e-3
        assert phi.values.min() > -1e-12
        assert_allclose(np.abs(phi.values).max(), 1.0)

    def test_matches_radial_shooting(self):
        p = PucciParams(1.0, 1.5)
        lam_rad = principal_eigenvalue_ball(p, 2, 1.0)
        dom = build_domain(Disk(1.0), 0.04)
        lam_grid, _ = principal_eigenvalue_grid(p, dom)
        # -4.9e-4 measured (-6.9e-3 with a max over 8 direction pairs)
        assert abs(lam_grid - lam_rad) / lam_rad < 1e-3

    def test_eigenfunction_center_peak(self):
        dom = build_domain(Disk(1.0), 0.05)
        _, phi = principal_eigenvalue_grid(LAP, dom)
        r = np.hypot(dom.pts[:, 0], dom.pts[:, 1])
        assert r[np.argmax(phi.values)] < 0.1

    def test_rejects_gradient_exponent(self, disk_coarse):
        with pytest.raises(ValueError):
            principal_eigenvalue_grid(PucciParams(1.0, 1.0, alpha=1.0),
                                      disk_coarse)

    @pytest.mark.parametrize("params", [LAP, PucciParams(1.0, 1.5)])
    def test_matches_inverse_power(self, disk_dom, params, count_solves):
        table = _resolved_table(params, disk_dom)
        bvals = np.zeros(len(disk_dom.cut_xy))

        def linearize(v, x):
            lin = _linearize(params, v, bvals, table)
            return lin.value + x, lambda: _policy_matrix(lin)

        # each inverse-power step solves F[phi] = -x by policy iteration
        def step(x, prev):
            return policy_iterate(lambda v: linearize(v, x),
                                  solver_module._factor,
                                  x if prev is None else prev, tol=1e-12,
                                  max_steps=80)

        lam_ip, phi_ip = inverse_power(step, np.ones(disk_dom.n_cells),
                                       tol=1e-10, max_power=400)
        solves = count_solves(solver_module)
        lam, phi = principal_eigenvalue_grid(params, disk_dom)
        assert lam == pytest.approx(lam_ip, rel=1e-6)
        assert np.abs(phi.values - phi_ip).max() < 1e-4
        assert phi.values.min() > 0.0 and phi_ip.min() > 0.0
        # a one-pair Krylov space: scipy's default of 20 vectors makes 21
        # solves per freeze
        assert 0 < max(solves) <= 12

    def test_one_factor_per_new_frozen_matrix(self, disk_dom, count_splu,
                                              count_freezes):
        principal_eigenvalue_grid(WIDE, disk_dom)
        # the eigen loop's start check never accepts the start from ones
        # (F[1] = 0 at a cell whose stencil is all inside, so the residual
        # there is the Rayleigh quotient itself): every freeze is factored
        assert len(count_splu) == len(count_freezes) == 4
        # at a = A the scheme is the linear 5-point Laplacian, which one
        # freeze resolves (inverse power with policy inner solves made 34
        # factorizations on this mesh)
        count_splu.clear()
        count_freezes.clear()
        principal_eigenvalue_grid(LAP, disk_dom)
        assert len(count_splu) == len(count_freezes) == 1

    def test_one_linearization_per_freeze(self, disk_dom, count_freezes,
                                          monkeypatch):
        # the residual of one freeze and the matrix of the next share a
        # linearization (18 for 9 freezes when each made its own)
        calls = []
        real = solver_module._linearize

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver_module, "_linearize", counting)
        principal_eigenvalue_grid(WIDE, disk_dom)
        assert 0 < len(count_freezes) and len(calls) <= len(count_freezes) + 1

    def test_arm_lengths_read_once(self, disk_dom, count_freezes,
                                   count_arm_lengths):
        principal_eigenvalue_grid(WIDE, disk_dom)
        assert len(count_freezes) == 4 and count_arm_lengths == [4]

    def test_limit_carries_history(self, disk_coarse):
        with pytest.raises(IterationLimit) as info:
            principal_eigenvalue_grid(WIDE, disk_coarse, max_power=1)
        assert len(info.value.history) == 1
        assert info.value.history[0] > 0.0

    def test_arpack_failure_is_an_iteration_limit(self, disk_coarse,
                                                  monkeypatch):
        def failing(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigs", failing)
        with pytest.raises(IterationLimit) as info:
            principal_eigenvalue_grid(LAP, disk_coarse)
        assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)


class TestNeumannTrace:
    def test_disk_constant_trace(self, disk_dom):
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        arc, dn = neumann_trace(sol)
        assert len(dn) > 50
        assert_allclose(dn, -0.5, atol=1e-10)

    def test_ellipse_trace_spread(self, ellipse_dom):
        sol = solve_dirichlet(LAP, ellipse_dom, Constant(1.0), 0.0)
        arc, dn = neumann_trace(sol)
        # exact normal derivative runs from -0.8 (flat sides) to -0.4 (tips)
        assert abs(np.abs(dn).max() - 0.8) < 2e-3
        assert abs(np.abs(dn).min() - 0.4) < 2e-3
        spread = np.abs(dn).max() - np.abs(dn).min()
        assert abs(spread - 0.4) < 3e-3

    def test_rejects_nonzero_data(self, disk_coarse):
        sol = solve_dirichlet(LAP, disk_coarse, Constant(-1.0),
                              lambda x, y: 0.25 * (x * x + y * y))
        with pytest.raises(ValueError):
            neumann_trace(sol)

    def test_no_usable_axis_cuts(self):
        # a sliver 0.025 wide turned 45 degrees: each of its 107 cells has
        # an axis cut, but none with a second cell along the inward axis
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        corners = np.array([(-1.5, -0.0125), (1.5, -0.0125), (1.5, 0.0125),
                            (-1.5, 0.0125)]) @ np.array([[c, s], [-s, c]])
        dom = build_domain(Polygon(corners), 0.02)
        assert dom.n_cells == 107 and len(dom.boundary["s"]) == 0
        fld = GridField(dom, np.zeros(dom.n_cells), np.zeros(len(dom.cut_xy)))
        with pytest.raises(OutOfDomain, match="no usable axis cuts"):
            neumann_trace(fld)


class TestReflection:
    def test_reflect_points_involution(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((40, 2))
        d = (0.6, -0.8)
        back = reflect_points(reflect_points(pts, d, 0.3), d, 0.3)
        assert_allclose(back, pts, atol=1e-12)

    def test_disk_gap_nonpositive_at_center(self, disk_dom):
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        # lattice-preserving reflections are exact; generic directions pick
        # up interpolation bias near the boundary, bounded by 2h
        for d in [(1, 0), (0, 1), (1, 1)]:
            assert reflection_gap(sol, d, 0.0) <= 1e-10
        assert reflection_gap(sol, (2, -1), 0.0) <= 2.0 * disk_dom.h

    def test_disk_gap_interior_planes(self, disk_dom):
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        for t in (-0.7, -0.4, -0.1):
            assert reflection_gap(sol, (1, 0), t) <= 2.0 * disk_dom.h

    def test_interior_plane_gap_negative(self, ellipse_dom):
        sol = solve_dirichlet(LAP, ellipse_dom, Constant(1.0), 0.0)
        gap = reflection_gap(sol, (1, 0), -0.8)
        assert gap < 0.0

    def test_raises_past_critical_plane(self, ellipse_dom):
        sol = solve_dirichlet(LAP, ellipse_dom, Constant(1.0), 0.0)
        with pytest.raises(ReflectionOutOfDomain):
            reflection_gap(sol, (1, 0), 0.5)

    def test_empty_cap_raises(self, disk_dom):
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        with pytest.raises(OutOfDomain):
            reflection_gap(sol, (1, 0), -2.0)

    @pytest.mark.parametrize("direction", [(0, 0), (np.nan, 1.0),
                                           (np.inf, 0.0)])
    def test_rejects_a_direction_naming_no_plane(self, disk_dom, direction):
        # a zero direction warned in a 0/0 and came back as nan
        sol = solve_dirichlet(LAP, disk_dom, Constant(1.0), 0.0)
        for call in (lambda: critical_plane_position(Disk(1.0), direction),
                     lambda: reflect_points(disk_dom.pts, direction, 0.0),
                     lambda: reflection_gap(sol, direction, 0.0)):
            with pytest.raises(ValueError, match="plane direction"):
                call()

    def test_critical_plane_symmetric_shapes(self):
        assert abs(critical_plane_position(Disk(1.0), (0.3, 1.0))) < 1e-6
        assert abs(critical_plane_position(Ellipse(2.0, 1.0), (1, 0))) < 1e-6
        assert abs(critical_plane_position(Ellipse(2.0, 1.0), (0, 1))) < 1e-6

    def test_critical_plane_asymmetric_shape(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        t = critical_plane_position(tri, (1, 0))
        # the vertex (0, 1) reflects across x = t to (2t, 1), outside the
        # triangle for every t > 0, so the exact critical offset is 0; the
        # level slack of 1e-9 admits a positive t below it
        assert 0.0 < t < 1e-8

    @pytest.mark.parametrize("direction", [(1, 0), (0, 1)])
    def test_critical_plane_reaches_polygon_vertices(self, direction):
        # the vertex (0, 1), or (3, 0), decides the critical offset 0;
        # sampled between vertices it read 1.9e-4 along both axes
        tri = Polygon([(0, 0), (3, 0), (0, 1)])
        assert abs(critical_plane_position(tri, direction)) < 1e-8

    def test_polygon_boundary_points_hold_the_vertices(self):
        tri = Polygon([(0, 0), (3, 0), (0, 1)])
        for n in (3, 10, 4096):
            pts = tri.boundary_points(n)
            assert len(pts) >= n
            for v in tri.vertices:
                assert np.any(np.all(pts == v, axis=1))
            # in arc order: the arc parameter never falls
            assert np.all(np.diff(tri.arc_parameter(pts)) >= -1e-12)

    @staticmethod
    def _bisect(shape, d, samples, iters):
        # the reference bisection: every step reflects the boolean-masked
        # samples below the trial offset
        d = np.asarray(d, float) / np.hypot(*d)
        bpts = shape.boundary_points(samples)
        proj = bpts @ d
        lo, hi = proj.min(), proj.max()

        def ok(t):
            sel = proj < t
            return (not np.any(sel)
                    or shape.level(reflect_points(bpts[sel], d, t)).max()
                    <= 1e-9)

        t_lo, t_hi = lo, hi
        for _ in range(iters):
            mid = 0.5 * (t_lo + t_hi)
            t_lo, t_hi = (mid, t_hi) if ok(mid) else (t_lo, mid)
        return t_lo, hi - lo

    @pytest.mark.parametrize("shape, direction", [
        (Disk(1.0), (np.cos(0.3), np.sin(0.3))),
        (Ellipse(2.0, 1.0), (1, 2)),
        (Polygon(L_SHAPE), (1, 0)),
        (Polygon([(0, 0), (3, 0), (0, 1)]), (1, 1)),
    ], ids=["disk", "ellipse", "L", "triangle"])
    def test_critical_plane_stops_at_relative_width(self, shape, direction):
        rtol = diagnostics_module._PLANE_RTOL
        ref, width = self._bisect(shape, direction, 4096, 80)
        got = critical_plane_position(shape, direction, samples=4096,
                                      iters=80)
        assert abs(got - ref) <= rtol * width
        # a cap below the stopping width runs all its steps
        ref5, _ = self._bisect(shape, direction, 4096, 5)
        assert critical_plane_position(shape, direction, samples=4096,
                                       iters=5) == ref5

    @staticmethod
    def _whole_cell_gap(field, d, t):
        # the reference gap: every cell reflected and levelled
        dom = field.domain
        d = np.asarray(d, float) / np.hypot(*d)
        proj = dom.pts @ d
        refl = reflect_points(dom.pts, d, t)
        lev = dom.shape.level(refl)
        swept = lev[proj < t]
        if np.any(swept > 1e-9):
            raise ReflectionOutOfDomain("reference")
        cap = (proj > t) & (lev < 0.0)
        if not np.any(cap):
            raise OutOfDomain("reference")
        return float((dom.interp(field.values, refl[cap])
                      - field.values[cap]).max())

    @pytest.mark.parametrize("fixture", ["disk_dom", "ellipse_dom"])
    def test_gap_matches_whole_cell_reference(self, request, fixture):
        dom = request.getfixturevalue(fixture)
        sol = solve_dirichlet(WIDE, dom, Constant(1.0), 0.0)
        for d in [(1, 0), (0, 1), (2, -1), (np.cos(2.5), np.sin(2.5))]:
            t_star = critical_plane_position(dom.shape, d)
            for t in np.linspace(-2.0, t_star, 7):
                try:
                    want = self._whole_cell_gap(sol, d, float(t))
                except OutOfDomain:
                    with pytest.raises(OutOfDomain):
                        reflection_gap(sol, d, float(t))
                    continue
                assert reflection_gap(sol, d, float(t)) == want
            # beyond the critical plane both raise
            with pytest.raises(ReflectionOutOfDomain):
                self._whole_cell_gap(sol, d, t_star + 0.3)
            with pytest.raises(ReflectionOutOfDomain):
                reflection_gap(sol, d, t_star + 0.3)
        # a plane before the shape has an empty cap
        with pytest.raises(OutOfDomain):
            self._whole_cell_gap(sol, (1, 1), -3.0)
        with pytest.raises(OutOfDomain, match="cap is empty"):
            reflection_gap(sol, (1, 1), -3.0)

    @pytest.mark.parametrize("samples", [1, 2])
    def test_critical_plane_rejects_too_few_samples(self, samples):
        # samples=1 returned -1.0
        with pytest.raises(ValueError, match="samples"):
            critical_plane_position(Disk(1.0), (1, 0), samples=samples)

    def test_critical_plane_rejects_no_steps(self):
        # iters=0 returned the lowest boundary projection
        with pytest.raises(ValueError, match="iters"):
            critical_plane_position(Disk(1.0), (1, 0), iters=0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_an_offset_that_is_not_finite(self, disk_dom, t):
        # nan read as an empty cap, and inf overflowed in reflect_points
        sol = GridField(disk_dom, np.zeros(disk_dom.n_cells))
        for call in (lambda: reflect_points(disk_dom.pts, (1, 0), t),
                     lambda: reflection_gap(sol, (1, 0), t)):
            with pytest.raises(ValueError, match="offset t"):
                call()


class TestComparison:
    def test_ordered_data(self, disk_coarse):
        rep = comparison_check(LAP, disk_coarse, Constant(1.0), 0.0,
                               lambda x, y: 0.1 + 0.0 * x)
        assert isinstance(rep, ComparisonReport)
        assert rep.case == "nonincreasing"
        assert rep.passed
        assert rep.gap <= 0.0 + 1e-10

    @pytest.mark.parametrize("source, case", [
        (Constant(1.0), "nonincreasing"), (EigenPower(-1.0), "nonincreasing"),
        (EigenPower(1.0), "homogeneous"),
        (PowerPair(-1.0, 1.0, 3.0), "nonincreasing"),
        (PowerPair(2.0, 1.0, 3.0), "homogeneous")])
    def test_case_read_from_sign_of_lam(self, source, case):
        assert _comparison_case(source) == case

    def test_foreign_source_rejected(self):
        with pytest.raises(ValueError):
            _comparison_case(object())

    def test_decreasing_zeroth_order(self, disk_coarse):
        rep = comparison_check(WIDE, disk_coarse, EigenPower(-1.0), -0.2, 0.0)
        assert rep.passed

    def test_unordered_data_rejected(self, disk_coarse):
        with pytest.raises(ValueError):
            comparison_check(LAP, disk_coarse, Constant(1.0), 0.1, 0.0)

    def test_data_ordered_on_every_cut_the_solves_read(self):
        # at A/a = 10 the solves read 8 directions; data ordered on the
        # cuts of the 9-point stencil only is not ordered
        dom = build_domain(Disk(1.0), 0.1)
        nine = {tuple(p) for p in dom.cut_xy}

        def off_nine(x, y):
            return np.array([float((p, q) not in nine) for p, q in zip(x, y)])

        with pytest.raises(ValueError, match="not ordered"):
            comparison_check(PucciParams(0.5, 5.0), dom, Constant(1.0),
                             off_nine, 0.0)

    def test_homogeneous_case_needs_zero_data(self, disk_coarse):
        with pytest.raises(ValueError):
            comparison_check(LAP, disk_coarse, EigenPower(1.0), 0.0,
                             lambda x, y: 0.1 + 0.0 * x)

    def test_supercritical_pair_accepted(self, disk_coarse):
        rep = comparison_check(LAP, disk_coarse, PowerPair(2.0, 1.0, 3.0),
                               0.0, 0.0)
        assert rep.case == "homogeneous"
        assert rep.passed

    @pytest.mark.parametrize("error", [
        IterationLimit("forced", [1.0]),
        RuntimeError("Factor is exactly singular")])
    def test_solver_breakdown_counts_as_failure(self, disk_coarse,
                                                monkeypatch, error):
        # the second solve breaks down: the comparison fails and reports no
        # gap or threshold, where it used to raise
        real, solved = diagnostics_module.solve_dirichlet, []

        def failing_second(*args, **kwargs):
            solved.append(args[3])
            if len(solved) == 2:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics_module, "solve_dirichlet",
                            failing_second)
        rep = comparison_check(LAP, disk_coarse, Constant(1.0), 0.0, 0.2)
        assert solved == [0.0, 0.2]
        assert rep.case == "nonincreasing"
        assert not rep.passed
        assert rep.gap is None and rep.threshold is None


class TestSmallDomain:
    def test_threshold_between_known_eigenvalues(self):
        # square of side s has first eigenvalue 2 pi^2 / s^2; with shift 30
        # the principle fails at side 1 (eig 19.7) and holds at side 1/2
        sq = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        rep = small_domain_check(LAP, 30.0, sq, scales=(1.0, 0.5, 0.25),
                                 cells_across=20)
        assert rep.passed
        assert rep.sup_values[0] > 1e-3
        assert rep.sup_values[1] <= 1e-8
        assert_allclose(rep.threshold_size, np.sqrt(2) / 2)

    def test_solver_breakdown_counts_as_failure(self, monkeypatch):
        # the half-size copy's solve raises IterationLimit, so its sup reads
        # inf and only the smallest copy can set the threshold
        real, solved = diagnostics_module.solve_dirichlet, []

        def failing_second(*args, **kwargs):
            solved.append(args[1].n_cells)
            if len(solved) == 2:
                raise IterationLimit("forced", [1.0])
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics_module, "solve_dirichlet",
                            failing_second)
        rep = small_domain_check(LAP, 1.0, Disk(0.5), scales=(1.0, 0.5, 0.25),
                                 cells_across=16)
        assert len(solved) == 3
        assert rep.sup_values[1] == np.inf
        assert rep.sup_values[0] <= 1e-8 and rep.sup_values[2] <= 1e-8
        assert rep.passed
        assert_allclose(rep.threshold_size, np.sqrt(2) / 4)

    def test_singular_source_derivative_at_zero(self):
        # at alpha < 0 the probe term's f' = shift (1 + alpha)|w|^alpha is
        # infinite at the start w = 0; the matrix reads it at the gradient
        # floor, and Newton leaves w = 0 (every sup read inf before)
        sq = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        rep = small_domain_check(PucciParams(1.0, 2.0, Variant.PLUS, -0.5),
                                 10.0, sq)
        assert rep.passed and max(rep.sup_values) <= 0.0
        assert_allclose(rep.threshold_size, np.sqrt(2))

    def test_small_shift_all_pass(self):
        sq = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        rep = small_domain_check(LAP, 1.0, sq, scales=(1.0, 0.5),
                                 cells_across=16)
        assert rep.passed
        assert_allclose(rep.threshold_size, np.sqrt(2))
        assert all(v <= 1e-8 for v in rep.sup_values)


class TestFieldUtilities:
    def test_interp_linear_exact(self, disk_coarse):
        vals = 2.0 * disk_coarse.pts[:, 0] - disk_coarse.pts[:, 1]
        pts = np.array([[0.1, 0.2], [-0.3, 0.15], [0.0, 0.0]])
        got = disk_coarse.interp(vals, pts)
        assert_allclose(got, 2.0 * pts[:, 0] - pts[:, 1], atol=1e-12)

    @pytest.mark.parametrize("shape, h, parity", [
        (Disk(1.0), 0.01, 0), (Ellipse(1.004, 0.55), 0.01, 1),
    ], ids=["even nx", "odd nx"])
    def test_interp_matches_regular_grid_interpolator(self, shape, h,
                                                       parity):
        from scipy.interpolate import RegularGridInterpolator
        dom = build_domain(shape, h)
        assert dom.nx % 2 == parity
        rng = np.random.default_rng(5)
        # values of unit size, so that 1e-14 is a few roundings; weights
        # from (x - x0) / h alone were 5e-14 off on these 210-wide lattices
        vals = rng.uniform(-1.0, 1.0, dom.n_cells)
        xs, ys = dom.axes()
        full = np.zeros((dom.nx, dom.ny))
        full[dom.cells[:, 0], dom.cells[:, 1]] = vals
        oracle = RegularGridInterpolator((xs, ys), full)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
        edges = np.concatenate([
            np.stack([np.full(ys.size, xs[0]), ys], 1),
            np.stack([np.full(ys.size, xs[-1]), ys], 1),
            np.stack([xs, np.full(xs.size, ys[0])], 1),
            np.stack([xs, np.full(xs.size, ys[-1])], 1)])
        pts = np.concatenate([
            # random points, beyond the lattice on every side too
            rng.uniform((xs[0] - 1.0, ys[0] - 1.0),
                        (xs[-1] + 1.0, ys[-1] + 1.0), (2000, 2)),
            grid,  # every lattice centre, the outside cells among them
            edges])
        clamped = np.clip(pts, (xs[0], ys[0]), (xs[-1], ys[-1]))
        got = dom.interp(vals, pts)
        assert_allclose(got, oracle(clamped), rtol=0.0, atol=1e-14)
        # the outside cells read 0, the inside ones their value
        at = dom.interp(vals, grid).reshape(dom.nx, dom.ny)
        assert_allclose(at, full, rtol=0.0, atol=1e-14)

    def test_csv_matches_savetxt(self, tmp_path, disk_dom):
        from pucci_lab.grid import export_field_csv
        # a full block of rows and a part one
        assert domain_module._CSV_ROWS < disk_dom.n_cells \
            < 2 * domain_module._CSV_ROWS
        vals = np.random.default_rng(3).standard_normal(disk_dom.n_cells)
        vals[:3] = (0.0, -0.0, 1e300)
        fld = GridField(disk_dom, vals)
        export_field_csv(fld, tmp_path / "field.csv")
        np.savetxt(tmp_path / "want.csv",
                   np.column_stack([disk_dom.pts, vals]), delimiter=",",
                   header="x,y,value", comments="")
        assert ((tmp_path / "field.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_csv_round_trip(self, tmp_path, disk_coarse):
        from pucci_lab.grid import export_field_csv
        fld = field_from_function(disk_coarse, lambda x, y: x + y)
        path = tmp_path / "field.csv"
        export_field_csv(fld, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (disk_coarse.n_cells, 3)
        assert_allclose(data[:, 2], data[:, 0] + data[:, 1], atol=1e-12)
