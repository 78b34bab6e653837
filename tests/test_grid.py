import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0
from scipy.optimize import brentq

from pucci_lab import (Constant, EigenPower, PowerPair, PucciParams, Variant,
                       principal_eigenvalue_ball)
from pucci_lab.errors import (InvalidShape, IterationLimit, OutOfDomain,
                              ReflectionOutOfDomain)
from pucci_lab.grid import (DIRECTIONS, PAIRS, ComparisonReport, Disk,
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
from pucci_lab.grid.solver import _GRAD_FLOOR, _linearize, _policy_matrix

DISK_LAPLACE_EIG = brentq(j0, 2.0, 3.0) ** 2
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]

LAP = PucciParams(1.0, 1.0)
WIDE = PucciParams(0.5, 2.0)


@pytest.fixture(scope="module")
def disk_dom():
    return build_domain(Disk(1.0), 0.05)


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

    def test_arm_lengths_positive_and_bounded(self, disk_dom):
        norms = np.hypot(*DIRECTIONS.T) * disk_dom.h
        armf, armb = disk_dom.arm_lengths()
        assert armf.min() > 0.0
        assert np.all(armf <= norms[None, :] * (1 + 1e-12))
        assert np.all(armb <= norms[None, :] * (1 + 1e-12))

    @pytest.mark.parametrize("shape", [Disk(1.0), Ellipse(2.0, 1.0),
                                       Polygon([(0, 0), (2, 0), (0.5, 1.5)]),
                                       Polygon(L_SHAPE)],
                             ids=["disk", "ellipse", "triangle", "L"])
    def test_cut_points_on_boundary(self, shape):
        dom = build_domain(shape, 0.05)
        assert np.abs(shape.level(dom.cut_xy)).max() < 1e-12

    @pytest.mark.parametrize("shape", [Disk(1.0),
                                       Polygon([(0, 0), (2, 0), (0.5, 1.5)])],
                             ids=["disk", "triangle"])
    def test_arm_table_addresses_cells_and_cuts(self, shape):
        dom = build_domain(shape, 0.05)
        n, n_cut = dom.n_cells, len(dom.cut_xy)
        dirs = DIRECTIONS
        armf, armb = dom.arm_lengths()
        for nb, arm, sign in ((dom.nbf, armf, 1), (dom.nbb, armb, -1)):
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
        ids = np.concatenate([dom.nbf[dom.nbf >= n], dom.nbb[dom.nbb >= n]])
        assert_array_equal(np.sort(ids), n + np.arange(n_cut))

    @pytest.mark.parametrize("shape", [Disk(1.0), Polygon(L_SHAPE)],
                             ids=["disk", "L"])
    def test_arm_lengths_from_the_cut_fractions(self, shape):
        # the table stores ends only: an arm along d is |d| h long, times
        # its cut fraction where it is cut
        dom = build_domain(shape, 0.05)
        n = dom.n_cells
        assert dom.nbf.dtype == dom.nbb.dtype == np.int32
        full = np.broadcast_to(np.hypot(*DIRECTIONS.T) * dom.h,
                               dom.nb.shape)
        arms, cut = dom.arm_lengths(), dom.nb >= n
        assert_array_equal(arms[~cut], full[~cut])
        assert_array_equal(arms[cut],
                           full[cut] * dom.cut_frac[dom.nb[cut] - n])

    def test_kept_arrays_per_cell(self):
        # the unit disk at h = 0.02 kept 578 bytes per cell when the
        # domain stored int64 ends and float arm lengths
        dom = build_domain(Disk(1.0), 0.02)
        assert (dom.n_cells, len(dom.cut_xy)) == (7860, 8172)
        arrays = [v for v in vars(dom).values() if isinstance(v, np.ndarray)]
        arrays += list(dom.boundary.values())
        buffers = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
        kept = sum(buffers.values())
        assert kept <= 250 * dom.n_cells

    @pytest.mark.parametrize("h", [0.0, -0.05, np.nan, np.inf])
    def test_rejects_bad_spacing(self, h):
        with pytest.raises(InvalidShape, match="finite and positive"):
            build_domain(Disk(1.0), h)

    def test_rejects_tables_past_the_index_type(self, monkeypatch):
        # cells plus cuts must fit the arm table's entries: 7,860 + 8,172
        # do in int16, and 31,4xx cells with their cuts do not
        monkeypatch.setattr(domain_module, "_INDEX", np.int16)
        assert build_domain(Disk(1.0), 0.02).nb.dtype == np.int16
        with pytest.raises(InvalidShape, match="int16"):
            build_domain(Disk(1.0), 0.01)

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
        dom = build_domain(shape, 0.05)
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
        dom = build_domain(shape, 0.05)
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

    def test_polygon_level_sign(self):
        tri = Polygon([(0, 0), (2, 0), (0, 2)])
        lev = tri.level(np.array([[0.3, 0.3], [1.5, 1.5], [0.1, 0.1]]))
        assert lev[0] < 0 and lev[1] > 0 and lev[2] < 0

    def test_stencil_validation(self):
        # 8 orthogonal pairs that use each of the 16 directions once
        assert PAIRS.shape == (8, 2) and len(DIRECTIONS) == 16
        assert np.all((DIRECTIONS[PAIRS[:, 0]] * DIRECTIONS[PAIRS[:, 1]])
                      .sum(axis=1) == 0)
        assert_array_equal(np.sort(PAIRS.ravel()), np.arange(16))
        assert len({tuple(d) for d in DIRECTIONS}
                   | {tuple(-d) for d in DIRECTIONS}) == 32


class TestOperator:
    def test_exact_on_axis_quadratics(self, disk_dom):
        # eigenframe of the Hessian lies in the stencil, so the pair
        # extremum equals the continuous operator exactly
        for hxx, hyy in [(-1.0, -2.0), (1.0, -3.0), (2.0, 0.5)]:
            fld = quad_field(disk_dom, hxx, 0.0, hyy, gx=0.3)
            got = discretize_F(WIDE, disk_dom, fld).values
            lam = np.sort([hxx, hyy])
            want = WIDE.A * np.clip(lam, 0, None).sum() \
                + WIDE.a * np.clip(lam, None, 0).sum()
            assert_allclose(got, want, atol=1e-10)

    def test_exact_on_diagonal_quadratics(self, disk_dom):
        # eigenvectors along (1, 1) and (1, -1), also in the stencil
        fld = quad_field(disk_dom, -1.0, 0.5, -1.0)
        got = discretize_F(WIDE, disk_dom, fld).values
        lam = np.array([-1.5, -0.5])
        want = WIDE.a * lam.sum()
        assert_allclose(got, want, atol=1e-10)

    def test_rotated_quadratic_within_directional_gap(self, disk_dom,
                                                      disk_coarse):
        def rotated(dom, deg):
            # Hessian with eigenvalues +-1 and its frame at deg degrees
            th = np.radians(deg)
            r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            hess = r @ np.diag([1.0, -1.0]) @ r.T
            return quad_field(dom, hess[0, 0], hess[0, 1], hess[1, 1])

        # eigenframe at 30 degrees is not a stencil pair; the max over 8
        # pairs underestimates Plus by at most the angular resolution
        got = discretize_F(WIDE, disk_dom, rotated(disk_dom, 30.0)).values
        want = WIDE.A * 1.0 - WIDE.a * 1.0
        assert np.all(got <= want + 1e-10)
        assert np.abs(got - want).max() < 0.05
        # at 81 degrees the nearest pair (the axes) is 9 degrees off, and
        # the gap (A - a)(lam1 - lam2) sin^2(9 deg) does not shrink with h:
        # the scheme is monotone but not consistent for a < A
        for dom in (disk_coarse, disk_dom):
            got = discretize_F(PucciParams(1.0, 2.0), dom,
                               rotated(dom, 81.0)).values
            assert_allclose(1.0 - got, 2.0 * np.sin(np.radians(9.0)) ** 2,
                            rtol=1e-9)

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
        got = _policy_matrix(params, disk_coarse,
                             _linearize(params, disk_coarse, u, zero)) @ u
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
            lin = _linearize(params, disk_coarse, zero_u, zero)
            return _policy_matrix(params, disk_coarse, lin)

        assert (frozen(0.5, 2.0) != frozen(tie, tie)).nnz == 0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5])
    def test_one_linearization_serves_operator_and_matrix(self, disk_coarse,
                                                          alpha):
        params = PucciParams(0.5, 2.0, Variant.PLUS, alpha)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(disk_coarse.n_cells)
        b = rng.standard_normal(len(disk_coarse.cut_xy))
        lin = _linearize(params, disk_coarse, u, b)
        assert_array_equal(lin.value, discretize_F(
            params, disk_coarse, GridField(disk_coarse, u, b)).values)
        got = _policy_matrix(params, disk_coarse, lin)
        want = _policy_matrix(params, disk_coarse,
                              _linearize(params, disk_coarse, u, b))
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
        lin = _linearize(params, dom, rng.standard_normal(dom.n_cells),
                         rng.standard_normal(len(dom.cut_xy)))
        mat = _policy_matrix(params, dom, lin).tocoo()
        off = mat.row != mat.col
        assert np.all(mat.data[off] > 0.0)
        diag = mat.diagonal()
        assert np.all(diag < 0.0)
        idx = np.arange(dom.n_cells)[:, None]
        cut = (dom.nb[:, idx, lin.pairs] >= dom.n_cells).any(axis=(0, 2))
        assert cut.any() and not cut.all()
        rel = np.asarray(mat.sum(axis=1)).ravel() / np.abs(diag)
        assert np.abs(rel[~cut]).max() <= 1e-12
        assert np.all(rel[cut] < 0.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
    def test_newton_matrix_is_the_jacobian(self, disk_coarse, monkeypatch,
                                           variant, alpha):
        # for alpha != 0 the solver's matrix keeps the derivative of the
        # gradient weight; a random u keeps every gradient above the floor
        # and, along a short enough segment, every policy fixed
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
        lin = _linearize(params, disk_coarse, u, zero)
        assert lin.g.min() > _GRAD_FLOOR
        eps = 1e-6
        fd = (linearize(u + eps * v)[0] - linearize(u - eps * v)[0]) \
            / (2.0 * eps)
        scale = np.abs(fd).max()
        assert np.abs(linearize(u)[1]() @ v - fd).max() <= 1e-6 * scale
        # the frozen matrix alone, which drops the weight's derivative,
        # is far from it
        howard = _policy_matrix(params, disk_coarse, lin) @ v \
            + source.evaluate_deriv(u, alpha) * v
        assert np.abs(howard - fd).max() > 1e-2 * scale

    def test_broken_stencil_is_inconsistent(self, disk_coarse):
        fld = quad_field(disk_coarse, -0.5, 0.0, -0.5)
        good = discretize_F(LAP, disk_coarse, fld).values
        bad = discretize_F(LAP, disk_coarse, fld, broken_weights()).values
        assert np.abs(good + 1.0).max() < 1e-10
        assert np.abs(bad + 1.0).max() > 0.5

    def test_requires_boundary_values(self, disk_coarse):
        fld = GridField(disk_coarse, np.zeros(disk_coarse.n_cells))
        with pytest.raises(ValueError):
            discretize_F(LAP, disk_coarse, fld)


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
        # oscillating data keep the pair policy moving for several steps
        solve_dirichlet(WIDE, disk_coarse, Constant(1.0),
                        lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y))
        assert 1 < len(count_splu) == len(count_freezes)

    def test_gradient_degenerate_case_converges(self):
        # the paper's operator with alpha = 0.5: errors 1.83e-2 and 7.34e-3
        # against the closed form, order 1.32.  alpha = 1 solves too
        # (4.07e-2 and 1.65e-2), but for alpha > 0 the scheme has more than
        # one discrete solution and the path picks which one is reached
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
        # 2.757e-3 measured, by Newton and by the fixed point in the weight
        assert err <= 2.8e-3
        # the fixed point in the frozen weight took 33 factorizations
        assert len(count_splu) <= 12

    def test_newton_steps_stable_under_last_bit_cuts(self, disk_dom,
                                                     count_splu):
        # cut fractions moved in their last bits: Newton takes 10, 9, 9
        # and 10 factorizations here, the fixed point in the frozen weight
        # took 33, 30, 31 and 30
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


class TestEigenvalue:
    def test_disk_matches_bessel(self):
        dom = build_domain(Disk(1.0), 0.04)
        lam, phi = principal_eigenvalue_grid(LAP, dom)
        assert abs(lam - DISK_LAPLACE_EIG) / DISK_LAPLACE_EIG < 0.01
        assert phi.values.min() > -1e-12
        assert_allclose(np.abs(phi.values).max(), 1.0)

    def test_matches_radial_shooting(self):
        p = PucciParams(1.0, 1.5)
        lam_rad = principal_eigenvalue_ball(p, 2, 1.0)
        dom = build_domain(Disk(1.0), 0.04)
        lam_grid, _ = principal_eigenvalue_grid(p, dom)
        assert abs(lam_grid - lam_rad) / lam_rad < 0.015

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
        def step(phi, prev):
            return solve_dirichlet(params, disk_dom, Constant(phi), 0.0,
                                   tol=1e-12, u0=prev).values

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
        principal_eigenvalue_grid(LAP, disk_dom)
        assert 0 < len(count_splu) == len(count_freezes)
        # inverse power with policy inner solves made 34 on this mesh
        assert len(count_splu) < 34

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

    def test_critical_plane_symmetric_shapes(self):
        assert abs(critical_plane_position(Disk(1.0), (0.3, 1.0))) < 1e-6
        assert abs(critical_plane_position(Ellipse(2.0, 1.0), (1, 0))) < 1e-6
        assert abs(critical_plane_position(Ellipse(2.0, 1.0), (0, 1))) < 1e-6

    def test_critical_plane_asymmetric_shape(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        t = critical_plane_position(tri, (1, 0))
        # reflecting the left part of this triangle across x = t stays
        # inside only while t is small; the exact critical offset for the
        # unit right triangle along x is 1/3 (reflection of the vertical
        # edge through the hypotenuse constraint)
        assert 0.0 < t < 0.5


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

    def test_homogeneous_case_needs_zero_data(self, disk_coarse):
        with pytest.raises(ValueError):
            comparison_check(LAP, disk_coarse, EigenPower(1.0), 0.0,
                             lambda x, y: 0.1 + 0.0 * x)

    def test_supercritical_pair_accepted(self, disk_coarse):
        rep = comparison_check(LAP, disk_coarse, PowerPair(2.0, 1.0, 3.0),
                               0.0, 0.0)
        assert rep.case == "homogeneous"
        assert rep.passed


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

    def test_csv_round_trip(self, tmp_path, disk_coarse):
        from pucci_lab.grid import export_field_csv
        fld = field_from_function(disk_coarse, lambda x, y: x + y)
        path = tmp_path / "field.csv"
        export_field_csv(fld, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (disk_coarse.n_cells, 3)
        assert_allclose(data[:, 2], data[:, 0] + data[:, 1], atol=1e-12)
