import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from pucci_lab import PucciParams, SymMatrix, Variant, pucci
from pucci_lab.errors import IterationLimit, OutOfDomain, PositivityLoss
from pucci_lab.sector import (SectorField, SectorMesh, SectorOperatorParams,
                              assemble_H, barrier_eval, barrier_margin,
                              export_sector_csv, extrapolate_to_zero,
                              gamma_exponent,
                              sector_principal_eigenvalue, shrink_angle)
from pucci_lab import sector as sector_module
from pucci_lab._iterate import inverse_power, policy_eigen, policy_iterate
from pucci_lab.sector import (_MIN_NODES, _diffs, _folded, _frozen_matrix,
                              _laplace_beltrami_mode, _linearize)

LAP = SectorOperatorParams(1.0, 1.0)


def _sector_linearize(params, mesh):
    """The ``linearize`` of the policy eigen loop."""
    def linearize(v):
        lin = _linearize(params, mesh, v)
        return lin.value, lambda: _frozen_matrix(mesh, lin)
    return linearize


def box_eigenvalue_n2(delta):
    # exact first Dirichlet eigenvalue of -psi'' on the shrunk arc
    width = np.pi / 2 - 2.0 * shrink_angle(2, delta)
    return (np.pi / width) ** 2


class TestGeometry:
    def test_shrink_angle_n2(self):
        assert shrink_angle(2, 0.1) == pytest.approx(0.05)
        assert shrink_angle(2, 0.0) == 0.0

    def test_shrink_angle_n3_inverts_removed_measure(self):
        for delta in (0.05, 0.2, 0.5):
            dp = shrink_angle(3, delta)
            removed = np.pi - (np.pi / 2 - 2 * dp) * 2.0 * np.cos(dp)
            assert abs(removed - delta) < 1e-10

    def test_shrink_angle_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shrink_angle(2, np.pi)
        with pytest.raises(ValueError):
            shrink_angle(3, 4.0)
        with pytest.raises(ValueError):
            shrink_angle(4, 0.1)
        with pytest.raises(ValueError):
            shrink_angle(2, -0.1)
        # nan passed delta < 0 and came back as the margin
        for delta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="need a finite delta"):
                shrink_angle(2, delta)

    def test_mesh_nodes_inside_open_box(self):
        mesh = SectorMesh(3, 0.1, np.pi / 80)
        for ax, (lo, hi) in zip(mesh.axes, mesh.bounds):
            assert ax.min() > lo and ax.max() < hi
        assert mesh.shape == (len(mesh.axes[0]), len(mesh.axes[1]))

    @pytest.mark.parametrize("n_dim, spacing", [(2, np.pi / 40),
                                                (3, np.pi / 20)])
    def test_arm_table_addresses_nodes_and_the_box(self, n_dim, spacing):
        # the grid domain's layout: int32 (2, n, k), forward ends first
        mesh = SectorMesh(n_dim, 0.2, spacing)
        n, steps = mesh.n_nodes, sector_module._ARMS[n_dim]
        assert_array_equal(steps, [(1,)] if n_dim == 2
                           else [(1, 0), (0, 1), (1, 1), (1, -1)])
        assert mesh.nb.dtype == np.int32
        assert mesh.nb.shape == (2, n, len(steps))
        at = np.stack(np.unravel_index(np.arange(n), mesh.shape), axis=1)
        for nb, sign in zip(mesh.nb, (1, -1)):
            # an end is the node one step away, or n where that step
            # leaves the box
            want = at[:, None] + sign * steps
            inside = ((want >= 0) & (want < mesh.shape)).all(axis=-1)
            assert inside.any() and not inside.all()
            assert_array_equal(nb < n, inside)
            assert np.all(nb[~inside] == n)
            assert_array_equal(at[nb[inside]], want[inside])
        # the forward and backward ends are mutual
        for side in (0, 1):
            node, j = np.nonzero(mesh.nb[side] < n)
            assert_array_equal(mesh.nb[1 - side, mesh.nb[side, node, j], j],
                               node)

    def test_mesh_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            SectorMesh(4, 0.1, np.pi / 100)
        with pytest.raises(ValueError):
            SectorMesh(1, 0.1, np.pi / 100)

    def test_mesh_rejects_coarse_spacing(self):
        with pytest.raises(ValueError):
            SectorMesh(2, 0.1, 1.0)

    @pytest.mark.parametrize("spacing", [0.0, -np.pi / 100, np.nan, np.inf])
    def test_mesh_rejects_nonpositive_spacing(self, spacing):
        with pytest.raises(ValueError, match="positive spacing"):
            SectorMesh(2, 0.1, spacing)

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_mesh_rejects_nan_delta(self, n_dim):
        # a nan delta failed inside int(round(...))
        with pytest.raises(ValueError, match="need a finite delta"):
            SectorMesh(n_dim, np.nan, np.pi / 40)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SectorOperatorParams(1.5, 1.0)
        with pytest.raises(ValueError):
            SectorOperatorParams(1.0, 1.0, gamma=1.5)
        with pytest.raises(ValueError):
            SectorOperatorParams(1.0, 1.0, epsilon=-0.1)
        for key in ("gamma", "epsilon"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"need a finite {key}"):
                    SectorOperatorParams(0.5, 1.0, **{key: value})

    @pytest.mark.parametrize("a, big_a", [(1.0, np.inf), (np.inf, np.inf),
                                          (np.nan, 1.0), (0.5, np.nan)])
    def test_params_need_finite_bounds(self, a, big_a):
        # A = inf passed 0 < a <= A, and splu then met a singular matrix
        with pytest.raises(ValueError, match="need finite 0 < a <= A"):
            SectorOperatorParams(a, big_a)

    def test_field_validation(self):
        mesh = SectorMesh(2, 0.1, np.pi / 100)
        with pytest.raises(ValueError):
            SectorField(mesh, np.zeros(3))
        bad = np.zeros(mesh.shape)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            SectorField(mesh, bad)


class TestMeshGeometry:
    def test_n2_is_the_equator(self):
        mesh = SectorMesh(2, 0.1, np.pi / 100)
        assert_array_equal(mesh.q1, np.ones(mesh.n_nodes))
        assert_array_equal(mesh.tan2, np.zeros(mesh.n_nodes))

    def test_n3_secant_and_tangent_of_latitude(self):
        # one entry per node, flat in the C order of the arm table
        mesh = SectorMesh(3, 0.1, np.pi / 80)
        _, theta2 = np.meshgrid(*mesh.axes, indexing="ij")
        assert_array_equal(mesh.q1, 1.0 / np.cos(theta2.ravel()))
        assert_array_equal(mesh.tan2, np.tan(theta2.ravel()))


class TestAssemble:
    def test_zero_field(self):
        mesh = SectorMesh(2, 0.1, np.pi / 100)
        out = assemble_H(LAP, mesh, SectorField(mesh, np.zeros(mesh.shape)))
        assert_allclose(out.values, 0.0)

    def test_rejects_a_field_of_another_mesh(self):
        mesh = SectorMesh(2, 0.1, np.pi / 100)
        other = SectorMesh(2, 0.1, np.pi / 50)
        with pytest.raises(ValueError, match="disagree"):
            assemble_H(LAP, mesh, SectorField(other, np.zeros(other.shape)))

    def test_n2_eigenfunction_anchor(self):
        mesh = SectorMesh(2, 0.0, np.pi / 200)
        psi = np.sin(2.0 * mesh.axes[0])
        out = assemble_H(LAP, mesh, SectorField(mesh, psi))
        err = np.abs(out.values + 4.0 * psi)
        assert err.max() < 5.0 * mesh.spacing ** 2

    def test_n3_harmonic_anchor(self):
        mesh = SectorMesh(3, 0.0, np.pi / 200)
        t1, t2 = np.meshgrid(*mesh.axes, indexing="ij")
        psi = np.cos(t2) ** 2 * np.sin(2.0 * t1)
        out = assemble_H(LAP, mesh, SectorField(mesh, psi))
        err = np.abs(out.values + 6.0 * psi)
        assert err.max() < 10.0 * mesh.spacing ** 2

    def test_equal_bounds_reduce_to_laplace_beltrami(self):
        mesh = SectorMesh(3, 0.2, np.pi / 150)
        (lo1, hi1), (lo2, hi2) = mesh.bounds
        k1 = 2.0 * np.pi / (hi1 - lo1)
        k2 = np.pi / (hi2 - lo2)
        t1, t2 = np.meshgrid(*mesh.axes, indexing="ij")
        s1, c1 = np.sin(k1 * (t1 - lo1)), np.cos(k1 * (t1 - lo1))
        s2, c2 = np.sin(k2 * (t2 - lo2)), np.cos(k2 * (t2 - lo2))
        psi = s1 * s2
        p = SectorOperatorParams(1.3, 1.3)
        out = assemble_H(p, mesh, SectorField(mesh, psi))
        beltrami = (-k1 ** 2 * psi / np.cos(t2) ** 2 - k2 ** 2 * psi
                    - np.tan(t2) * k2 * s1 * c2)
        # differencing error scales with the local coefficient size near the
        # latitude poles, so compare relative to the exact value there
        rel = np.abs(out.values - 1.3 * beltrami) / (1.0 + np.abs(1.3 * beltrami))
        assert rel.max() < 10.0 * mesh.spacing ** 2

    @pytest.mark.parametrize("n_dim, spacing", [(2, np.pi / 40),
                                                (3, np.pi / 20)])
    def test_diffs_exact_on_quadratics(self, n_dim, spacing):
        # at a node whose arms all stay in the box the central differences
        # of a quadratic in (theta1, theta2) are its derivatives
        mesh = SectorMesh(n_dim, 0.2, spacing)
        nodes = [np.ravel(t) for t in np.meshgrid(*mesh.axes, indexing="ij")]
        t1, t2 = (*nodes, np.zeros(mesh.n_nodes))[:2]
        c1, c2, c11, c22, c12 = 0.3, -1.1, 0.7, -0.4, 1.3
        vals = (2.0 + c1 * t1 + c2 * t2 + c11 * t1 ** 2 + c22 * t2 ** 2
                + c12 * t1 * t2)
        one = np.ones(mesh.n_nodes)
        want = np.array([c1 + 2.0 * c11 * t1 + c12 * t2,
                         c2 + 2.0 * c22 * t2 + c12 * t1,
                         2.0 * c11 * one, 2.0 * c22 * one, c12 * one])
        if n_dim == 2:
            # N = 2 has no theta2 axis: its differences are 0
            want[[1, 3, 4]] = 0.0
        inner = (mesh.nb < mesh.n_nodes).all(axis=(0, 2))
        assert inner.any() and not inner.all()
        got = _diffs(vals, mesh)
        assert got.shape == (5, mesh.n_nodes)
        assert_allclose(got[:, inner], want[:, inner],
                        rtol=1e-10, atol=1e-10)

    def test_minus_term_matches_dense_pucci(self):
        # the vectorized closed-form 2x2 spectra against the dense
        # pucci route, which diagonalizes with numpy.linalg.eigh
        mesh = SectorMesh(3, 0.3, np.pi / 40)
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(mesh.shape)
        p = SectorOperatorParams(0.7, 1.6, gamma=2.4, epsilon=0.0)
        out = assemble_H(p, mesh, SectorField(mesh, vals))

        d1_1, d1_2, d2_11, d2_22, d2_12, q1s, tan2s = (
            np.reshape(d, mesh.shape)
            for d in (*_diffs(vals.ravel(), mesh), mesh.q1, mesh.tan2))
        minus = PucciParams(0.7, 1.6, Variant.MINUS)
        n1, n2 = mesh.shape
        idx = [(3, 4), (n1 // 2, n2 // 2), (n1 - 2, 1), (1, n2 - 3)]
        for i, j in idx:
            q1 = q1s[i, j]
            g = np.array([[q1 ** 2 * d2_11[i, j], q1 * d2_12[i, j]],
                          [q1 * d2_12[i, j], d2_22[i, j]]])
            core = pucci(minus, SymMatrix.from_full(g))
            pen = (0.7 - 1.6) * (abs(d1_1[i, j]) * (2.4 * q1 + q1 ** 2)
                                 + abs(d1_2[i, j]) * (2.4 + 1.0))
            mu = -d1_2[i, j] * tan2s[i, j]
            conn = (0.7 if mu >= 0 else 1.6) * mu
            assert out.values[i, j] == pytest.approx(core + pen + conn,
                                                     rel=1e-12, abs=1e-12)

    def test_arc_matches_1d_formula(self):
        # N = 2 through the N = 3 formulas with no theta2 axis, against the
        # arc operator written out: a*d2+ + A*d2- + (a - A)(gamma + 1)|d1|
        mesh = SectorMesh(2, 0.3, np.pi / 100)
        vals = np.random.default_rng(9).standard_normal(mesh.shape)
        a, A, gamma = 0.7, 1.6, 2.4
        p = np.pad(vals, 1)
        h = mesh.spacing
        d1 = (p[2:] - p[:-2]) / (2.0 * h)
        d2 = (p[2:] - 2.0 * vals + p[:-2]) / h ** 2
        want = (a * np.maximum(d2, 0.0) + A * np.minimum(d2, 0.0)
                + (a - A) * (gamma + 1.0) * np.abs(d1))
        got = _linearize(SectorOperatorParams(a, A, gamma=gamma), mesh,
                         vals).value
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n_dim, spacing", [(2, np.pi / 100),
                                                (3, np.pi / 40)])
    @pytest.mark.parametrize("a", [1.0, 0.6])
    def test_frozen_matrix_reproduces_H(self, n_dim, spacing, a):
        # M @ psi = H(psi) at the freeze is what the policy step and the
        # eigenpair freeze rest on
        mesh = SectorMesh(n_dim, 0.2, spacing)
        vals = np.random.default_rng(4).standard_normal(mesh.n_nodes)
        p = SectorOperatorParams(a, 1.0, gamma=2.4)
        lin = _linearize(p, mesh, vals)
        want = lin.value
        mat = _frozen_matrix(mesh, lin)
        got = mat @ vals
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # no stored zeros: at a = A the cross-derivative entries vanish and
        # each row keeps the 2N - 1 entries of the axis stencil
        assert np.all(mat.data != 0.0)
        if a == 1.0:
            assert np.diff(mat.indptr).max() <= 2 * n_dim - 1

    @pytest.mark.parametrize("n_dim, spacing", [(2, np.pi / 40),
                                                (3, np.pi / 20)])
    def test_frozen_matrix_tie_takes_A(self, n_dim, spacing):
        # a flat field has every eigenvalue and mu at 0, where M-minus
        # takes A as on the grid, so the wide window freezes to the
        # (A, A) matrix and not to the (a, a) one
        mesh = SectorMesh(n_dim, 0.2, spacing)
        zero = np.zeros(mesh.n_nodes)

        def frozen(a, A):
            params = SectorOperatorParams(a, A)
            return _frozen_matrix(mesh, _linearize(params, mesh, zero))

        wide = frozen(0.5, 1.0)
        assert (wide != frozen(1.0, 1.0)).nnz == 0
        assert (wide != frozen(0.5, 0.5)).nnz > 0

    @pytest.mark.parametrize("n_dim, spacing, a", [
        (2, np.pi / 100, 1.0), (2, np.pi / 100, 0.6), (3, np.pi / 60, 1.0),
        (3, np.pi / 60, 0.9)])
    def test_frozen_matrix_sign_structure(self, n_dim, spacing, a):
        # as for the grid's policy matrix: nonnegative neighbour weights and
        # rows summing to at most 0, less where an arm leaves the box; for
        # N = 3 and a < A only the cross difference's diagonal arms may
        # carry negative weights
        mesh = SectorMesh(n_dim, 0.2, spacing)
        vals = np.random.default_rng(4).standard_normal(mesh.n_nodes)
        lin = _linearize(SectorOperatorParams(a, 1.0, gamma=2.4), mesh, vals)
        mat = _frozen_matrix(mesh, lin).tocoo()
        diag = mat.diagonal()
        assert np.all(diag < 0.0)
        neg = (mat.row != mat.col) & (mat.data < 0.0)
        if n_dim == 2 or a == 1.0:
            assert not neg.any()
            rows = np.asarray(mat.sum(axis=1)).ravel()
            assert rows.max() <= 1e-12 * np.abs(diag).max()
        else:
            diagonal_arms = mesh.nb[:, mat.row[neg], 2:]
            assert np.all((diagonal_arms == mat.col[neg, None]).any(
                axis=(0, 2)))

    @pytest.mark.parametrize("field", ["zero", "scalar_hessian"])
    def test_frame_free_where_g_is_scalar(self, monkeypatch, field):
        # where the scaled angular Hessian G is a multiple of I every frame
        # is an eigenframe: the reflection is 0, not 0/0, and the cross
        # difference gets weight exactly 0
        mesh = SectorMesh(3, 0.2, np.pi / 40)
        rng = np.random.default_rng(6)
        vals = np.zeros(mesh.n_nodes)
        if field == "scalar_hessian":
            d1_1, d1_2, d2_11 = rng.standard_normal((3, mesh.n_nodes))
            # G11 = q1^2 d2_11 = G22 and G12 = 0 at every node
            monkeypatch.setattr(sector_module, "_diffs", lambda v, m: (
                d1_1, d1_2, d2_11, m.q1 ** 2 * d2_11, np.zeros(m.n_nodes)))
        lin = _linearize(SectorOperatorParams(0.6, 1.0, gamma=2.4), mesh,
                         vals)
        assert all(np.isfinite(c).all() for c in lin.coef)
        assert np.all(lin.coef[4] == 0.0)
        assert np.isfinite(lin.value).all()

    def test_positive_homogeneity(self):
        mesh = SectorMesh(2, 0.1, np.pi / 100)
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(mesh.shape)
        p = SectorOperatorParams(0.8, 1.4, gamma=2.1)
        h1 = assemble_H(p, mesh, SectorField(mesh, vals)).values
        h3 = assemble_H(p, mesh, SectorField(mesh, 3.0 * vals)).values
        assert_allclose(h3, 3.0 * h1, atol=1e-12)


class TestEigenvalue:
    def test_n2_matches_exact_interval(self):
        mesh = SectorMesh(2, 0.1, np.pi / 400)
        lam, psi = sector_principal_eigenvalue(LAP, mesh)
        assert lam == pytest.approx(box_eigenvalue_n2(0.1), rel=5e-4)
        assert psi.values.min() > -1e-12
        assert np.abs(psi.values).max() == pytest.approx(1.0)

    def test_n2_extrapolates_to_quarter_circle(self):
        lams = []
        for d in (0.2, 0.1, 0.05):
            mesh = SectorMesh(2, d, np.pi / 400)
            lam, _ = sector_principal_eigenvalue(LAP, mesh)
            lams.append(lam)
        lam0 = extrapolate_to_zero([0.2, 0.1, 0.05], lams)
        assert abs(lam0 - 4.0) / 4.0 < 0.01

    def test_n3_extrapolates_to_quarter_sphere(self):
        lams = []
        for d in (0.2, 0.1, 0.05):
            mesh = SectorMesh(3, d, np.pi / 150)
            lam, _ = sector_principal_eigenvalue(LAP, mesh)
            lams.append(lam)
        lam0 = extrapolate_to_zero([0.2, 0.1, 0.05], lams)
        assert abs(lam0 - 6.0) / 6.0 < 0.02

    def test_monotone_in_shrink_parameter(self):
        lams = []
        for d in (0.3, 0.15, 0.075):
            mesh = SectorMesh(2, d, np.pi / 300)
            lam, _ = sector_principal_eigenvalue(LAP, mesh)
            lams.append(lam)
        assert lams[0] > lams[1] > lams[2]

    def test_unequal_bounds_exceed_quarter_circle_value(self):
        lams = []
        for d in (0.2, 0.1, 0.05):
            mesh = SectorMesh(2, d, np.pi / 400)
            lam, _ = sector_principal_eigenvalue(
                SectorOperatorParams(0.9, 1.0), mesh)
            lams.append(lam)
        lam0 = extrapolate_to_zero([0.2, 0.1, 0.05], lams)
        assert lam0 > 4.0 + 0.1

    def test_scaling_in_ellipticity(self):
        mesh = SectorMesh(2, 0.1, np.pi / 200)
        l1, _ = sector_principal_eigenvalue(SectorOperatorParams(0.8, 1.2), mesh)
        l2, _ = sector_principal_eigenvalue(SectorOperatorParams(1.6, 2.4), mesh)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-9)

    def test_n3_unequal_bounds_positive_field(self):
        mesh = SectorMesh(3, 0.2, np.pi / 100)
        lam, psi = sector_principal_eigenvalue(
            SectorOperatorParams(0.9, 1.0), mesh)
        assert lam > 6.0  # domain shrunk and a < A both raise it
        assert psi.values.min() > -1e-12

    def test_relaxation_cross_check(self):
        mesh = SectorMesh(2, 0.2, np.pi / 60)
        lam_p, _ = sector_principal_eigenvalue(LAP, mesh)
        lam_r, _ = sector_principal_eigenvalue(LAP, mesh, method="relax",
                                               inner_tol=1e-8)
        assert lam_r == pytest.approx(lam_p, rel=1e-4)

    def test_one_freeze_at_equal_bounds_more_below(self, count_splu):
        mesh = SectorMesh(3, 0.2, np.pi / 40)
        # at a = A the frozen matrix is A times the Laplace-Beltrami matrix,
        # whose Perron vector is the start, so no freeze is needed (one
        # factorization from a start of ones)
        sector_principal_eigenvalue(LAP, mesh)
        assert len(count_splu) == 0
        # for a < A the frame choices move, and each freeze is factored
        count_splu.clear()
        sector_principal_eigenvalue(SectorOperatorParams(0.9, 1.0), mesh)
        assert len(count_splu) > 1

    @pytest.mark.parametrize("n_dim, delta, spacing, a", [
        (2, 0.1, np.pi / 200, 1.0), (2, 0.1, np.pi / 200, 0.9),
        (3, 0.2, np.pi / 60, 0.9)])
    def test_matches_inverse_power(self, n_dim, delta, spacing, a,
                                   count_solves):
        mesh = SectorMesh(n_dim, delta, spacing)
        params = SectorOperatorParams(a, 1.0)

        def linearize(v, x):
            lin = _linearize(params, mesh, v)
            return lin.value + x, lambda: _frozen_matrix(mesh, lin)

        # each inverse-power step solves H(psi) = -x by policy iteration
        def step(x, prev):
            return policy_iterate(lambda v: linearize(v, x),
                                  sector_module._factor,
                                  x if prev is None else prev, tol=1e-12,
                                  max_steps=80)

        lam_ip, psi_ip = inverse_power(step, np.ones(mesh.n_nodes),
                                       tol=1e-10, max_power=500)
        psi_ip = psi_ip.reshape(mesh.shape)
        solves = count_solves(sector_module)
        lam, psi = sector_principal_eigenvalue(params, mesh)
        assert lam == pytest.approx(lam_ip, rel=1e-6)
        assert np.abs(psi.values - psi_ip).max() < 1e-4
        assert psi.values.min() > 0.0 and psi_ip.min() > 0.0
        if a == 1.0:
            # the start is the a = A Perron vector: no factor, no solve
            assert solves == []
            return
        # a one-pair Krylov space: scipy's default of 20 vectors makes 21
        # solves per freeze
        assert 0 < max(solves) <= 12

    @pytest.mark.parametrize("n_dim, delta, spacing, big_a", [
        (2, 0.1, np.pi / 100, 1.0), (2, 0.3, None, 2.5),
        (3, 0.1, np.pi / 60, 2.5), (3, 0.3, None, 1.0)])
    def test_laplace_beltrami_mode(self, n_dim, delta, spacing, big_a):
        # spacing None is the coarsest mesh: _MIN_NODES nodes across theta_1
        if spacing is None:
            spacing = (np.pi / 2 - 2.0 * shrink_angle(n_dim, delta)) \
                / (_MIN_NODES + 1)
        mesh = SectorMesh(n_dim, delta, spacing)
        params = SectorOperatorParams(big_a, big_a)
        lam_o, phi_o = policy_eigen(_sector_linearize(params, mesh),
                                    sector_module._factor,
                                    np.ones(mesh.n_nodes), tol=1e-10,
                                    eig_tol=1e-14, max_steps=5)
        mode = _laplace_beltrami_mode(mesh)
        assert mode.shape == (mesh.n_nodes,)
        assert mode.min() > 0.0 and mode.max() == 1.0
        assert np.abs(mode - phi_o).max() < 1e-8
        # the solver starts from the mode on the folded box and stops there
        lam, psi = sector_principal_eigenvalue(params, mesh)
        assert lam == pytest.approx(lam_o, rel=1e-10)
        fold = _folded(mesh)
        assert_array_equal(psi.values.ravel(), mode[fold.keep][fold.to_r])

    @pytest.mark.parametrize("a, gamma", [(1.0, 2.0), (0.6, 2.0), (0.6, 2.4)])
    @pytest.mark.parametrize("n_dim, spacing, shape", [
        (2, np.pi / 60, (25,)), (2, np.pi / 61, (26,)),
        (3, np.pi / 20, (8, 18)), (3, np.pi / 21, (9, 19)),
        (3, np.pi / 22, (9, 20)), (3, np.pi / 23, (10, 21))])
    def test_folded_solve_matches_full_box(self, n_dim, spacing, shape, a,
                                           gamma, count_splu):
        # odd and even node counts on each axis
        mesh = SectorMesh(n_dim, 0.2, spacing)
        assert mesh.shape == shape
        params = SectorOperatorParams(a, 1.0, gamma=gamma)
        lam_o, psi_o = policy_eigen(_sector_linearize(params, mesh),
                                    sector_module._factor,
                                    _laplace_beltrami_mode(mesh), tol=1e-6,
                                    eig_tol=1e-14, max_steps=500)
        count_splu.clear()
        lam, psi = sector_principal_eigenvalue(params, mesh, inner_tol=1e-14)
        assert lam == pytest.approx(lam_o, rel=1e-12)
        assert np.abs(psi.values.ravel() - psi_o).max() <= 1e-12
        # the eigenfield is invariant under each mirror, bit for bit
        for axis in range(n_dim - 1):
            assert_array_equal(psi.values, np.flip(psi.values, axis))
        # and meets the stopping rule on the full box
        vals = psi.values.ravel()
        res = _linearize(params, mesh, vals).value + lam * vals
        assert np.abs(res).max() <= 1e-6 * lam
        # only the folded box, a quarter (N = 3) or half (N = 2), the lower
        # half of each axis in C order, is factored
        half = tuple((n + 1) // 2 for n in shape)
        n_r = int(np.prod(half))
        assert_array_equal(_folded(mesh).keep, np.ravel_multi_index(
            np.indices(half), shape).ravel())
        assert set(count_splu) == ({(n_r, n_r)} if a < 1.0 else set())

    @pytest.mark.parametrize("n_dim, spacing, shape", [
        (2, np.pi / 60, (25,)), (2, np.pi / 61, (26,)),
        (3, np.pi / 20, (8, 18)), (3, np.pi / 21, (9, 19)),
        (3, np.pi / 23, (10, 21))])
    def test_linearization_is_the_whole_box_one(self, n_dim, spacing, shape):
        # odd and even node counts on each axis, at a < A
        mesh = SectorMesh(n_dim, 0.2, spacing)
        assert mesh.shape == shape
        params = SectorOperatorParams(0.6, 1.0, gamma=2.4)
        box = _folded(mesh)
        # a mirror-symmetric field, with every policy in play
        v = np.random.default_rng(5).standard_normal(len(box.keep))
        lin, whole = _linearize(params, box, v), _linearize(params, mesh,
                                                             v[box.to_r])
        assert_array_equal(lin.value, whole.value[box.keep])
        # the folded matrix sums the columns of a mirror orbit
        orbits = sp.csr_matrix((np.ones(mesh.n_nodes), (
            np.arange(mesh.n_nodes), box.to_r)),
            shape=(mesh.n_nodes, len(box.keep)))
        ref = (_frozen_matrix(mesh, whole) @ orbits)[box.keep]
        gap = abs(_frozen_matrix(box, lin) - ref).max()
        assert gap <= 1e-14 * abs(ref).max()

    @pytest.mark.parametrize("nodes, lam_full", [
        (3, 5.891038026817035), (4, 6.471575490636035)])
    def test_tiny_box_is_not_folded(self, nodes, lam_full, count_splu):
        # either box would fold to 2 nodes, below the 3 ARPACK's one pair
        # needs, so the whole box is solved, to the whole-box lambda
        # (pytest turns warnings into errors: scipy's fallback to a dense
        # eig warns)
        width = np.pi / 2 - 2.0 * shrink_angle(2, 0.1)
        mesh = SectorMesh(2, 0.1, width / (nodes + 1))
        assert mesh.shape == (nodes,)
        fold = _folded(mesh)
        assert_array_equal(fold.keep, np.arange(nodes))
        assert_array_equal(fold.to_r, np.arange(nodes))
        assert_array_equal(fold.nb, mesh.nb)
        lam, psi = sector_principal_eigenvalue(SectorOperatorParams(0.5, 1.0),
                                               mesh)
        assert lam == pytest.approx(lam_full, rel=1e-12)
        assert psi.values.min() > 0.0
        assert count_splu and set(count_splu) == {(nodes, nodes)}

    def test_mode_start_saves_a_freeze_below_equal_bounds(self, count_splu):
        mesh = SectorMesh(3, 0.2, np.pi / 40)
        params = SectorOperatorParams(0.9, 1.0)
        lam_ones, _ = policy_eigen(_sector_linearize(params, mesh),
                                   sector_module._factor,
                                   np.ones(mesh.n_nodes), tol=1e-8,
                                   eig_tol=1e-10, max_steps=500)
        from_ones = len(count_splu)
        count_splu.clear()
        lam, _ = sector_principal_eigenvalue(params, mesh, tol=1e-8)
        assert len(count_splu) == from_ones - 1
        assert lam == pytest.approx(lam_ones, rel=1e-9)

    def test_sign_changing_pair_is_a_positivity_loss(self):
        # not an M-matrix: the pair nearest 0 is (2 - sqrt 2, (1, -sqrt 2, 1))
        mat = sp.csr_matrix([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0],
                             [0.0, 1.0, 2.0]])
        with pytest.raises(PositivityLoss):
            policy_eigen(lambda v: (-(mat @ v), lambda: -mat),
                         sector_module._factor, np.ones(3), tol=1e-10,
                         eig_tol=1e-12, max_steps=5)

    @pytest.mark.parametrize("method", ["policy", "relax"])
    def test_cap_below_one_rejected(self, method):
        mesh = SectorMesh(2, 0.2, np.pi / 60)
        with pytest.raises(ValueError, match="at least 1"):
            sector_principal_eigenvalue(LAP, mesh, max_power=0,
                                        method=method)

    def test_unknown_inner_method(self):
        mesh = SectorMesh(2, 0.2, np.pi / 60)
        with pytest.raises(ValueError):
            sector_principal_eigenvalue(LAP, mesh, method="jacobi")


class TestGammaExponent:
    def test_equal_bounds_match_interval_algebra(self):
        # lambda has no gamma dependence at a = A, so gamma solves
        # gamma^2 = lambda(S_delta) directly
        gam = gamma_exponent(1.0, 1.0, 0.0, 0.05, 2, spacing=np.pi / 400)
        assert gam == pytest.approx(np.sqrt(box_eigenvalue_n2(0.05)),
                                    rel=1e-3)

    def test_fixed_point_identity(self):
        a, A, eps, delta = 0.95, 1.0, 0.01, 0.1
        spacing = np.pi / 300
        gam = gamma_exponent(a, A, eps, delta, 2, spacing=spacing)
        mesh = SectorMesh(2, delta, spacing)
        lam, _ = sector_principal_eigenvalue(
            SectorOperatorParams(a, A, gamma=gam, epsilon=eps), mesh,
            tol=1e-8)
        assert abs(a * gam * gam - eps - lam) < 1e-5

    def test_strictly_above_two_for_smaller_a(self):
        gam = gamma_exponent(0.9, 1.0, 0.0, 0.05, 2, spacing=np.pi / 300)
        assert gam > 2.0 + 0.05

    def test_decreases_along_shrinking_triples(self):
        triples = [(0.8, 0.1, 0.3), (0.9, 0.01, 0.15), (0.99, 1e-3, 0.05)]
        gams = [gamma_exponent(a, 1.0, e, d, 2, spacing=np.pi / 300)
                for a, e, d in triples]
        assert abs(gams[0] - 2) > abs(gams[1] - 2) > abs(gams[2] - 2)

    def test_n3_fixed_point(self):
        gam = gamma_exponent(1.0, 1.0, 0.0, 0.1, 3, spacing=np.pi / 100)
        mesh = SectorMesh(3, 0.1, np.pi / 100)
        lam, _ = sector_principal_eigenvalue(LAP, mesh)
        want = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * lam))
        assert gam == pytest.approx(want, abs=2e-6)

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    @pytest.mark.parametrize("a", [0.9, 1.0])
    def test_secant_from_a_damped_first_step(self, a, damping, monkeypatch):
        real = sector_module.sector_principal_eigenvalue
        gams, lams = [], []

        def spy(params, mesh, **kwargs):
            lam, psi = real(params, mesh, **kwargs)
            gams.append(params.gamma)
            lams.append(lam)
            return lam, psi

        monkeypatch.setattr(sector_module, "sector_principal_eigenvalue", spy)
        gamma_exponent(a, 1.0, 0.0, 0.05, 2, spacing=np.pi / 400,
                       damping=damping)
        assert gams[0] == 2.0
        if a == 1.0:
            # lambda does not depend on gamma at a = A: the first root holds
            assert len(gams) == 1
            return
        # the damped fixed point made 21 solves
        assert len(gams) <= 6
        assert gams[1] == pytest.approx(
            2.0 + damping * (np.sqrt(lams[0] / a) - 2.0), rel=1e-14)

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_equal_bounds_factor_once(self, n_dim, count_splu):
        # at a = A lambda(gamma) is one constant: one eigen solve, which
        # its start already solves with no freeze
        gamma_exponent(1.0, 1.0, 0.0, 0.2, n_dim, spacing=np.pi / 40)
        assert len(count_splu) == 0

    def test_iteration_limit(self):
        with pytest.raises(IterationLimit):
            gamma_exponent(0.8, 1.0, 0.1, 0.2, 2, spacing=np.pi / 100,
                           max_iter=1)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            gamma_exponent(0.8, 1.0, 0.1, 0.2, 2, spacing=np.pi / 100,
                           max_iter=0)


@pytest.fixture(scope="module")
def solved():
    a, A, eps, delta = 0.95, 1.0, 0.01, 0.05
    spacing = np.pi / 300
    gam = gamma_exponent(a, A, eps, delta, 2, spacing=spacing)
    mesh = SectorMesh(2, delta, spacing)
    params = SectorOperatorParams(a, A, gamma=gam, epsilon=eps)
    _, psi = sector_principal_eigenvalue(params, mesh, tol=1e-8)
    return params, psi, gam


def _pointwise_margins(params, psi, gam, n_samples, seed, r_range=(0.5, 2.0)):
    """Reference for barrier_margin: the same samples and finite-difference
    Hessian, with w interpolated one point at a time by barrier_eval."""
    mesh = psi.mesh
    n = mesh.n_dim
    rng = np.random.default_rng(seed)
    minus = PucciParams(params.a, params.A, Variant.MINUS)

    def w_at(x):
        r = np.sqrt(x @ x)
        theta = [np.arctan2(x[1], x[0])]
        if n == 3:
            theta.append(np.arcsin(x[2] / r))
        return barrier_eval(gam, psi, r, theta)[0]

    out = []
    for _ in range(n_samples):
        r = rng.uniform(*r_range)
        t1, t2 = [rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
                  for lo, hi in mesh.bounds] + [0.0] * (3 - n)
        x0 = r * np.array([np.cos(t2) * np.cos(t1), np.cos(t2) * np.sin(t1),
                           np.sin(t2)])[:n]
        eta = 0.5 * r * np.sqrt(mesh.spacing)
        e = eta * np.eye(n)
        w0 = w_at(x0)
        hess = np.empty((n, n))
        for i in range(n):
            hess[i, i] = (w_at(x0 + e[i]) - 2.0 * w0 + w_at(x0 - e[i])) / eta ** 2
            for j in range(i + 1, n):
                hess[i, j] = hess[j, i] = (
                    w_at(x0 + e[i] + e[j]) + w_at(x0 - e[i] - e[j])
                    - w_at(x0 + e[i] - e[j]) - w_at(x0 - e[i] + e[j])) / (4.0 * eta ** 2)
        out.append(pucci(minus, SymMatrix.from_full(hess))
                   - params.epsilon * r ** (-2.0) * w0)
    return np.array(out)


class TestBarrier:
    def test_zero_radius_limit(self, solved):
        _, psi, gam = solved
        w, grad = barrier_eval(gam, psi, 0.0, (np.pi / 4,))
        assert w == 0.0 and grad == 0.0

    def test_radial_homogeneity(self, solved):
        _, psi, gam = solved
        w1, g1 = barrier_eval(gam, psi, 1.0, (np.pi / 4,))
        w2, g2 = barrier_eval(gam, psi, 2.0, (np.pi / 4,))
        assert w2 == pytest.approx(2.0 ** gam * w1, rel=1e-12)
        assert g2 == pytest.approx(2.0 ** (gam - 1.0) * g1, rel=1e-12)

    def test_gradient_bound_shape(self, solved):
        _, psi, gam = solved
        w, grad = barrier_eval(gam, psi, 1.5, (np.pi / 3,))
        assert w > 0.0
        assert grad >= gam * w / 1.5  # sqrt(gamma^2 psi^2 + ...) >= gamma psi

    def test_outside_box_raises(self, solved):
        _, psi, gam = solved
        with pytest.raises(OutOfDomain):
            barrier_eval(gam, psi, 1.0, (0.0,))
        with pytest.raises(ValueError):
            barrier_eval(gam, psi, -1.0, (np.pi / 4,))

    @pytest.mark.parametrize("gamma", [0.5, np.inf, np.nan])
    def test_rejects_gamma_below_one_or_not_finite(self, solved, gamma):
        # 0.0 ** (0.5 - 1) would raise ZeroDivisionError at r = 0
        _, psi, _ = solved
        with pytest.raises(ValueError, match="finite gamma >= 1"):
            barrier_eval(gamma, psi, 0.0, (np.pi / 4,))

    def test_margins_at_fixed_point(self, solved):
        params, psi, gam = solved
        margins = barrier_margin(params, psi, gam, n_samples=80, seed=3)
        assert margins.min() >= -10.0 * psi.mesh.spacing

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_margins_match_pointwise_reference(self, n_dim):
        mesh = SectorMesh(n_dim, 0.2, np.pi / 40)
        _, psi = sector_principal_eigenvalue(LAP, mesh)
        params = SectorOperatorParams(0.9, 1.0, gamma=2.5, epsilon=0.01)
        got = barrier_margin(params, psi, 2.5, n_samples=15, seed=5)
        want = _pointwise_margins(params, psi, 2.5, n_samples=15, seed=5)
        assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_margins_build_one_interpolator(self, solved, monkeypatch):
        params, psi, gam = solved
        real = sector_module.RegularGridInterpolator
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sector_module, "RegularGridInterpolator", counting)
        barrier_margin(params, psi, gam, n_samples=20, seed=3)
        assert len(built) <= 1

    def test_margins_n3(self):
        mesh = SectorMesh(3, 0.2, np.pi / 100)
        lam, psi = sector_principal_eigenvalue(LAP, mesh)
        gam = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * lam))
        params = SectorOperatorParams(1.0, 1.0, gamma=gam, epsilon=0.0)
        margins = barrier_margin(params, psi, gam, n_samples=40, seed=11)
        assert margins.min() >= -10.0 * mesh.spacing


class TestUtilities:
    def test_extrapolation_recovers_polynomial(self):
        xs = [0.2, 0.1, 0.05]
        ys = [7.0 + 3.0 * x - 2.0 * x * x for x in xs]
        assert extrapolate_to_zero(xs, ys) == pytest.approx(7.0, abs=1e-12)
        with pytest.raises(ValueError):
            extrapolate_to_zero([0.1], [1.0])

    @pytest.mark.parametrize("xs, ys", [([0.1, np.nan], [1.0, 2.0]),
                                        ([0.1, 0.2], [1.0, np.inf])])
    def test_extrapolation_rejects_nonfinite_samples(self, xs, ys):
        # a nan sample made LAPACK print DLASCL errors and raise
        # LinAlgError; an inf one came back as nan
        with pytest.raises(ValueError, match="need finite samples"):
            extrapolate_to_zero(xs, ys)

    @pytest.mark.parametrize("xs", [[0.1, 0.1], [0.2, 0.1, 0.1]])
    def test_extrapolation_rejects_repeated_samples(self, xs):
        # the fit through repeated points is rank deficient: numpy warned
        # and an extrapolation came back
        with pytest.raises(ValueError, match="distinct sample points"):
            extrapolate_to_zero(xs, [4.1, 4.2, 4.3][:len(xs)])

    def test_csv_export(self, tmp_path):
        mesh = SectorMesh(3, 0.2, np.pi / 40)
        vals = np.ones(mesh.shape)
        path = tmp_path / "sector.csv"
        export_sector_csv(SectorField(mesh, vals), path)
        assert path.read_text().splitlines()[0] == "theta1,theta2,value"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (mesh.n_nodes, 3)
        mesh2 = SectorMesh(2, 0.2, np.pi / 40)
        path2 = tmp_path / "sector1d.csv"
        export_sector_csv(SectorField(mesh2, np.ones(mesh2.shape)), path2)
        assert path2.read_text().splitlines()[0] == "theta1,value"
        data2 = np.loadtxt(path2, delimiter=",", skiprows=1)
        assert data2.shape == (mesh2.n_nodes, 2)
