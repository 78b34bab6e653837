"""Operator core: eigensolver oracle, extremal values, boundary Hessian."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pucci_lab import (DegenerateGradient, InvalidMatrix, PucciParams,
                       SymMatrix, Variant, boundary_hessian, eigen_sym,
                       f_operator, pucci)
from pucci_lab.operators import _coef, _invert_coef

TRIALS = 200


def random_sym(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


def charpoly_eigenvalues(mat):
    """Independent eigenvalue route: Faddeev-LeVerrier coefficients + roots."""
    n = mat.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    mk = np.array(mat)
    for k in range(1, n + 1):
        coeffs[k] = -np.trace(mk) / k
        if k < n:
            mk = mat @ (mk + coeffs[k] * np.eye(n))
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestEigenSym:
    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(TRIALS):
            n = rng.integers(2, 5)
            x = random_sym(rng, n, scale=rng.uniform(0.1, 10.0))
            got = eigen_sym(SymMatrix.from_full(x)).eigenvalues
            want = charpoly_eigenvalues(x)
            assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(x).max()))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(12)
        for _ in range(TRIALS):
            x = random_sym(rng, int(rng.integers(1, 5)))
            dec = eigen_sym(SymMatrix.from_full(x))
            lam, vec = dec.eigenvalues, dec.eigenvectors
            nrm = max(1.0, np.linalg.norm(x))
            assert np.abs(vec @ np.diag(lam) @ vec.T - x).max() <= 1e-12 * nrm
            assert np.abs(vec.T @ vec - np.eye(len(lam))).max() <= 1e-12
            assert np.all(np.diff(lam) >= 0.0)

    def test_zero_and_identity(self):
        dec = eigen_sym(SymMatrix.diag([0.0, 0.0, 0.0]))
        assert_allclose(dec.eigenvalues, 0.0)
        dec = eigen_sym(SymMatrix.diag([1.0, 1.0]))
        assert_allclose(dec.eigenvalues, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            eigen_sym(SymMatrix(2, [np.nan, 0.0, 1.0]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix.from_full([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidMatrix, match="dim 2 needs 3 entries"):
            SymMatrix(2, [1.0, 0.0])
        with pytest.raises(InvalidMatrix, match="square"):
            SymMatrix.from_full(np.zeros((2, 3)))

    def test_repr_shows_the_stored_triangle(self):
        assert repr(SymMatrix(2, [1.0, 0.0, 2.0])) == \
            "SymMatrix(dim=2, entries=array([1., 0., 2.]))"


class TestPucci:
    def test_worked_values(self):
        p = PucciParams(1.0, 2.0, Variant.PLUS)
        m = PucciParams(1.0, 2.0, Variant.MINUS)
        x = SymMatrix.diag([1.0, -1.0])
        assert_allclose(pucci(p, x), 1.0)
        assert_allclose(pucci(m, x), -1.0)
        assert pucci(p, SymMatrix.diag([0.0, 0.0])) == 0.0

    def test_coefficient_tie_goes_to_negative_side(self):
        # one rule for every layer: t = 0 takes the negative-side coefficient
        t = np.array([-1.0, 0.0, 1.0])
        assert_allclose(_coef(PucciParams(0.5, 2.0, Variant.PLUS), t),
                        [0.5, 0.5, 2.0], rtol=0.0)
        assert_allclose(_coef(PucciParams(0.5, 2.0, Variant.MINUS), t),
                        [2.0, 2.0, 0.5], rtol=0.0)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("s", [-2.0, 0.0, 3.0])
    def test_invert_coef_round_trips(self, variant, s):
        # power-of-two bounds, so the division and product are exact
        p = PucciParams(0.5, 2.0, variant)
        t = _invert_coef(p, s)
        assert _coef(p, t) * t == s
        assert np.sign(t) == np.sign(s)

    def test_reduces_to_trace_when_a_equals_A(self):
        rng = np.random.default_rng(21)
        p = PucciParams(1.7, 1.7)
        for _ in range(TRIALS):
            x = random_sym(rng, 3)
            assert_allclose(pucci(p, SymMatrix.from_full(x)),
                            1.7 * np.trace(x), atol=1e-12)

    def test_duality(self):
        # plus of X equals minus of -X, negated
        rng = np.random.default_rng(22)
        p = PucciParams(0.5, 2.0, Variant.PLUS)
        m = PucciParams(0.5, 2.0, Variant.MINUS)
        for _ in range(TRIALS):
            x = random_sym(rng, int(rng.integers(2, 5)))
            a = pucci(p, SymMatrix.from_full(x))
            b = -pucci(m, SymMatrix.from_full(-x))
            assert_allclose(a, b, atol=1e-11 * max(1.0, np.abs(x).max()))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(23)
        p = PucciParams(0.5, 2.0)
        for _ in range(TRIALS):
            x = random_sym(rng, 3)
            t = rng.uniform(0.0, 5.0)
            assert_allclose(pucci(p, SymMatrix.from_full(t * x)),
                            t * pucci(p, SymMatrix.from_full(x)), atol=1e-10)

    def test_sub_and_superadditive(self):
        rng = np.random.default_rng(24)
        plus = PucciParams(0.5, 2.0, Variant.PLUS)
        minus = PucciParams(0.5, 2.0, Variant.MINUS)
        for _ in range(TRIALS):
            x, y = random_sym(rng, 3), random_sym(rng, 3)
            s = SymMatrix.from_full(x + y)
            assert pucci(plus, s) <= pucci(plus, SymMatrix.from_full(x)) \
                + pucci(plus, SymMatrix.from_full(y)) + 1e-10
            assert pucci(minus, s) >= pucci(minus, SymMatrix.from_full(x)) \
                + pucci(minus, SymMatrix.from_full(y)) - 1e-10

    def test_degenerate_elliptic_monotone(self):
        # X <= Y in the matrix order implies M(X) <= M(Y)
        rng = np.random.default_rng(25)
        for variant in Variant:
            p = PucciParams(0.5, 2.0, variant)
            for _ in range(TRIALS // 2):
                x = random_sym(rng, 3)
                b = rng.normal(size=(3, 3))
                y = x + b @ b.T
                assert pucci(p, SymMatrix.from_full(x)) \
                    <= pucci(p, SymMatrix.from_full(y)) + 1e-10


class TestFOperator:
    def test_gradient_weight(self):
        p = PucciParams(1.0, 1.0, alpha=1.0)
        x = SymMatrix.diag([1.0, 1.0])
        assert_allclose(f_operator(p, [2.0, 0.0], x), 2.0 * 2.0)
        assert f_operator(p, [0.0, 0.0], x) == 0.0

    def test_alpha_zero_ignores_gradient(self):
        p = PucciParams(1.0, 2.0, alpha=0.0)
        x = SymMatrix.diag([1.0, -2.0])
        assert f_operator(p, [0.0, 0.0], x) == pucci(p, x)

    def test_singular_weight_raises(self):
        p = PucciParams(1.0, 1.0, alpha=-0.5)
        with pytest.raises(DegenerateGradient):
            f_operator(p, [0.0, 0.0], SymMatrix.diag([1.0, 1.0]))

    def test_solution_homogeneity(self):
        # scaling u -> t u scales the operator by t^(1+alpha)
        rng = np.random.default_rng(31)
        for alpha in (-0.5, 0.0, 1.0):
            p = PucciParams(0.5, 2.0, alpha=alpha)
            for _ in range(TRIALS // 4):
                grad = rng.normal(size=3)
                x = random_sym(rng, 3)
                t = rng.uniform(0.1, 4.0)
                a = f_operator(p, t * grad, SymMatrix.from_full(t * x))
                b = t ** (1.0 + alpha) * f_operator(p, grad, SymMatrix.from_full(x))
                assert_allclose(a, b, rtol=1e-10)


class TestBoundaryHessian:
    def test_laplacian_disk(self):
        # unit disk with unit source: the radial solution (1 - r^2)/4 has
        # Hessian -I/2 everywhere, c = -1/2 and curvature 1
        p = PucciParams(1.0, 1.0)
        h = boundary_hessian(p, -0.5, 1.0, SymMatrix.diag([1.0]))
        assert_allclose(h.full(), -0.5 * np.eye(2), atol=1e-14)

    def test_flat_zero_source(self):
        p = PucciParams(1.0, 2.0)
        h = boundary_hessian(p, -1.0, 0.0, SymMatrix.diag([0.0]))
        assert_allclose(h.full(), 0.0)

    def test_unbalanced_branch(self):
        # tangential part contributes -a, so the normal entry must satisfy
        # A t = a with t > 0
        p = PucciParams(1.0, 2.0)
        h = boundary_hessian(p, -1.0, 0.0, SymMatrix.diag([1.0]))
        assert_allclose(np.diag(h.full()), [-1.0, 0.5])

    def test_equation_identity(self):
        # the defining property: evaluating the operator on the assembled
        # Hessian recovers -|c|^(-alpha) * f0
        rng = np.random.default_rng(41)
        for variant in Variant:
            for alpha in (-0.5, 0.0, 1.0):
                for _ in range(TRIALS // 4):
                    a = rng.uniform(0.2, 2.0)
                    p = PucciParams(a, a * rng.uniform(1.0, 3.0), variant, alpha)
                    c = -rng.uniform(0.1, 2.0)
                    f0 = rng.uniform(-1.0, 2.0)
                    curv = random_sym(rng, int(rng.integers(1, 3)))
                    h = boundary_hessian(p, c, f0, SymMatrix.from_full(curv))
                    lhs = f_operator(p, [abs(c)] + [0.0] * curv.shape[0], h)
                    assert_allclose(lhs, -f0, atol=1e-10)

    def test_degenerate_neumann(self):
        p = PucciParams(1.0, 1.0, alpha=-0.5)
        with pytest.raises(DegenerateGradient):
            boundary_hessian(p, 0.0, 1.0, SymMatrix.diag([1.0]))

    @pytest.mark.parametrize("alpha, c", [(0.5, 0.0), (1.0, 0.0),
                                          (0.5, -0.7), (-0.5, -0.7)])
    def test_zero_source_drops_the_weight(self, alpha, c):
        # with f0 = 0 the weight |c|^(-alpha) f0 is 0 for every alpha, also
        # at c = 0, where 0.0 ** -alpha raises for alpha > 0; the tangential
        # part a c alone fixes A u_nn = -a c
        p = PucciParams(1.0, 2.0, alpha=alpha)
        h = boundary_hessian(p, c, 0.0, SymMatrix.diag([1.0]))
        assert_allclose(np.diag(h.full()), [c, -0.5 * c], rtol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        PucciParams(2.0, 1.0)
    with pytest.raises(ValueError):
        PucciParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PucciParams(1.0, 1.0, alpha=-1.0)
    with pytest.raises(ValueError, match="must be a Variant"):
        PucciParams(1.0, 1.0, "plus")


@pytest.mark.parametrize("a, big_a, alpha, message", [
    (1.0, np.inf, 0.0, "finite 0 < a <= A"),
    (np.inf, np.inf, 0.0, "finite 0 < a <= A"),
    (np.nan, 1.0, 0.0, "finite 0 < a <= A"),
    (1.0, 1.0, np.inf, "finite alpha"),
    (1.0, 1.0, np.nan, "finite alpha"),
])
def test_params_must_be_finite(a, big_a, alpha, message):
    # an infinite A or alpha passed the order checks, and solvers then
    # built NaN forms or singular matrices from it
    with pytest.raises(ValueError, match=message):
        PucciParams(a, big_a, alpha=alpha)
