import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_array_equal

from pucci_lab._iterate import (inverse_power, policy_eigen, relax,
                                stencil_matrix)
from pucci_lab.errors import IterationLimit, PositivityLoss


class TestStencilMatrix:
    # row i applies weights[s, i, j] to u[ends[s, i, j]] - u[i]
    ENDS = np.array([[[1, 1, 3], [0, 2, 2], [0, 3, 7]],
                     [[2, 2, 3], [2, 0, 3], [1, 1, 1]]])
    WEIGHTS = np.array([[[1.0, 0.5, 9.0], [2.0, 1.0, 0.25], [0.5, 9.0, 9.0]],
                        [[3.0, 0.0, 0.0], [0.75, 2.0, 4.0], [0.0, 0.125, 1.0]]])

    def test_assembly(self):
        # every off-diagonal entry sums repeated (row, column) pairs, and
        # ends 3 = n and 7 > n are not unknowns
        mat = stencil_matrix(self.ENDS, self.WEIGHTS)
        # the format splu factors, so no layer converts before factoring
        assert mat.format == "csc"
        assert mat.shape == (3, 3)
        assert_array_equal(mat.toarray(), [[-13.5, 1.5, 3.0],
                                           [4.0, -10.0, 2.0],
                                           [0.5, 1.125, -19.625]])

    def test_diagonal_is_minus_the_row_sum(self):
        # every arm counts on the diagonal, also one that ends off the
        # unknowns (a cut point, a node beyond the box), which makes no
        # other entry; so u = 1 leaves only what those arms carry
        mat = stencil_matrix(self.ENDS, self.WEIGHTS)
        assert_array_equal(mat.diagonal(), -self.WEIGHTS.sum(axis=(0, 2)))
        off = (self.WEIGHTS * (self.ENDS >= 3)).sum(axis=(0, 2))
        assert_array_equal(mat @ np.ones(3), -off)

    def test_zeros_not_stored(self):
        # a sum that comes out zero is not stored, nor is a zero weight
        ends = np.array([[[1], [0]], [[1], [2]]])
        weights = np.array([[[1.0], [2.0]], [[-1.0], [0.0]]])
        mat = stencil_matrix(ends, weights)
        assert_array_equal(mat.toarray(), [[0.0, 0.0], [2.0, -2.0]])
        assert mat.nnz == 2

    def test_zero_columns_keep_the_bits(self):
        # a table padded with zero-weight arms, as a grid scheme that reads
        # fewer directions than its domain resolves, gives the same matrix
        rng = np.random.default_rng(3)
        ends = rng.integers(0, 12, size=(2, 10, 3)).astype(np.int32)
        scale = 10.0 ** rng.integers(-8, 8, size=(2, 10, 3))
        weights = rng.random((2, 10, 3)) * scale
        pad = rng.integers(0, 12, size=(2, 10, 2)).astype(np.int32)
        got = stencil_matrix(np.concatenate([ends, pad], axis=2),
                             np.concatenate([weights, np.zeros((2, 10, 2))],
                                            axis=2))
        want = stencil_matrix(ends, weights)
        for part in ("data", "indices", "indptr"):
            assert_array_equal(getattr(got, part), getattr(want, part))


class TestPolicyEigenStart:
    # -F is the 1-D Dirichlet Laplacian on three nodes, whose Perron pair
    # is (2 - sqrt 2, (1, sqrt 2, 1)/sqrt 2) at sup 1
    MAT = sp.csc_matrix([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                         [0.0, -1.0, 2.0]])
    PERRON = np.array([1.0, np.sqrt(2.0), 1.0]) / np.sqrt(2.0)

    def solve(self, x0):
        """The pair from x0 and the number of freezes made."""
        freezes = []

        def linearize(v):
            def freeze():
                freezes.append(1)
                return -self.MAT
            return -(self.MAT @ v), freeze

        lam, phi = policy_eigen(linearize, spla.splu, x0, tol=1e-10,
                                eig_tol=1e-14, max_steps=5)
        return lam, phi, len(freezes)

    def test_an_eigenvector_start_needs_no_freeze(self):
        lam, phi, freezes = self.solve(self.PERRON)
        assert freezes == 0
        assert lam == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-15)
        assert_array_equal(phi, self.PERRON)

    @pytest.mark.parametrize("x0", [np.ones(3), -PERRON,
                                    PERRON + [1e-6, 0.0, 0.0]],
                             ids=["residual", "negative", "near"])
    def test_other_starts_freeze(self, x0):
        # a start that is not a positive pair within tol is refrozen
        lam, phi, freezes = self.solve(x0)
        assert freezes == 1
        assert lam == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)
        assert np.abs(phi - self.PERRON).max() < 1e-12


class TestFailurePaths:
    def test_relax_step_cap(self):
        with pytest.raises(IterationLimit, match="after 3 steps") as info:
            relax(lambda v: -v, np.ones(3), 0.1, tol=1e-8, max_steps=3)
        assert_array_equal(info.value.history, [1.0, 0.9, 0.9 ** 2])

    def test_inverse_power_collapse(self):
        with pytest.raises(PositivityLoss, match="collapsed to zero"):
            inverse_power(lambda x, prev: np.zeros_like(x), np.ones(3),
                          tol=1e-6, max_power=5)

    def test_inverse_power_step_cap(self):
        # step k scales by k + 1, so lambda runs 1, 1/2, 1/3, ... and
        # never settles
        calls = []

        def step(x, prev):
            calls.append(prev)
            return x * len(calls)

        with pytest.raises(IterationLimit, match="4 steps") as info:
            inverse_power(step, np.ones(3), tol=1e-6, max_power=4)
        assert info.value.history == [1.0, 0.5, 1.0 / 3.0, 0.25]
        assert calls[0] is None

    def test_inverse_power_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            inverse_power(lambda x, prev: x, np.ones(3), tol=1e-6,
                          max_power=0)
