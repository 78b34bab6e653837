import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_array_equal

from pucci_lab._iterate import (fold, inverse_power, policy_eigen, relax,
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


def _box_lattice(shape):
    """The arm table of a box lattice, int32, with arms along the axes and
    the diagonals: an arm that leaves the box ends at an index of its own
    beyond the nodes, as a grid cut does."""
    arms = np.array([(1, 0), (0, 1), (1, 1), (1, -1)])
    ends = (np.indices(shape).reshape(2, -1).T[:, None]
            + np.multiply.outer([1, -1], arms)[:, None])
    off = ~((ends >= 0) & (ends < shape)).all(axis=-1)
    nb = np.ravel_multi_index(np.moveaxis(ends, -1, 0), shape, mode="clip")
    nb[off] = np.prod(shape) + np.arange(off.sum())
    return nb.astype(np.int32)


def _mirror_rep(shape):
    """Each node's image in the lower half of each axis of a box."""
    return np.ravel_multi_index([np.minimum(i, n - 1 - i) for i, n in
                                 zip(np.indices(shape), shape)],
                                shape).ravel()


def _box_flips(shape):
    """The node maps of a box's axis mirrors, nodes in C order."""
    ids = np.arange(np.prod(shape)).reshape(shape)
    return [np.flip(ids, axis).ravel() for axis in range(len(shape))]


def _square_maps(m):
    """The node maps of the 7 lattice maps of an m x m box besides the
    identity, nodes in C order: the axis mirrors, the turns by a quarter,
    a half and three quarters, and the diagonal mirrors."""
    ids = np.arange(m * m).reshape(m, m)
    return [a.ravel() for a in (
        np.flip(ids, 0), np.flip(ids, 1), np.rot90(ids), np.rot90(ids, 2),
        np.rot90(ids, 3), ids.T, np.rot90(ids, 2).T)]


class TestFold:
    def test_identity_is_the_whole_table(self):
        nb = _box_lattice((3, 4))
        n = nb.shape[1]
        keep, to_r, folded = fold(nb, [])
        assert_array_equal(keep, np.arange(n))
        assert_array_equal(to_r, np.arange(n))
        assert folded.dtype == to_r.dtype == nb.dtype
        assert_array_equal(folded, nb)

    @pytest.mark.parametrize("shape", [(3, 4), (5, 5), (4, 6)])
    def test_folded_matrix_sums_the_orbit_columns(self, shape):
        # on an odd side both arms of a middle node end at one node, and on
        # an even side the arms across the mirror end at their own centre
        nb = _box_lattice(shape)
        n = nb.shape[1]
        keep, to_r, folded = fold(nb, _box_flips(shape))
        n_r = len(keep)
        assert n_r == np.prod([(m + 1) // 2 for m in shape])
        assert_array_equal(to_r[keep], np.arange(n_r))
        # the smallest node of an orbit is its image in the lower halves,
        # whichever mirror comes first
        assert_array_equal(keep[to_r], _mirror_rep(shape))
        for got, want in zip(fold(nb, _box_flips(shape)[::-1]),
                             (keep, to_r, folded)):
            assert_array_equal(got, want)
        # ends beyond the nodes stay beyond, shifted down to n_r
        beyond = nb[:, keep] >= n
        assert_array_equal(folded >= n_r, beyond)
        assert_array_equal(folded[beyond], nb[:, keep][beyond] - n + n_r)
        # dyadic weights, so every sum is exact
        weights = np.random.default_rng(2).integers(1, 9, nb.shape) / 4.0
        whole = stencil_matrix(nb, weights).toarray()
        orbits = np.zeros((n, n_r))
        orbits[np.arange(n), to_r] = 1.0
        assert_array_equal(
            stencil_matrix(folded, weights[:, keep]).toarray(),
            (whole @ orbits)[keep])

    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("pick", [range(7), [3, 5], [2], [6, 0]],
                             ids=["group", "half turn, diagonal",
                                  "quarter turn", "diagonal, x mirror"])
    def test_representative_is_the_orbit_minimum(self, m, pick):
        # a turn or a diagonal mirror does not turn one axis round, so one
        # pass of the maps may stop short of an orbit's smallest node;
        # the fold finds it for the whole group and for maps that only
        # generate a group, in either order
        maps = [_square_maps(m)[k] for k in pick]
        group, grown = {tuple(range(m * m))}, True
        while grown:
            new = {tuple(np.array(g)[f]) for g in group for f in maps}
            grown = not new <= group
            group |= new
        smallest = np.array(sorted(group)).min(axis=0)
        nb = _box_lattice((m, m))
        for order in (maps, maps[::-1]):
            keep, to_r, _ = fold(nb, order)
            assert_array_equal(keep[to_r], smallest)


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
