"""Extremal Pucci operators and the degenerate gradient weight.

The two extremal operators act on the eigenvalues of a symmetric matrix X.
With ellipticity bounds 0 < a <= A,

    plus  variant:  A * (sum of positive eigenvalues) - a * |sum of negative|
    minus variant:  a * (sum of positive eigenvalues) - A * |sum of negative|

and the full operator weights them by |grad|^alpha with alpha > -1, which is
degenerate (alpha > 0) or singular (alpha < 0) where the gradient vanishes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGradient, InvalidMatrix


class Variant(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class PucciParams:
    """Ellipticity pair (a, A), operator variant and gradient exponent."""

    a: float
    A: float
    variant: Variant = Variant.PLUS
    alpha: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.a <= self.A < np.inf):
            raise ValueError(
                f"need finite 0 < a <= A, got a={self.a}, A={self.A}")
        if not (-1.0 < self.alpha < np.inf):
            raise ValueError(f"need a finite alpha > -1, got {self.alpha}")
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")


class SymMatrix:
    """Symmetric matrix stored as its upper triangle, row-major.

    Only dim*(dim+1)/2 entries are kept, so symmetry holds by construction.
    """

    def __init__(self, dim, entries):
        entries = np.asarray(entries, dtype=float).ravel()
        if entries.size != dim * (dim + 1) // 2:
            raise InvalidMatrix(
                f"dim {dim} needs {dim * (dim + 1) // 2} entries, got {entries.size}")
        self.dim = int(dim)
        self.entries = entries

    @classmethod
    def from_full(cls, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidMatrix(f"expected a square matrix, got shape {mat.shape}")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(mat).max())):
            raise InvalidMatrix("matrix is not symmetric")
        n = mat.shape[0]
        iu = np.triu_indices(n)
        return cls(n, 0.5 * (mat + mat.T)[iu])

    @classmethod
    def diag(cls, values):
        values = np.asarray(values, dtype=float)
        return cls.from_full(np.diag(values))

    def full(self):
        n = self.dim
        mat = np.zeros((n, n))
        iu = np.triu_indices(n)
        mat[iu] = self.entries
        return mat + np.triu(mat, 1).T

    def __repr__(self):
        return f"SymMatrix(dim={self.dim}, entries={self.entries!r})"


@dataclass
class EigenDecomp:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_sym(x):
    """Diagonalise a small symmetric matrix.

    Parameters
    ----------
    x : SymMatrix
        The matrix to decompose.

    Returns
    -------
    EigenDecomp
        Eigenvalues ascending, eigenvector columns orthonormal and matched.
    """
    a = x.full()
    if not np.isfinite(a).all():
        raise InvalidMatrix("non-finite entries")
    lam, vec = np.linalg.eigh(a)
    return EigenDecomp(lam, vec)


def pucci(params, x):
    """Evaluate the extremal operator of ``params.variant`` at matrix ``x``."""
    lam = eigen_sym(x).eigenvalues
    return (_coef(params, lam) * lam).sum()


def f_operator(params, grad, x):
    """Full degenerate operator |grad|^alpha * pucci(x).

    Raises
    ------
    DegenerateGradient
        If alpha < 0 and the gradient vanishes (the weight is singular).
    """
    grad = np.asarray(grad, dtype=float)
    g = float(np.sqrt((grad * grad).sum()))
    if g == 0.0 and params.alpha < 0.0:
        raise DegenerateGradient("|grad| = 0 with negative exponent")
    return g ** params.alpha * pucci(params, x)


def _directional_coef(params, positive):
    """Coefficient the variant applies on an eigenvalue of the given sign."""
    if params.variant is Variant.PLUS:
        return params.A if positive else params.a
    return params.a if positive else params.A


def _coef(params, t):
    """Coefficient the variant applies on each entry of the array t: the
    positive-side one where t > 0, the negative-side one elsewhere.  Any
    choice at t = 0 gives the same operator, but the frozen matrices of the
    grid and the sector see it, so every layer takes it from here."""
    return np.where(t > 0.0, _directional_coef(params, True),
                    _directional_coef(params, False))


def _invert_coef(params, s):
    """The t with _coef(params, t) * t == s, for a scalar s: both
    coefficients are positive, so t takes the sign of s."""
    return s / _directional_coef(params, s > 0.0)


def boundary_hessian(params, c, f0, curv):
    """Full Hessian of a solution at a boundary point with flat gradient frame.

    The frame puts the last axis along the inner normal, so the boundary is
    locally the graph of a function whose Hessian is ``curv`` and the Neumann
    datum c is the outward normal derivative.  Tangential second derivatives
    are then c * curv, and the normal-normal entry is recovered from the
    equation |grad u|^alpha * M(D^2 u) + f = 0 with |grad u| = |c| on the
    boundary:

        M(diag(c * curv, t)) = -|c|^(-alpha) * f0

    which fixes t = s / A or t = s / a with s the right-hand side minus the
    tangential contribution: t takes the sign of s (``_invert_coef``).

    Parameters
    ----------
    params : PucciParams
    c : float
        Outward normal derivative on the boundary (nonzero unless both the
        exponent and f0 allow the weight to drop out).
    f0 : float
        Source value at the boundary point.
    curv : SymMatrix
        Second fundamental form of the boundary graph, dimension N-1.

    Returns
    -------
    SymMatrix
        The N-dimensional Hessian diag(c * curv, u_nn).
    """
    if c == 0.0 and (params.alpha < 0.0 or (params.alpha != 0.0 and f0 != 0.0)):
        raise DegenerateGradient("c = 0 leaves the boundary equation singular")
    tang = SymMatrix(curv.dim, c * curv.entries)
    m_tang = pucci(params, tang)
    # at c = 0 and alpha > 0, 0.0 ** -alpha raises; a zero f0 drops out
    weight = 0.0 if f0 == 0.0 else abs(c) ** (-params.alpha) * f0
    unn = _invert_coef(params, -m_tang - weight)
    n = curv.dim + 1
    full = np.zeros((n, n))
    full[: n - 1, : n - 1] = tang.full()
    full[n - 1, n - 1] = unn
    return SymMatrix.from_full(full)
