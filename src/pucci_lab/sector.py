"""Spherical-sector spectral problem behind the corner barrier.

The barrier w = r^gamma * psi(theta) turns the extremal operator into an
angular operator H on a shrunken quarter-sphere sector: an M-minus term on
the frame-scaled angular Hessian, first-order penalties proportional to
(a - A), and curvature connection terms with eigenvalue-wise coefficient
selection.  At a = A the whole thing collapses to A times the
Laplace-Beltrami operator, which anchors every sign convention here.  Its
discrete Perron vector separates in theta_1 and theta_2
(``_laplace_beltrami_mode``), and every policy eigen solve starts from it,
so an a = A solve needs no factorization.  The box is symmetric about
theta_1 = pi/4 and theta_2 = 0 and H commutes with both reflections, so
the principal eigenfunction, unique up to scale, is invariant under them,
and the policy solve runs on the folded box (``_folded``): one node per
mirror orbit (``_iterate.fold``), a quarter of the nodes for N = 3.

Coordinates: theta_1 is the azimuth in the (x1, x2) plane, restricted to
(0, pi/2) for the quarter; for N = 3, theta_2 is the latitude in
(-pi/2, pi/2).  The sector S_delta removes angular measure delta by
shrinking each coordinate interval by a margin delta_prime.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse.linalg as spla
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from ._iterate import (LU_OPTIONS, _check_cap, fold, inverse_power,
                       policy_eigen, relax, stencil_matrix)
from .errors import IterationLimit, OutOfDomain
from .grid.domain import _INDEX, _write_csv
from .operators import Variant, _coef

_MIN_NODES = 3
# the arms of the sector stencil per N, as node-index offsets: the axes,
# then for N = 3 the diagonals of the cross difference
_ARMS = {2: np.array([(1,)]), 3: np.array([(1, 0), (0, 1), (1, 1), (1, -1)])}
# iteration cap of the relax inner solve
_MAX_RELAX = 400_000


@dataclass(frozen=True)
class SectorOperatorParams:
    """Ellipticity window plus the barrier exponent and shift.  The sector
    operator is built on M-minus, so ``variant`` is fixed, not a field."""

    a: float
    A: float
    gamma: float = 2.0
    epsilon: float = 0.0
    variant = Variant.MINUS

    def __post_init__(self):
        if not (0.0 < self.a <= self.A < np.inf):
            raise ValueError(
                f"need finite 0 < a <= A, got a={self.a}, A={self.A}")
        if not (2.0 <= self.gamma < np.inf):
            raise ValueError(f"need a finite gamma >= 2, got {self.gamma}")
        if not (0.0 <= self.epsilon < np.inf):
            raise ValueError(f"need a finite epsilon >= 0, got {self.epsilon}")


def shrink_angle(n_dim, delta):
    """Margin delta_prime whose removal takes angular measure delta.

    For N = 2 the removed set is two arcs, measure 2*delta_prime.  For
    N = 3 the removed measure on the quarter sphere is
    pi - (pi/2 - 2*dp) * 2*cos(dp), inverted by Brent's method.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"need a finite delta >= 0, got {delta}")
    if n_dim == 2:
        dp = 0.5 * delta
        if dp >= np.pi / 4:
            raise ValueError(f"delta={delta} removes the whole quarter arc")
        return dp
    if n_dim == 3:
        if delta >= np.pi:
            raise ValueError(f"delta={delta} removes the whole quarter sphere")

        # the removed measure rises from 0 at dp = 0 to pi at dp = pi/4
        return brentq(
            lambda dp: np.pi - (np.pi / 2 - 2.0 * dp) * 2.0 * np.cos(dp) - delta,
            0.0, np.pi / 4, xtol=1e-16)
    raise ValueError(f"sector meshes support N = 2 or 3, got N={n_dim}")


class SectorMesh:
    """Tensor grid strictly inside the shrunken angular box.

    ``bounds`` holds one (lo, hi) per angular axis, ``axes`` its interior
    nodes and ``spacings`` their steps: theta_1, then theta_2 for N = 3.
    ``nb`` is the arm table in the grid domain's layout, int32 (2, n_nodes,
    k) with the forward side first: node i's arm along ``_ARMS[n_dim][j]``
    (against it) ends at node nb[0, i, j] (nb[1, i, j]), nodes numbered in
    C order, or at n_nodes beyond the box, where the field is 0.  ``weights``
    (5, 2, k) are those of d1_1, d1_2, d2_11, d2_22 and d2_12 on the arm
    differences (0 along an absent theta2 axis).  ``q1`` and ``tan2`` are
    the operator's per-node geometry, flat in that order:
    with r_i/r = prod_{k=i}^{N-1} cos(theta_k), q1 = r/r_2 = 1/cos(theta2)
    and tan2 = tan(theta2) for N = 3; N = 2 is the equator theta2 = 0,
    where q1 = 1 and tan2 = 0.
    """

    def __init__(self, n_dim, delta, spacing):
        if n_dim not in (2, 3):
            raise ValueError(f"sector meshes support N = 2 or 3, got N={n_dim}")
        if not 0.0 < spacing < np.inf:
            raise ValueError(f"need a finite positive spacing, got {spacing}")
        self.n_dim = n_dim
        self.delta_prime = dp = shrink_angle(n_dim, delta)
        self.bounds, self.axes, self.spacings = [], [], []
        for lo, width in ((dp, np.pi / 2 - 2.0 * dp),
                          (-np.pi / 2 + dp, np.pi - 2.0 * dp))[:n_dim - 1]:
            m = int(round(width / spacing))
            if m < _MIN_NODES + 1:
                raise ValueError(f"spacing {spacing} too coarse for box width {width:.4f}")
            self.bounds.append((lo, np.pi / 2 - dp))
            self.spacings.append(width / m)
            self.axes.append(lo + self.spacings[-1] * np.arange(1, m))
        self.spacing = max(self.spacings)
        # the arm ends as lattice indices, shaped (2, n, k, axis); those off
        # the box are clipped for the flat index, then replaced by n
        ends = (np.indices(self.shape).reshape(n_dim - 1, -1).T[:, None]
                + np.multiply.outer([1, -1], _ARMS[n_dim])[:, None])
        inside = ((ends >= 0) & (ends < self.shape)).all(axis=-1)
        self.nb = np.where(inside, np.ravel_multi_index(
            np.moveaxis(ends, -1, 0), self.shape, mode="clip"),
            self.n_nodes).astype(_INDEX)
        # d1 and d2 on an axis's two arms, d2_12 on the diagonals
        self.weights = w = np.zeros((5, 2, len(_ARMS[n_dim])))
        for j, h in enumerate(self.spacings):
            w[j, :, j], w[2 + j, :, j] = (0.5 / h, -0.5 / h), 1.0 / h ** 2
        if n_dim == 3:
            w[4, :, 2:] = np.array([1.0, -1.0]) / (4.0 * np.prod(self.spacings))
        lat = np.broadcast_to((*self.axes, np.zeros(1))[1], self.shape).ravel()
        self.q1, self.tan2 = 1.0 / np.cos(lat), np.tan(lat)

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))


@dataclass
class SectorField:
    """Node values on a sector mesh; zero on the box boundary."""

    mesh: SectorMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.mesh.shape:
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match mesh {self.mesh.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("sector field has non-finite values")


def _diffs(vals, mesh):
    """Central differences d1_1, d1_2, d2_11, d2_22, d2_12 of the flat node
    values vals, which are zero beyond the box, as rows of a (5, n) array:
    ``mesh.weights`` applied to the arm differences."""
    diff = np.append(vals, 0.0).take(mesh.nb.transpose(0, 2, 1)) - vals
    return mesh.weights.reshape(5, -1) @ diff.reshape(-1, len(vals))


def _sym2_eigen(g11, g12, g22):
    """Closed-form eigenvalues lam_p >= lam_m of fields of symmetric 2x2
    matrices G, and the reflection R = (G - tr(G)/2 I) / rad as (R11, R12),
    rad = (lam_p - lam_m)/2: (I + R)/2 projects on lam_p's eigenvector.
    R = 0 where rad = 0."""
    half_tr = 0.5 * (g11 + g22)
    half_df = 0.5 * (g11 - g22)
    rad = np.hypot(half_df, g12)
    refl = tuple(np.divide(x, rad, out=np.zeros_like(rad), where=rad > 0.0)
                 for x in (half_df, g12))
    return half_tr + rad, half_tr - rad, refl


def _linearize(params, mesh, vals):
    """The sector operator at the flat node values vals as one linear
    form, read by H and its frozen matrix alike.

    ``coef`` holds the weights of d1_1, d1_2, d2_11, d2_22 and d2_12 at
    the choices M-minus makes at vals: e_p lam_p + e_m lam_m of the scaled
    angular Hessian G (entries q1^2 d2_11, q1 d2_12, d2_22) is tr(C G) with
    C = e_p P + e_m (I - P), P = (I + R)/2 from ``_sym2_eigen``; the
    penalties take the signs of d1, and the connection term the
    coefficient e_mu of its argument mu = -d1_2 * tan2.  ``value`` is
    H(vals), the form applied to the differences.
    """
    q1, tan2 = mesh.q1, mesh.tan2
    d1_1, d1_2, d2_11, d2_22, d2_12 = diffs = _diffs(vals, mesh)
    lam_p, lam_m, (r11, r12) = _sym2_eigen(q1 ** 2 * d2_11, q1 * d2_12, d2_22)
    e_p, e_m, e_mu = (_coef(params, x) for x in (lam_p, lam_m, -d1_2 * tan2))
    p11, p22, pen = 0.5 * (1.0 + r11), 0.5 * (1.0 - r11), params.a - params.A
    coef = (pen * np.sign(d1_1) * (params.gamma * q1 + q1 ** 2),
            pen * np.sign(d1_2) * (params.gamma + 1.0) - e_mu * tan2,
            q1 ** 2 * (e_p * p11 + e_m * p22), e_p * p22 + e_m * p11,
            q1 * (e_p - e_m) * r12)
    return SimpleNamespace(coef=coef,
                           value=sum(c * d for c, d in zip(coef, diffs)))


def assemble_H(params, mesh, psi):
    """Nodewise value of the sector operator H applied to psi."""
    if psi.mesh is not mesh and psi.mesh.shape != mesh.shape:
        raise ValueError("field and mesh disagree")
    return SectorField(mesh, _linearize(params, mesh, psi.values.ravel())
                       .value.reshape(mesh.shape))


def _frozen_matrix(mesh, lin):
    """Sparse matrix of ``mesh.weights`` contracted with the form ``lin.coef``.

    H is positively 1-homogeneous and piecewise linear in the nodal
    values, so M @ vals = H(vals) exactly at the linearization's vals; the
    eigen/policy loops exploit that.  Entries that vanish (the four cross
    ones of a row where G12 = 0 or e_p = e_m, as everywhere at a = A) are
    not stored.
    """
    coef = np.array(lin.coef).T
    weights = (coef @ mesh.weights.reshape(5, -1)).reshape(len(coef), 2, -1)
    return stencil_matrix(mesh.nb, weights.transpose(1, 0, 2))


def _factor(mat):
    return spla.splu(mat.tocsc(), **LU_OPTIONS)


def _laplace_beltrami_mode(mesh):
    """Perron vector of the a = A frozen matrix, flat, at sup 1.

    At a = A that matrix is A (q1^2 T1 + T2 - tan2 D1), T the second and D
    the first central difference along an axis.  q1 and tan2 depend on
    theta_2 alone, so the vector separates: the first sine vector of T1,
    whose eigenvalue of -T1 is kappa, times the Perron vector of the
    tridiagonal kappa q1^2 - T2 + tan2 D1 in theta_2.  Every node lies at
    least h2 from a pole, so |tan2| < 1/h2 and both off-diagonals of that
    matrix are negative; a diagonal similarity makes it symmetric, and
    ``eigh_tridiagonal`` gives its lowest pair.  It does not depend on A.
    """
    n1, h1 = mesh.shape[0], mesh.spacings[0]
    mode = np.sin(np.pi * np.arange(1, n1 + 1) / (n1 + 1))
    mode /= mode.max()
    if mesh.n_dim == 2:
        return mode
    kappa = (2.0 / h1 * np.sin(0.5 * np.pi / (n1 + 1))) ** 2
    # q1 and tan2 along theta_2: the first row of nodes
    n2, h2 = mesh.shape[1], mesh.spacings[1]
    q1, tan2 = mesh.q1[:n2], mesh.tan2[:n2]
    # the row i entries at theta_2 nodes i + 1 and i - 1
    up = -1.0 / h2 ** 2 + tan2[:-1] / (2.0 * h2)
    down = -1.0 / h2 ** 2 - tan2[1:] / (2.0 * h2)
    # S = D B D^-1 with d[i+1]/d[i] = sqrt(up[i]/down[i]) is symmetric
    d = np.cumprod(np.concatenate([[1.0], np.sqrt(up / down)]))
    _, vec = eigh_tridiagonal(kappa * q1 ** 2 + 2.0 / h2 ** 2,
                              -np.sqrt(up * down), select="i",
                              select_range=(0, 0))
    lat = vec[:, 0] / d
    lat /= lat[np.argmax(np.abs(lat))]
    return np.outer(mode, lat).ravel()


def _folded(mesh):
    """The mesh folded by its box flips (``fold``), as the operator reads
    it: theta_1 -> pi/2 - theta_1, and theta_2 -> -theta_2 for N = 3,
    each a node map of the C-ordered box.  A box that would fold below 3
    nodes, fewer than ARPACK's one pair needs, has no map and is not
    folded.
    """
    ids = np.arange(mesh.n_nodes).reshape(mesh.shape)
    maps = [np.flip(ids, axis).ravel() for axis in range(ids.ndim)]
    if np.prod([(n + 1) // 2 for n in mesh.shape]) < 3:
        maps = []
    keep, to_r, nb = fold(mesh.nb, maps)
    return SimpleNamespace(keep=keep, to_r=to_r, nb=nb, weights=mesh.weights,
                           q1=mesh.q1[keep], tan2=mesh.tan2[keep])


def sector_principal_eigenvalue(params, mesh, *, tol=1e-6, max_power=500,
                                inner_tol=1e-10, method="policy"):
    """Principal eigenvalue of -H on the sector, with its eigenfield.

    method="policy" is policy iteration on the eigenpair: freeze signs and
    frames at psi, take the principal eigenpair of the frozen matrix with
    one ``eigs`` call of relative tolerance ``inner_tol``, refreeze, and
    stop when sup|H(psi) + lambda*psi| <= tol * lambda, with psi scaled to
    sup 1; at most ``max_power`` freezes.  It runs on the mirror-folded
    box of ``_folded``, exact for the mirror-invariant principal
    eigenfield, and returns that field mirrored back onto the whole mesh.
    It starts from the a = A Perron vector ``_laplace_beltrami_mode``,
    which at a = A meets the stopping rule before any freeze and for
    a < A saves about one; the relax oracle starts from ones on the whole
    box.  method="relax" is the slow oracle: inverse power iteration
    (solve H(psi_next) = -psi by relax sweeps to ``inner_tol``, normalize
    in sup norm, read lambda from the norm) until the relative eigenvalue
    change is at most tol, in at most ``max_power`` steps.  The eigenfield
    must stay positive; a dip below -1e-12 after normalization raises
    PositivityLoss.
    """
    if method not in ("policy", "relax"):
        raise ValueError(f"unknown method {method!r}")

    box = _folded(mesh) if method == "policy" else mesh

    def linearize(v):
        lin = _linearize(params, box, v)
        return lin.value, lambda: _frozen_matrix(box, lin)

    if method == "policy":
        lam, psi = policy_eigen(linearize, _factor,
                                _laplace_beltrami_mode(mesh)[box.keep],
                                tol=tol, eig_tol=inner_tol,
                                max_steps=max_power)
        psi = psi[box.to_r]
    else:
        # step of the relax sweeps that solve H(psi) = -x
        tau = 0.5 * min(mesh.spacings) ** 2

        def step(x, prev):
            return relax(lambda v: linearize(v)[0] + x,
                         x if prev is None else prev, tau, tol=inner_tol,
                         max_steps=_MAX_RELAX)

        lam, psi = inverse_power(step, np.ones(mesh.n_nodes), tol=tol,
                                 max_power=max_power)
    return lam, SectorField(mesh, psi.reshape(mesh.shape))


def extrapolate_to_zero(xs, ys):
    """Polynomial extrapolation of samples (x, y) to x = 0.

    With three shrink parameters this is the quadratic Richardson step the
    delta -> 0 limits use.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"need finite samples, got {xs.tolist()} {ys.tolist()}")
    if len(np.unique(xs)) < len(xs):
        raise ValueError(f"need distinct sample points, got {xs.tolist()}")
    coef = np.polyfit(xs, ys, len(xs) - 1)
    return float(np.polyval(coef, 0.0))


def gamma_exponent(a, A, epsilon, delta, n_dim, *, spacing=None, tol=1e-6,
                   max_iter=100, damping=0.5, eigen_tol=1e-8):
    """Barrier exponent: fixed point of a*g*(g + N - 2) = epsilon + lambda.

    lambda is the sector principal eigenvalue of H at exponent g, and
    root(lambda) the g >= 0 that solves the quadratic for it.  G(g) =
    root(lambda(g)) - g is solved by the secant method from g = 2; the
    first step is the damped update g + damping*G(g), and so is any step
    whose secant value is not finite or falls below 2.  Each step costs one
    eigen solve; stops when |G| <= tol and returns root.  At a = A lambda
    does not depend on g, so the first root is the answer.
    """
    if spacing is None:
        spacing = np.pi / 400 if n_dim == 2 else np.pi / 200
    _check_cap(max_iter)
    mesh = SectorMesh(n_dim, delta, spacing)
    k = n_dim - 2
    gam, prev = 2.0, None
    for _ in range(max_iter):
        params = SectorOperatorParams(a, A, gamma=gam, epsilon=epsilon)
        lam, _ = sector_principal_eigenvalue(params, mesh, tol=eigen_tol)
        root = float(0.5 * (-k + np.sqrt(k * k + 4.0 * (epsilon + lam) / a)))
        g_val = root - gam
        # at a = A the factor a - A zeroes every g-dependent term of H
        if abs(g_val) <= tol or a == A:
            return root
        nxt = np.nan
        if prev is not None and g_val != prev[1]:
            nxt = gam - g_val * (gam - prev[0]) / (g_val - prev[1])
        if not (np.isfinite(nxt) and nxt >= 2.0):
            nxt = max(2.0, gam + damping * g_val)
        prev, gam = (gam, g_val), nxt
    raise IterationLimit(
        f"gamma fixed point did not settle in {max_iter} iterations "
        f"(last {gam})")


def _interp_nodes(mesh):
    """Grid axes padded to the box boundary, where the field is zero."""
    return tuple(np.concatenate([[lo], ax, [hi]])
                 for (lo, hi), ax in zip(mesh.bounds, mesh.axes))


def _interp_field(mesh, vals, theta):
    """Linear interpolation at one angle tuple, or at each row of a 2-D
    array of angles (then an array comes back)."""
    axes = _interp_nodes(mesh)
    theta = np.asarray(theta, dtype=float)
    t = np.atleast_2d(theta)[:, :len(axes)]
    inside = np.all([(ax[0] <= c) & (c <= ax[-1]) for ax, c in zip(axes, t.T)],
                    axis=0)
    if not inside.all():
        raise OutOfDomain(f"theta={t[~inside][0].tolist()} outside the sector box")
    out = RegularGridInterpolator(axes, np.pad(vals, 1))(t)
    return out if theta.ndim == 2 else float(out[0])


def barrier_eval(gamma, psi, r, theta):
    """Barrier value and gradient-magnitude estimate at (r, theta).

    w = r^gamma * psi(theta) with psi interpolated linearly; the gradient
    estimate is r^(gamma-1) * sqrt(gamma^2 psi^2 + |Gamma grad_theta psi|^2).
    With gamma >= 2, as ``gamma_exponent`` returns, both vanish at r = 0.
    Raises ValueError for r < 0 and for a gamma below 1 or not finite,
    where the gradient estimate is unbounded at r = 0.
    """
    if r < 0.0:
        raise ValueError(f"need r >= 0, got {r}")
    if not 1.0 <= gamma < np.inf:
        raise ValueError(f"need a finite gamma >= 1, got {gamma}")
    mesh = psi.mesh
    val = _interp_field(mesh, psi.values, theta)
    t = np.atleast_1d(theta)[:len(mesh.axes)]
    # frame scales q1 = 1/cos(theta2) and 1; the arc is the equator
    scales = (1.0 / np.cos((*t, 0.0)[1]), 1.0)
    grads = _diffs(psi.values.ravel(), mesh)[:len(mesh.axes)]
    ang_sq = sum((q * _interp_field(mesh, g.reshape(mesh.shape), theta)) ** 2
                 for q, g in zip(scales, grads))
    w = r ** gamma * val
    grad = r ** (gamma - 1.0) * np.sqrt(gamma * gamma * val * val + ang_sq)
    return float(w), float(grad)


def _embed(n_dim, r, theta):
    """Cartesian points of radii r and angle rows theta."""
    t1 = theta[:, 0]
    if n_dim == 2:
        return r[:, None] * np.stack([np.cos(t1), np.sin(t1)], axis=1)
    t2 = theta[:, 1]
    return r[:, None] * np.stack([np.cos(t2) * np.cos(t1),
                                  np.cos(t2) * np.sin(t1),
                                  np.sin(t2)], axis=1)


def _unembed(n_dim, x):
    """Radii and angle rows of the points in the rows of x."""
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    theta = [np.arctan2(x[:, 1], x[:, 0])]
    if n_dim == 3:
        theta.append(np.arcsin(np.clip(x[:, 2] / r, -1.0, 1.0)))
    return r, np.stack(theta, axis=1)


def barrier_margin(params, psi, gamma, *, n_samples=100, seed=0,
                   r_range=(0.5, 2.0)):
    """Sampled values of M^-(D^2 w) - epsilon * r^-2 * w for w = r^gamma psi.

    The Hessian is taken by central finite differences in Cartesian
    coordinates with step eta ~ r*sqrt(spacing), so a margin bounded below
    by -O(spacing) confirms the barrier inequality at the discrete level.
    """
    mesh = psi.mesh
    n_dim = mesh.n_dim
    rng = np.random.default_rng(seed)
    lo, hi = np.array(mesh.bounds).T
    pad = 0.15 * (hi - lo)
    # per sample: r, then one angle per box axis
    draws = rng.uniform([r_range[0], *(lo + pad)], [r_range[1], *(hi - pad)],
                        size=(n_samples, n_dim))
    radii = draws[:, 0]
    etas = 0.5 * radii * np.sqrt(mesh.spacing)
    # unit offsets of the Hessian stencil: the centre, then +-e_i, then
    # +(e_i + e_j), -(e_i + e_j), +(e_i - e_j), -(e_i - e_j) for i < j
    eye = np.eye(n_dim)
    mixed = [(i, j) for i in range(n_dim) for j in range(i + 1, n_dim)]
    offsets = np.array([np.zeros(n_dim)]
                       + [s * eye[i] for i in range(n_dim) for s in (1.0, -1.0)]
                       + [s * (eye[i] + t * eye[j]) for i, j in mixed
                          for t in (1.0, -1.0) for s in (1.0, -1.0)])
    pts = (_embed(n_dim, radii, draws[:, 1:])[:, None, :]
           + etas[:, None, None] * offsets)

    # w = r^gamma psi at every stencil point of every sample in one call
    rho, th = _unembed(n_dim, pts.reshape(-1, n_dim))
    w = (rho ** gamma * _interp_field(mesh, psi.values, th)).reshape(n_samples, -1)
    w0 = w[:, 0]
    eta2 = etas ** 2
    hess = np.empty((n_samples, n_dim, n_dim))
    for i in range(n_dim):
        hess[:, i, i] = (w[:, 1 + 2 * i] - 2.0 * w0 + w[:, 2 + 2 * i]) / eta2
    for k, (i, j) in enumerate(mixed):
        c = 1 + 2 * n_dim + 4 * k
        pp, mm, pm, mp = w[:, c:c + 4].T
        hess[:, i, j] = hess[:, j, i] = (pp + mm - pm - mp) / (4.0 * eta2)

    lam = np.linalg.eigvalsh(hess)
    m_minus = (_coef(params, lam) * lam).sum(axis=1)
    return m_minus - params.epsilon * radii ** (-2.0) * w0


def export_sector_csv(field, path):
    """Write (theta1[, theta2], value) rows for the mesh nodes."""
    mesh = field.mesh
    nodes = np.meshgrid(*mesh.axes, indexing="ij")
    data = np.column_stack([t.ravel() for t in nodes] + [field.values.ravel()])
    header = ",".join([f"theta{k + 1}" for k in range(len(nodes))] + ["value"])
    _write_csv(path, header, data)
