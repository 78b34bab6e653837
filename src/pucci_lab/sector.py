"""Spherical-sector spectral problem behind the corner barrier.

The barrier w = r^gamma * psi(theta) turns the extremal operator into an
angular operator H on a shrunken quarter-sphere sector: an M-minus term on
the frame-scaled angular Hessian, first-order penalties proportional to
(a - A), and curvature connection terms with eigenvalue-wise coefficient
selection.  At a = A the whole thing collapses to A times the
Laplace-Beltrami operator, which anchors every sign convention here.

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
from scipy.optimize import brentq

from ._iterate import (LU_OPTIONS, _check_cap, inverse_power, policy_eigen,
                       relax, stencil_matrix)
from .errors import CoefficientBlowup, IterationLimit, OutOfDomain
from .operators import Variant, _coef

_MIN_NODES = 3
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
        if not (0.0 < self.a <= self.A):
            raise ValueError(f"need 0 < a <= A, got a={self.a}, A={self.A}")
        if self.gamma < 2.0:
            raise ValueError(f"need gamma >= 2, got {self.gamma}")
        if self.epsilon < 0.0:
            raise ValueError(f"need epsilon >= 0, got {self.epsilon}")


def shrink_angle(n_dim, delta):
    """Margin delta_prime whose removal takes angular measure delta.

    For N = 2 the removed set is two arcs, measure 2*delta_prime.  For
    N = 3 the removed measure on the quarter sphere is
    pi - (pi/2 - 2*dp) * 2*cos(dp), inverted by Brent's method.
    """
    if delta < 0.0:
        raise ValueError(f"need delta >= 0, got {delta}")
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
    """

    def __init__(self, n_dim, delta, spacing):
        if n_dim not in (2, 3):
            raise ValueError(f"sector meshes support N = 2 or 3, got N={n_dim}")
        if spacing <= 0.0:
            raise ValueError(f"need positive spacing, got {spacing}")
        self.n_dim = n_dim
        self.delta = float(delta)
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


def coefficients(mesh):
    """Per-node angular ratio q1 = r/r_2 and the connection factor tan2.

    With r_i/r = prod_{k=i}^{N-1} cos(theta_k) and r_N = r these are
    functions of the angles alone: q1 = 1/cos(theta2) and tan2 = tan(theta2)
    for N = 3.  N = 2 is the equator theta2 = 0, where q1 = 1 and tan2 = 0.
    """
    lat = (*mesh.axes, np.zeros(1))[1]
    c2 = np.cos(lat)
    if np.any(c2 <= 1e-12):
        raise CoefficientBlowup("node at or beyond the latitude poles")
    if any(ax.min() <= lo or ax.max() >= hi
           for ax, (lo, hi) in zip(mesh.axes, mesh.bounds)):
        raise CoefficientBlowup("mesh node outside the open angular box")
    return {"q1": np.broadcast_to(1.0 / c2, mesh.shape),
            "tan2": np.broadcast_to(np.tan(lat), mesh.shape)}


def _diffs(vals, spacings):
    """Central differences d1_1, d1_2, d2_11, d2_22, d2_12 of vals, which
    are zero beyond the box; those along an absent theta2 axis are 0."""
    p = np.pad(vals, 1)
    mid = (slice(1, -1),) * vals.ndim
    d1, d2 = [0.0, 0.0], [0.0, 0.0]
    for k, h in enumerate(spacings):
        up = p[mid[:k] + (slice(2, None),) + mid[k + 1:]]
        down = p[mid[:k] + (slice(None, -2),) + mid[k + 1:]]
        d1[k] = (up - down) / (2.0 * h)
        d2[k] = (up - 2.0 * vals + down) / h ** 2
    d2_12 = 0.0
    if len(spacings) == 2:
        d2_12 = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) \
            / (4.0 * spacings[0] * spacings[1])
    return d1[0], d1[1], d2[0], d2[1], d2_12


def _sym2_eigen(g11, g12, g22):
    """Closed-form spectral data of fields of symmetric 2x2 matrices."""
    half_tr = 0.5 * (g11 + g22)
    half_df = 0.5 * (g11 - g22)
    rad = np.hypot(half_df, g12)
    ang = 0.5 * np.arctan2(2.0 * g12, g11 - g22)
    return half_tr + rad, half_tr - rad, ang


def _linearize(params, mesh, vals):
    """The sector operator at vals, read by H and its frozen matrix alike.

    Holds the first differences ``d1``, the frame spectrum
    (lam_p, lam_m, angle) of the scaled angular Hessian, the penalty
    weights of |d1_1| and |d1_2|, q1, tan2, the connection term's argument
    mu = -d1_2 * tan2 and ``value``, H(vals).
    """
    co = coefficients(mesh)
    q1, tan2 = co["q1"], co["tan2"]
    d1_1, d1_2, d2_11, d2_22, d2_12 = _diffs(vals, mesh.spacings)
    lam_p, lam_m, ang = _sym2_eigen(q1 ** 2 * d2_11, q1 * d2_12, d2_22)
    w1, w2 = params.gamma * q1 + q1 ** 2, params.gamma + 1.0
    core = _coef(params, lam_p) * lam_p + _coef(params, lam_m) * lam_m
    penalty = (params.a - params.A) * (np.abs(d1_1) * w1 + np.abs(d1_2) * w2)
    mu = -d1_2 * tan2
    return SimpleNamespace(d1=(d1_1, d1_2), frame=(lam_p, lam_m, ang),
                           weights=(w1, w2), q1=q1, tan2=tan2, mu=mu,
                           value=core + penalty + _coef(params, mu) * mu)


def assemble_H(params, mesh, psi):
    """Nodewise value of the sector operator H applied to psi."""
    if psi.mesh is not mesh and psi.mesh.shape != mesh.shape:
        raise ValueError("field and mesh disagree")
    return SectorField(mesh, _linearize(params, mesh, psi.values).value)


def _frozen_matrix(params, mesh, lin):
    """Sparse linearization of H at the sign/frame choices of ``lin``.

    H is positively 1-homogeneous and piecewise linear in the nodal
    values, so at the frozen choices M satisfies M @ vals = H(vals)
    exactly at the linearization's vals; the eigen/policy loops exploit
    that.  Entries that vanish (all four cross-derivative ones of a row
    whose frame weights agree, as everywhere at a = A) are not stored.  On
    the arc the frame angle is 0 or pi/2, so the diagonal weight is a
    where d2 > 0 and A elsewhere.
    """
    a, A = params.a, params.A
    d1_1, d1_2 = lin.d1
    lam_p, lam_m, ang = lin.frame
    w1, w2 = lin.weights
    q1, tan2, mu = lin.q1, lin.tan2, lin.mu
    e_p, e_m = _coef(params, lam_p), _coef(params, lam_m)
    cs, sn = np.cos(ang), np.sin(ang)
    # per axis: the frame weight of the second difference and the
    # coefficient of the first one
    second = (q1 ** 2 * (e_p * cs ** 2 + e_m * sn ** 2),
              e_p * sn ** 2 + e_m * cs ** 2)
    first = ((a - A) * np.sign(d1_1) * w1,
             (a - A) * np.sign(d1_2) * w2 - _coef(params, mu) * tan2)

    # node ids, padded beyond the box with n, the index of no unknown
    ids = np.pad(np.arange(mesh.n_nodes).reshape(mesh.shape), 1,
                 constant_values=mesh.n_nodes)
    ends, weights = [], []

    def add(offset, coef):
        ends.append(ids[tuple(slice(1 + o, m + 1 + o)
                              for o, m in zip(offset, mesh.shape))].ravel())
        weights.append(coef.ravel())

    sps = mesh.spacings
    for step, c, f, h in zip(np.eye(len(sps), dtype=int), second, first, sps):
        add(step, c / h ** 2 + f / (2.0 * h))
        add(-step, c / h ** 2 - f / (2.0 * h))
    if len(sps) == 2:
        cx = q1 * ((e_p - e_m) * sn * cs) / (2.0 * sps[0] * sps[1])
        for offset, sign in (((1, 1), 1.0), ((-1, -1), 1.0),
                             ((1, -1), -1.0), ((-1, 1), -1.0)):
            add(offset, sign * cx)
    centre = sum(-2.0 * c / h ** 2 for c, h in zip(second, sps))
    return stencil_matrix(centre.ravel(), np.stack(ends, axis=-1),
                          np.stack(weights, axis=-1))


def _factor(mat):
    return spla.splu(mat.tocsc(), **LU_OPTIONS)


def sector_principal_eigenvalue(params, mesh, *, tol=1e-6, max_power=500,
                                inner_tol=1e-10, method="policy"):
    """Principal eigenvalue of -H on the sector, with its eigenfield.

    method="policy" is policy iteration on the eigenpair: freeze signs and
    frames at psi, take the principal eigenpair of the frozen matrix with
    one ``eigs`` call of relative tolerance ``inner_tol``, refreeze, and
    stop when sup|H(psi) + lambda*psi| <= tol * lambda, with psi scaled to
    sup 1; at most ``max_power`` freezes.  method="relax" is the slow
    oracle: inverse power iteration (solve H(psi_next) = -psi by relax
    sweeps to ``inner_tol``, normalize in sup norm, read lambda from the
    norm) until the relative eigenvalue change is at most tol, in at most
    ``max_power`` steps.  The eigenfield must stay positive; a dip below
    -1e-12 after normalization raises PositivityLoss.
    """
    if method not in ("policy", "relax"):
        raise ValueError(f"unknown method {method!r}")

    def linearize(v):
        lin = _linearize(params, mesh, v.reshape(mesh.shape))
        return lin.value.ravel(), lambda: _frozen_matrix(params, mesh, lin)

    if method == "policy":
        lam, psi = policy_eigen(linearize, _factor, np.ones(mesh.n_nodes),
                                tol=tol, eig_tol=inner_tol,
                                max_steps=max_power)
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
    """
    if r < 0.0:
        raise ValueError(f"need r >= 0, got {r}")
    mesh = psi.mesh
    val = _interp_field(mesh, psi.values, theta)
    t = np.atleast_1d(theta)[:len(mesh.axes)]
    # frame scales q1 = 1/cos(theta2) and 1; the arc is the equator
    scales = (1.0 / np.cos((*t, 0.0)[1]), 1.0)
    grads = _diffs(psi.values, mesh.spacings)[:len(mesh.axes)]
    ang_sq = sum((q * _interp_field(mesh, g, theta)) ** 2
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
    np.savetxt(path, data, delimiter=",", header=header, comments="")
