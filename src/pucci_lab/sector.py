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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq

from ._iterate import inverse_power, policy_iterate, relax
from .errors import CoefficientBlowup, IterationLimit, OutOfDomain
from .operators import PucciParams, SymMatrix, Variant, pucci

_MIN_NODES = 3


@dataclass(frozen=True)
class SectorOperatorParams:
    """Ellipticity window plus the barrier exponent and shift."""

    a: float
    A: float
    gamma: float = 2.0
    epsilon: float = 0.0

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
    """Tensor grid strictly inside the shrunken angular box."""

    def __init__(self, n_dim, delta, spacing):
        if n_dim not in (2, 3):
            raise ValueError(f"sector meshes support N = 2 or 3, got N={n_dim}")
        if spacing <= 0.0:
            raise ValueError(f"need positive spacing, got {spacing}")
        self.n_dim = n_dim
        self.delta = float(delta)
        self.delta_prime = shrink_angle(n_dim, delta)
        dp = self.delta_prime
        w1 = np.pi / 2 - 2.0 * dp
        m1 = int(round(w1 / spacing))
        if m1 < _MIN_NODES + 1:
            raise ValueError(f"spacing {spacing} too coarse for box width {w1:.4f}")
        self.sp1 = w1 / m1
        self.theta1 = dp + self.sp1 * np.arange(1, m1)
        if n_dim == 3:
            w2 = np.pi - 2.0 * dp
            m2 = int(round(w2 / spacing))
            if m2 < _MIN_NODES + 1:
                raise ValueError(f"spacing {spacing} too coarse for box width {w2:.4f}")
            self.sp2 = w2 / m2
            self.theta2 = -np.pi / 2 + dp + self.sp2 * np.arange(1, m2)
        else:
            self.sp2 = None
            self.theta2 = None
        self.spacing = max(self.sp1, self.sp2 or 0.0)

    @property
    def shape(self):
        if self.n_dim == 2:
            return (len(self.theta1),)
        return (len(self.theta1), len(self.theta2))

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def box(self):
        dp = self.delta_prime
        lo1, hi1 = dp, np.pi / 2 - dp
        if self.n_dim == 2:
            return (lo1, hi1)
        return (lo1, hi1, -np.pi / 2 + dp, np.pi / 2 - dp)


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
    """Per-node angular ratios: q_i = r/r_{i+1}, and the connection factor.

    With r_i/r = prod_{k=i}^{N-1} cos(theta_k) and r_N = r these are
    functions of the angles alone.  N=2: q1 = 1.  N=3: q1 = 1/cos(theta2),
    q2 = 1, and the single connection eigenvalue factor is tan(theta2).
    """
    if mesh.n_dim == 2:
        n = len(mesh.theta1)
        return {"q1": np.ones(n)}
    c2 = np.cos(mesh.theta2)
    if np.any(c2 <= 1e-12):
        raise CoefficientBlowup("node at or beyond the latitude poles")
    lo1, hi1, lo2, hi2 = mesh.box()
    if (mesh.theta1.min() <= lo1 or mesh.theta1.max() >= hi1
            or mesh.theta2.min() <= lo2 or mesh.theta2.max() >= hi2):
        raise CoefficientBlowup("mesh node outside the open angular box")
    n1, n2 = mesh.shape
    return {
        "q1": np.broadcast_to(1.0 / c2, (n1, n2)),
        "q2": np.ones((n1, n2)),
        "tan2": np.broadcast_to(np.tan(mesh.theta2), (n1, n2)),
    }


def _eps_select(a, A, t):
    """Coefficient a on the nonnegative part, A on the negative part."""
    return np.where(t >= 0.0, a, A)


def _diffs_1d(vals, sp):
    p = np.concatenate([[0.0], vals, [0.0]])
    d1 = (p[2:] - p[:-2]) / (2.0 * sp)
    d2 = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / sp ** 2
    return d1, d2


def _diffs_2d(vals, sp1, sp2):
    p = np.pad(vals, 1)
    d1_1 = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * sp1)
    d1_2 = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * sp2)
    d2_11 = (p[2:, 1:-1] - 2.0 * vals + p[:-2, 1:-1]) / sp1 ** 2
    d2_22 = (p[1:-1, 2:] - 2.0 * vals + p[1:-1, :-2]) / sp2 ** 2
    d2_12 = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) \
        / (4.0 * sp1 * sp2)
    return d1_1, d1_2, d2_11, d2_22, d2_12


def _sym2_eigen(g11, g12, g22):
    """Closed-form spectral data of fields of symmetric 2x2 matrices."""
    half_tr = 0.5 * (g11 + g22)
    half_df = 0.5 * (g11 - g22)
    rad = np.hypot(half_df, g12)
    ang = 0.5 * np.arctan2(2.0 * g12, g11 - g22)
    return half_tr + rad, half_tr - rad, ang


def _H_values(params, mesh, vals):
    a, A, gamma = params.a, params.A, params.gamma
    co = coefficients(mesh)
    if mesh.n_dim == 2:
        d1, d2 = _diffs_1d(vals, mesh.sp1)
        core = a * np.maximum(d2, 0.0) + A * np.minimum(d2, 0.0)
        return core + (a - A) * np.abs(d1) * (gamma + 1.0)
    q1, tan2 = co["q1"], co["tan2"]
    d1_1, d1_2, d2_11, d2_22, d2_12 = _diffs_2d(vals, mesh.sp1, mesh.sp2)
    g11 = q1 ** 2 * d2_11
    g12 = q1 * d2_12
    g22 = d2_22
    lam_p, lam_m, _ = _sym2_eigen(g11, g12, g22)
    core = a * np.maximum(lam_p, 0.0) + A * np.minimum(lam_p, 0.0) \
        + a * np.maximum(lam_m, 0.0) + A * np.minimum(lam_m, 0.0)
    penalty = (a - A) * (np.abs(d1_1) * (gamma * q1 + q1 ** 2)
                         + np.abs(d1_2) * (gamma + 1.0))
    mu = -d1_2 * tan2
    connection = _eps_select(a, A, mu) * mu
    return core + penalty + connection


def assemble_H(params, mesh, psi):
    """Nodewise value of the sector operator H applied to psi."""
    if psi.mesh is not mesh and psi.mesh.shape != mesh.shape:
        raise ValueError("field and mesh disagree")
    return SectorField(mesh, _H_values(params, mesh, psi.values))


def _frozen_matrix(params, mesh, vals):
    """Sparse linearization of H at the current sign/frame choices.

    H is positively 1-homogeneous and piecewise linear in the nodal
    values, so at the frozen choices M satisfies M @ vals = H(vals)
    exactly; the eigen/policy loops exploit that.
    """
    a, A, gamma = params.a, params.A, params.gamma
    if mesh.n_dim == 2:
        n = len(mesh.theta1)
        d1, d2 = _diffs_1d(vals, mesh.sp1)
        c2 = np.where(d2 >= 0.0, a, A) / mesh.sp1 ** 2
        p1 = (a - A) * np.sign(d1) * (gamma + 1.0) / (2.0 * mesh.sp1)
        idx = np.arange(n)
        return sp.csr_matrix((np.concatenate([
            -2.0 * c2, c2[:-1] + p1[:-1], c2[1:] - p1[1:]]),
            (np.concatenate([idx, idx[:-1], idx[1:]]),
             np.concatenate([idx, idx[1:], idx[:-1]]))), shape=(n, n))

    co = coefficients(mesh)
    q1, tan2 = co["q1"], co["tan2"]
    n1, n2 = mesh.shape
    sp1, sp2 = mesh.sp1, mesh.sp2
    d1_1, d1_2, d2_11, d2_22, d2_12 = _diffs_2d(vals, sp1, sp2)
    g11 = q1 ** 2 * d2_11
    g12 = q1 * d2_12
    g22 = d2_22
    lam_p, lam_m, ang = _sym2_eigen(g11, g12, g22)
    e_p = _eps_select(a, A, lam_p)
    e_m = _eps_select(a, A, lam_m)
    # with equal coefficients the frame is irrelevant; fixing it keeps the
    # matrix bit-identical across freezes, so its factor can be reused
    ang = np.where(e_p == e_m, 0.0, ang)
    cs, sn = np.cos(ang), np.sin(ang)
    b11 = e_p * cs ** 2 + e_m * sn ** 2
    b22 = e_p * sn ** 2 + e_m * cs ** 2
    b12 = (e_p - e_m) * sn * cs
    c11 = q1 ** 2 * b11
    c12 = q1 * b12
    c22 = b22
    mu = -d1_2 * tan2
    p1 = (a - A) * np.sign(d1_1) * (gamma * q1 + q1 ** 2)
    p2 = (a - A) * np.sign(d1_2) * (gamma + 1.0) - _eps_select(a, A, mu) * tan2

    ids = np.arange(n1 * n2).reshape(n1, n2)
    rows, cols, entries = [], [], []

    def add(di, dj, coef):
        r0, r1 = max(0, -di), min(n1, n1 - di)
        c0, c1 = max(0, -dj), min(n2, n2 - dj)
        rr = ids[r0:r1, c0:c1]
        cc = ids[r0 + di:r1 + di, c0 + dj:c1 + dj]
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        entries.append(coef[r0:r1, c0:c1].ravel())

    add(0, 0, -2.0 * c11 / sp1 ** 2 - 2.0 * c22 / sp2 ** 2)
    add(1, 0, c11 / sp1 ** 2 + p1 / (2.0 * sp1))
    add(-1, 0, c11 / sp1 ** 2 - p1 / (2.0 * sp1))
    add(0, 1, c22 / sp2 ** 2 + p2 / (2.0 * sp2))
    add(0, -1, c22 / sp2 ** 2 - p2 / (2.0 * sp2))
    cx = c12 / (2.0 * sp1 * sp2)
    add(1, 1, cx)
    add(-1, -1, cx)
    add(1, -1, -cx)
    add(-1, 1, -cx)
    return sp.csr_matrix((np.concatenate(entries),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n1 * n2, n1 * n2))


def _factor(mat):
    return spla.splu(mat.tocsc())


def _solve_H(params, mesh, rhs, psi0, *, tol, max_policy=80, lu_cache=None,
             method="policy", tau=None, max_relax=400_000):
    """Solve H(psi) = rhs by frozen-coefficient resolution.

    "policy" refreezes signs and frames at each iterate and solves the
    sparse linear system; since M @ psi = H(psi) exactly at the freeze,
    each step lands on M^{-1} rhs, and convergence is declared on the true
    nonlinear residual.  ``lu_cache`` keeps the last factor across calls
    and reuses it only for an identical matrix.  "relax" is the explicit
    damped sweep psi <- psi + tau*(H(psi) - rhs) with
    tau = 0.5*spacing^2, kept as a slow cross-check.
    """
    if method not in ("policy", "relax"):
        raise ValueError(f"unknown inner method {method!r}")
    rhs = rhs.reshape(-1)

    def residual(v):
        return _H_values(params, mesh, v.reshape(mesh.shape)).reshape(-1) - rhs

    if method == "relax":
        if tau is None:
            tau = 0.5 * min(mesh.sp1, mesh.sp2 or mesh.sp1) ** 2
        flat = relax(residual, psi0.reshape(-1), tau, tol=tol,
                     max_steps=max_relax)
    else:
        flat = policy_iterate(
            residual,
            lambda v: _frozen_matrix(params, mesh, v.reshape(mesh.shape)),
            _factor, psi0.reshape(-1), tol=tol, max_steps=max_policy,
            cache={} if lu_cache is None else lu_cache, rhs=rhs)
    return flat.reshape(mesh.shape)


def sector_principal_eigenvalue(params, mesh, *, tol=1e-6, max_power=500,
                                inner_tol=1e-10, method="policy"):
    """Principal eigenvalue of -H on the sector, with its eigenfield.

    Inverse power iteration: solve H(psi_next) = -psi, normalize in sup
    norm, read lambda from the norm; stops when the relative eigenvalue
    change is at most tol.  The eigenfield must stay positive; a dip below
    -1e-12 after normalization raises PositivityLoss.
    """
    cache = {}

    def step(psi, prev):
        return _solve_H(params, mesh, -psi, psi if prev is None else prev,
                        tol=inner_tol, lu_cache=cache, method=method)

    lam, psi = inverse_power(step, np.ones(mesh.shape), tol=tol,
                             max_power=max_power)
    return lam, SectorField(mesh, psi)


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

    lambda is the sector principal eigenvalue of H at exponent g; it
    depends on g only through first-order coefficients, so a damped
    update on g converges quickly.  Starts at g = 2.
    """
    if spacing is None:
        spacing = np.pi / 400 if n_dim == 2 else np.pi / 200
    mesh = SectorMesh(n_dim, delta, spacing)
    gam = 2.0
    for _ in range(max_iter):
        params = SectorOperatorParams(a, A, gamma=gam, epsilon=epsilon)
        lam, _ = sector_principal_eigenvalue(params, mesh, tol=eigen_tol)
        k = n_dim - 2
        root = 0.5 * (-k + np.sqrt(k * k + 4.0 * (epsilon + lam) / a))
        if abs(root - gam) <= tol:
            return float(root)
        gam = gam + damping * (root - gam)
        if gam < 2.0:
            gam = 2.0
    raise IterationLimit(
        f"gamma fixed point did not settle in {max_iter} iterations "
        f"(last {gam})")


def _interp_nodes(mesh):
    """Grid axes padded to the box boundary, where the field is zero."""
    box = mesh.box()
    thetas = (mesh.theta1, mesh.theta2)[:mesh.n_dim - 1]
    return tuple(np.concatenate([[lo], th, [hi]])
                 for lo, hi, th in zip(box[::2], box[1::2], thetas))


def _interp_field(mesh, vals, theta):
    """Linear interpolation at one angle tuple, or at each row of a 2-D
    array of angles (then an array comes back)."""
    axes = _interp_nodes(mesh)
    theta = np.asarray(theta, dtype=float)
    t = np.atleast_2d(theta)[:, :mesh.n_dim - 1]
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
    """
    if r < 0.0:
        raise ValueError(f"need r >= 0, got {r}")
    mesh = psi.mesh
    val = _interp_field(mesh, psi.values, theta)
    if mesh.n_dim == 2:
        d1, _ = _diffs_1d(psi.values, mesh.sp1)
        g1 = _interp_field(mesh, d1, theta)
        ang_sq = g1 * g1
    else:
        d1_1, d1_2 = _diffs_2d(psi.values, mesh.sp1, mesh.sp2)[:2]
        g1 = _interp_field(mesh, d1_1, theta)
        g2 = _interp_field(mesh, d1_2, theta)
        t2 = float(np.atleast_1d(theta)[1])
        q1 = 1.0 / np.cos(t2)
        ang_sq = (q1 * g1) ** 2 + g2 * g2
    if r == 0.0:
        return 0.0, 0.0
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
    box = mesh.box()
    lo, hi = np.array(box[::2]), np.array(box[1::2])
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

    minus = PucciParams(params.a, params.A, Variant.MINUS)
    m_minus = np.array([pucci(minus, SymMatrix.from_full(m)) for m in hess])
    return m_minus - params.epsilon * radii ** (-2.0) * w0


def export_sector_csv(field, path):
    """Write (theta1[, theta2], value) rows for the mesh nodes."""
    mesh = field.mesh
    if mesh.n_dim == 2:
        data = np.column_stack([mesh.theta1, field.values])
        header = "theta1,value"
    else:
        t1, t2 = np.meshgrid(mesh.theta1, mesh.theta2, indexing="ij")
        data = np.column_stack([t1.ravel(), t2.ravel(), field.values.ravel()])
        header = "theta1,theta2,value"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
