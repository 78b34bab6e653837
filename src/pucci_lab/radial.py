"""Radial solver for |u'|^alpha * M(D^2 u) + f(u) = 0 on balls.

A radial profile has Hessian eigenvalues u'' (radial direction, simple) and
u'/r (tangential, multiplicity N-1), so the extremal operator reduces to

    e1 * u'' + (N - 1) * e2 * u'/r

with e1, e2 picked from {a, A} by the sign convention of the variant.  The
module provides the closed form for constant source, a shooting integrator
with per-step sign branches, and the principal eigenvalue on balls.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (BracketFailure, InvalidNeumannData, IterationLimit,
                     NoZeroCrossing, OutOfDomain, SignBranchFailure)
from .operators import Variant, _directional_coef

# |u'|^(-alpha) guard for alpha > 0, only reachable past the first zero
# where oscillating profiles may stall
_DU_FLOOR = 1e-14


@dataclass(frozen=True)
class Constant:
    """Source f(u) = value, independent of u."""

    value: float

    def evaluate(self, u, alpha):
        return self.value if np.isscalar(u) else np.full_like(u, self.value)

    def evaluate_deriv(self, u, alpha):
        return 0.0 if np.isscalar(u) else np.zeros_like(u)


@dataclass(frozen=True)
class EigenPower:
    """Eigenvalue-type source f(u) = lam * |u|^alpha * u."""

    lam: float

    def evaluate(self, u, alpha):
        # written as sign(u)*|u|^(1+alpha) so u = 0 is safe for alpha < 0
        return self.lam * np.sign(u) * np.abs(u) ** (1.0 + alpha)

    def evaluate_deriv(self, u, alpha):
        return self.lam * (1.0 + alpha) * np.abs(u) ** alpha


@dataclass(frozen=True)
class PowerPair:
    """Source f(u) = lam * |u|^alpha * u - mu * |u|^(beta-1) * u.

    The second exponent must be supercritical, beta > 1 + alpha, for the
    comparison structure this source is meant to exercise.
    """

    lam: float
    mu: float
    beta: float

    def validate(self, alpha):
        if self.mu < 0.0:
            raise ValueError(f"need mu >= 0, got {self.mu}")
        if not (self.beta > 1.0 + alpha):
            raise ValueError(
                f"need beta > 1 + alpha, got beta={self.beta}, alpha={alpha}")

    def evaluate(self, u, alpha):
        self.validate(alpha)
        au = np.abs(u)
        return np.sign(u) * (self.lam * au ** (1.0 + alpha) - self.mu * au ** self.beta)

    def evaluate_deriv(self, u, alpha):
        au = np.abs(u)
        return self.lam * (1.0 + alpha) * au ** alpha \
            - self.mu * self.beta * au ** (self.beta - 1.0)


@dataclass
class RadialProfile:
    """Shooting output: nodes, values, derivative, and first zero if any."""

    radii: np.ndarray
    u: np.ndarray
    du: np.ndarray
    first_zero: float | None = None
    du_at_zero: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (len(self.radii) == len(self.u) == len(self.du)):
            raise ValueError("profile arrays must share a length")
        if np.any(np.diff(self.radii) <= 0.0):
            raise ValueError("radii must be strictly ascending")


def _scale_const(n_dim, alpha):
    return (n_dim - 1) * (1.0 + alpha) + 1.0


def closed_form_constant(params, n_dim, radius, r):
    """Exact solution of |u'|^alpha * M_plus(D^2 u) + 1 = 0 on a ball.

    Both Hessian eigenvalues of this profile are negative, so the plus
    variant applies its lower coefficient ``a`` throughout and the solution

        u(r) = (1+alpha)/(2+alpha) * C^(1/(1+alpha)) * (R^p - r^p)

    with C = (1+alpha) / (a * ((N-1)(1+alpha)+1)) and p = (alpha+2)/(alpha+1)
    satisfies the equation with unit source and vanishes at r = R.
    """
    if params.variant is not Variant.PLUS:
        raise ValueError("closed form is stated for the plus variant")
    alpha = params.alpha
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > radius * (1.0 + 1e-12)):
        raise OutOfDomain(f"r outside [0, {radius}]")
    c_fac = (1.0 + alpha) / (params.a * _scale_const(n_dim, alpha))
    p = (alpha + 2.0) / (alpha + 1.0)
    val = (1.0 + alpha) / (2.0 + alpha) * c_fac ** (1.0 / (1.0 + alpha)) \
        * (radius ** p - r ** p)
    return float(val) if val.ndim == 0 else val


def overdetermined_radius(params, n_dim, c):
    """Ball radius forced by the constant Neumann datum c < 0.

    Inverts the closed form's boundary derivative,
    c = -(C * R)^(1/(1+alpha)), giving R = |c|^(1+alpha) / C.
    """
    if params.variant is not Variant.PLUS:
        raise ValueError("closed form is stated for the plus variant")
    if not (c < 0.0):
        raise InvalidNeumannData(f"need c < 0, got {c}")
    alpha = params.alpha
    return abs(c) ** (1.0 + alpha) * params.a * _scale_const(n_dim, alpha) / (1.0 + alpha)


def _curvature_rhs(params, n_dim, source, r, u, v):
    """Solve the sign-branched algebra for u'' at one step."""
    alpha = params.alpha
    fu = source.evaluate(u, alpha)
    if alpha == 0.0:
        w = fu
    else:
        av = max(abs(v), _DU_FLOOR) if alpha > 0.0 else abs(v)
        w = fu * av ** (-alpha)
    rad = v / r
    e2 = _directional_coef(params, rad > 0.0)
    num = -w - (n_dim - 1) * e2 * rad
    # test both curvature branches; they agree only when u'' = 0
    cand_pos = num / _directional_coef(params, True)
    cand_neg = num / _directional_coef(params, False)
    ok_pos = cand_pos >= 0.0
    ok_neg = cand_neg <= 0.0
    if ok_pos and ok_neg:
        return 0.0
    if ok_pos:
        return cand_pos
    if ok_neg:
        return cand_neg
    raise SignBranchFailure("no consistent u'' branch", r=r, u=u, du=v)


def _rk4_step(params, n_dim, source, r, u, v, h):
    def f(rr, uu, vv):
        return vv, _curvature_rhs(params, n_dim, source, rr, uu, vv)

    k1u, k1v = f(r, u, v)
    k2u, k2v = f(r + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
    k3u, k3v = f(r + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
    k4u, k4v = f(r + h, u + h * k3u, v + h * k3v)
    return (u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def shoot(params, n_dim, source, m, r_max, h):
    """Integrate the radial equation from the centre value m outward.

    The origin is degenerate (u'(0) = 0 meets the gradient weight), so the
    integration starts at r0 = 10 h from the local power-law model

        u'(r) = -sign(f(m)) * (|f(m)| (1+alpha) r / (k S))^(1/(1+alpha))

    with S = (N-1)(1+alpha)+1 and k the variant coefficient for the sign
    pattern near the centre.  Classical fixed-step RK4 follows, with u''
    solved per step by testing both coefficient branches.  The first zero
    is the root, by Brent's method, of a fractional last step.

    Returns
    -------
    RadialProfile
        ``first_zero`` is None when the profile never crosses zero (in
        particular for the degenerate f(m) = 0 flat profile).
    """
    if r_max <= 0.0 or h <= 0.0 or r_max <= 20.0 * h:
        raise ValueError("need 0 < h and r_max > 20 h")
    alpha = params.alpha
    fm = float(source.evaluate(m, alpha))
    r0 = 10.0 * h
    steps = int(np.ceil((r_max - r0) / h))
    heff = (r_max - r0) / steps
    radii = r0 + heff * np.arange(steps + 1)

    if fm == 0.0:
        flat = np.full(steps + 1, float(m))
        return RadialProfile(radii, flat, np.zeros(steps + 1), None)

    sgn = 1.0 if fm > 0.0 else -1.0
    # decreasing profile from a maximum has both Hessian eigenvalues
    # negative near the centre, increasing from a minimum both positive
    k = _directional_coef(params, fm < 0.0)
    big_k = abs(fm) * (1.0 + alpha) / (k * _scale_const(n_dim, alpha))
    ex = 1.0 / (1.0 + alpha)
    u0 = m - sgn * (1.0 + alpha) / (2.0 + alpha) * big_k ** ex * r0 ** ((2.0 + alpha) * ex)
    v0 = -sgn * (big_k * r0) ** ex

    u = np.empty(steps + 1)
    du = np.empty(steps + 1)
    u[0], du[0] = u0, v0
    for i in range(steps):
        u[i + 1], du[i + 1] = _rk4_step(params, n_dim, source, radii[i], u[i], du[i], heff)

    first_zero = None
    du_at_zero = None
    s0 = np.sign(u[0])
    cross = np.nonzero(np.sign(u) != s0)[0]
    if s0 != 0.0 and cross.size:
        i = int(cross[0]) - 1
        # the zero of a partial RK4 step from the last node keeps the
        # refined zero on the integrator's own trajectory
        frac = brentq(lambda t: _rk4_step(params, n_dim, source, radii[i],
                                          u[i], du[i], t)[0],
                      0.0, heff, xtol=np.finfo(float).eps * heff)
        first_zero = radii[i] + frac
        _, du_at_zero = _rk4_step(params, n_dim, source, radii[i], u[i], du[i], frac)
    return RadialProfile(radii, u, du, first_zero, du_at_zero)


def neumann_constant(profile):
    """Normal derivative of the profile at its first zero."""
    if profile.first_zero is None:
        raise NoZeroCrossing("profile has no first zero")
    if profile.du_at_zero is not None:
        return float(profile.du_at_zero)
    return float(np.interp(profile.first_zero, profile.radii, profile.du))


def principal_eigenvalue_ball(params, n_dim, radius, *, h=None, rel_tol=1e-8,
                              max_iter=200):
    """Principal half-eigenvalue on a ball by shooting and Brent's method.

    Finds lam such that the profile of f(u) = lam |u|^alpha u started at
    m = 1 first vanishes exactly at ``radius``.  The first zero decreases
    monotonically in lam, so once a bracket is found by doubling/halving
    from a Laplacian-scale guess, Brent's method converges on lam to
    relative tolerance ``rel_tol`` within ``max_iter`` iterations.
    """
    if h is None:
        h = radius / 2000.0
    r_stop = 4.0 * radius
    history = []

    def gap(lam):
        # a profile with no zero before r_stop counts as vanishing there
        prof = shoot(params, n_dim, EigenPower(lam), 1.0, r_stop, h)
        history.append(lam)
        return (r_stop if prof.first_zero is None else prof.first_zero) - radius

    guess = 6.0 * params.A / radius ** (2.0 + params.alpha)
    lo, hi = 0.25 * guess, 4.0 * guess
    for _ in range(60):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("no upper eigenvalue bracket")
    for _ in range(60):
        if gap(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise BracketFailure("no lower eigenvalue bracket")

    # lam >= lo > 0, so rel_tol * lam dominates this absolute tolerance
    lam, res = brentq(gap, lo, hi, xtol=1e-3 * rel_tol * lo, rtol=rel_tol,
                      maxiter=max_iter, full_output=True, disp=False)
    if not res.converged:
        raise IterationLimit("eigenvalue root-finding did not converge",
                             history)
    return lam
