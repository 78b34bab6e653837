"""Radial solver for |u'|^alpha * M(D^2 u) + f(u) = 0 on balls.

A radial profile has Hessian eigenvalues u'' (radial direction, simple) and
u'/r (tangential, multiplicity N-1), so the extremal operator reduces to

    e1 * u'' + (N - 1) * e2 * u'/r

with e1, e2 picked from {a, A} by the sign convention of the variant.  The
module provides the closed form for constant source, a shooting integrator
(u'' takes the sign of its right-hand side) and ball principal eigenvalues.
The equation is homogeneous in r, so one shot at unit eigenvalue gives the
eigenvalue of every radius; a Brent search on the eigenvalue, one shot per
trial, is kept as the oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (BracketFailure, IntegrationFailure, InvalidNeumannData,
                     IterationLimit, NoZeroCrossing, OutOfDomain,
                     SignBranchFailure)
from .operators import PucciParams, Variant, _directional_coef, _invert_coef

# |u'|^(-alpha) guard for alpha > 0: a trial stage of the integrator may
# land on u' = 0, where the weight is infinite
_DU_FLOOR = 1e-14
# DOP853 tolerances of the shooter.  The one-shot ball eigenvalue has
# (2 + alpha) times the relative error of the shot's first zero; at a = A
# and h = R/2000 it is within 5.1e-11 of the Bessel value for N = 2 and
# 3.1e-13 for N = 10, and over alpha in [-0.5, 1], N = 2, 3 and both
# variants within 4.5e-9 of the Brent search at rel_tol = 1e-8
_RTOL, _ATOL = 1e-11, 1e-14


@dataclass(frozen=True)
class Source:
    """Source f(u) = c + lam |u|^alpha u - mu |u|^(beta-1) u.

    f depends on u alone: ``c`` is a number, and an array raises
    ValueError.  A term whose coefficient is 0 is skipped, so f and f'
    stay finite where |u|^alpha is not (alpha < 0 at u = 0).  Both methods
    return arrays shaped like ``u``.  The absorbing term needs mu >= 0
    (checked on construction) and a supercritical exponent, beta > 1 +
    alpha (checked on evaluation, since alpha is the operator's), for the
    comparison structure it exercises.
    """

    c: float = 0.0
    lam: float = 0.0
    mu: float = 0.0
    beta: float = np.inf  # passes the beta check when there is no mu term

    def __post_init__(self):
        if np.ndim(self.c):
            raise ValueError(f"need a number c, got shape {np.shape(self.c)}")
        if self.mu < 0.0:
            raise ValueError(f"need mu >= 0, got {self.mu}")

    def evaluate(self, u, alpha):
        if not (self.beta > 1.0 + alpha):
            raise ValueError(
                f"need beta > 1 + alpha, got beta={self.beta}, alpha={alpha}")
        if not (self.lam or self.mu):
            return np.full_like(u, self.c, dtype=float)
        # written as sign(u)*|u|^p so u = 0 is safe for alpha < 0
        g = self.lam * np.abs(u) ** (1.0 + alpha) if self.lam else 0.0
        if self.mu:
            g = g - self.mu * np.abs(u) ** self.beta
        f = np.sign(u) * g
        return f + self.c if self.c else f

    def evaluate_deriv(self, u, alpha):
        d = np.zeros_like(u, dtype=float)
        if self.lam:
            d = self.lam * (1.0 + alpha) * np.abs(u) ** alpha
        if self.mu:
            d = d - self.mu * self.beta * np.abs(u) ** (self.beta - 1.0)
        return d


def Constant(value):
    """Source f(u) = value, independent of u."""
    return Source(c=value)


def EigenPower(lam):
    """Eigenvalue-type source f(u) = lam * |u|^alpha * u."""
    return Source(lam=lam)


def PowerPair(lam, mu, beta):
    """Source f(u) = lam * |u|^alpha * u - mu * |u|^(beta-1) * u."""
    return Source(lam=lam, mu=mu, beta=beta)


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
        if (self.first_zero is None) != (self.du_at_zero is None):
            raise ValueError("first_zero and du_at_zero are set together")


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
    """u'' at one step: e(u'') u'' = num, solved by ``_invert_coef``."""
    alpha = params.alpha
    av = max(abs(v), _DU_FLOOR) if alpha > 0.0 else abs(v)
    # at alpha = 0 the weight is av ** -0.0 == 1.0, u' = 0 included
    w = source.evaluate(u, alpha) * av ** (-alpha)
    rad = v / r
    e2 = _directional_coef(params, rad > 0.0)
    num = -w - (n_dim - 1) * e2 * rad
    # a NaN has no sign, so no coefficient branch fits it
    if math.isnan(num):
        raise SignBranchFailure("no consistent u'' branch", r=r, u=u, du=v)
    return _invert_coef(params, num)


def _rk4_step(params, n_dim, source, r, u, v, h):
    """One classical RK4 step, the fixed-step oracle for ``shoot``."""
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
    pattern near the centre.  Adaptive DOP853 follows, with u'' taking the
    sign of the right-hand side at each stage, and stops at the first
    zero, located by a terminal event.  Besides the start radius, ``h``
    sets the spacing (at most h) of the returned nodes, which run from r0
    towards ``r_max`` and end at the last node before the first zero; the
    accuracy is that of the module tolerances.

    Returns
    -------
    RadialProfile
        ``first_zero`` is None when the profile never crosses zero before
        ``r_max`` (in particular for the degenerate f(m) = 0 flat profile).
    """
    if not (0.0 < h and 20.0 * h < r_max < np.inf):  # NaN fails too
        raise ValueError(f"need 0 < h and finite r_max > 20 h: {h}, {r_max}")
    alpha = params.alpha
    fm = float(source.evaluate(m, alpha))
    r0 = 10.0 * h
    radii = np.linspace(r0, r_max, int(np.ceil((r_max - r0) / h)) + 1)

    if fm == 0.0:
        return RadialProfile(radii, np.full(len(radii), float(m)),
                             np.zeros(len(radii)), None)

    sgn = 1.0 if fm > 0.0 else -1.0
    # decreasing profile from a maximum has both Hessian eigenvalues
    # negative near the centre, increasing from a minimum both positive
    k = _directional_coef(params, fm < 0.0)
    big_k = abs(fm) * (1.0 + alpha) / (k * _scale_const(n_dim, alpha))
    ex = 1.0 / (1.0 + alpha)
    u0 = m - sgn * (1.0 + alpha) / (2.0 + alpha) * big_k ** ex * r0 ** ((2.0 + alpha) * ex)
    v0 = -sgn * (big_k * r0) ** ex

    # imported on first use: scipy.integrate would slow every package import
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        return y[1], _curvature_rhs(params, n_dim, source, r, y[0], y[1])

    def zero(r, y):
        return y[0]
    zero.terminal = True

    sol = solve_ivp(rhs, (r0, r_max), (u0, v0), method="DOP853",
                    t_eval=radii, events=zero, rtol=_RTOL, atol=_ATOL)
    if sol.status < 0:
        raise IntegrationFailure(sol.message)
    first_zero = du_at_zero = None
    if sol.status == 1:
        first_zero = float(sol.t_events[0][0])
        du_at_zero = float(sol.y_events[0][0][1])
    return RadialProfile(sol.t, sol.y[0], sol.y[1], first_zero, du_at_zero)


def neumann_constant(profile):
    """Normal derivative of the profile at its first zero."""
    if profile.first_zero is None:
        raise NoZeroCrossing("profile has no first zero")
    return float(profile.du_at_zero)


def principal_eigenvalue_ball(params, n_dim, radius, *, h=None, rel_tol=1e-8,
                              max_iter=200, method="shot"):
    """Principal half-eigenvalue on a ball: the lam for which the profile of
    f(u) = lam |u|^alpha u started at m = 1 first vanishes at ``radius``.

    method="shot" needs no search.  If u solves the equation with lam, then
    v(s) = u(s / k), k = lam^(1/(2+alpha)), solves it with lam = 1: u'' and
    u'/r scale by k^2 and |u'|^alpha by k^alpha.  Dividing the equation by
    a turns the bounds (a, A) into (1, A/a) and lam into lam / a.  So one
    shot of f(u) = |u|^alpha u with bounds (1, A/a) gives its first zero
    s*, and lam = a (s* / radius)^(2+alpha).  The shot's node spacing is
    h / radius (it starts at 10 times that); its accuracy is otherwise that
    of the shooter's module tolerances, and ``rel_tol`` and ``max_iter``
    are not read.  The shot's range is doubled while the profile has no
    zero in it, at most 60 times.

    method="brent" is the slow oracle.  The first zero decreases
    monotonically in lam, so once a bracket is found by doubling/halving
    from a Laplacian-scale guess, Brent's method converges on lam to
    relative tolerance ``rel_tol`` within ``max_iter`` iterations.
    """
    if method not in ("shot", "brent"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"need a finite, positive radius, got {radius}")
    if h is None:
        h = radius / 2000.0
    if method == "brent":
        return _brent_eigenvalue(params, n_dim, radius, h, rel_tol, max_iter)

    alpha = params.alpha
    unit = PucciParams(1.0, params.A / params.a, params.variant, alpha)
    # the Brent search's first guess in these units, lam = 6 A / a on the
    # unit ball, puts this profile's zero at (6 A / a)^(1/(2+alpha)); shoot
    # to 4 times that, as the search shoots to 4 R
    r_max = 4.0 * (6.0 * unit.A) ** (1.0 / (2.0 + alpha))
    for _ in range(60):
        prof = shoot(unit, n_dim, EigenPower(1.0), 1.0, r_max, h / radius)
        if prof.first_zero is not None:
            return params.a * (prof.first_zero / radius) ** (2.0 + alpha)
        r_max *= 2.0
    raise BracketFailure("no first zero of the unit eigenvalue profile")


def _brent_eigenvalue(params, n_dim, radius, h, rel_tol, max_iter):
    """The ``method="brent"`` search of ``principal_eigenvalue_ball``."""
    r_stop = 4.0 * radius
    gaps = {}

    def gap(lam):
        # brentq starts by evaluating the bracket ends the search already
        # shot, so each lam is shot once
        if lam not in gaps:
            prof = shoot(params, n_dim, EigenPower(lam), 1.0, r_stop, h)
            # a profile with no zero before r_stop counts as vanishing there
            gaps[lam] = (r_stop if prof.first_zero is None
                         else prof.first_zero) - radius
        return gaps[lam]

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
                             list(gaps))
    return lam
