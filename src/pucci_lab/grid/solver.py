"""Wide-stencil discretization of Pucci operators and the solvers on top.

The scheme forms, for each of 8 orthogonal direction pairs, the sum of
second differences weighted by the ellipticity bounds, then takes the max
(Plus) or min (Minus) over pairs.  With exact cut-cell arm lengths each
second difference is exact on quadratics.  The scheme is monotone, but for
a < A not consistent: it resolves the eigenframe of an indefinite Hessian
(eigenvalues lam1 > 0 > lam2) only to the nearest pair, dtheta <= 9.2
degrees off, and misses M by (A - a)(lam1 - lam2) sin^2(dtheta) at every h.
It is exact on quadratics at a = A and where the Hessian is semidefinite
or its frame lies on a pair.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .._iterate import (LU_OPTIONS, policy_eigen, policy_iterate, relax,
                        stencil_matrix)
from ..operators import Variant, _coef
from .domain import PAIRS, GridField, boundary_data

# The weight |grad_h u|^alpha meets g = 0 two ways.  The operator floors g
# for alpha < 0 only, where the weight is singular; for alpha > 0 it is
# 0^alpha * core = 0, the degenerate operator itself.  The frozen matrix
# floors g for every alpha != 0, so that no row vanishes: at u0 = 0 every
# gradient is 0.
_GRAD_FLOOR = 1e-8
_MAX_DAMPED = 400_000


def _linearize(params, dom, values, bvals, weights=None):
    """The scheme at one iterate, read by the operator and the frozen
    matrix alike.

    Holds the arm lengths, the 16 second differences (scaled by
    ``weights``, one per direction, if given), each cell's active pair and
    the core M_h(D^2 u), all read from the arm-end values (the arm table
    indexes cell values followed by cut data).  For alpha != 0 it also
    holds the centred axis gradients ``grad`` (gx, gy per cell) and
    g = |grad_h u|.  ``value`` is the operator and ``weight`` the frozen
    matrix's gradient weight.
    """
    ends = np.concatenate([values, bvals]).take(dom.nb)
    arms = dom.arm_lengths()
    (vf, vb), (sf, sb), v0 = ends, arms, values[:, None]
    delta = 2.0 * (sb * vf + sf * vb - (sf + sb) * v0) / (sf * sb * (sf + sb))
    if weights is not None:
        delta = delta * weights
    pairs, core = _active_pairs(params, delta)
    lin = SimpleNamespace(arms=arms, delta=delta, pairs=pairs, core=core,
                          value=core, weight=1.0)
    if params.alpha != 0.0:
        sf, sb, vf, vb = sf[:, :2], sb[:, :2], vf[:, :2], vb[:, :2]
        num = sb ** 2 * vf - sf ** 2 * vb + (sf ** 2 - sb ** 2) * v0
        lin.grad = num / (sf * sb * (sf + sb))
        lin.g = np.hypot(*lin.grad.T)
        lin.weight = np.maximum(lin.g, _GRAD_FLOOR) ** params.alpha
        lin.value = (lin.weight if params.alpha < 0.0
                     else lin.g ** params.alpha) * core
    return lin


def _active_pairs(params, delta):
    """Each cell's extremal orthogonal pair and that pair's sum: the max
    (Plus) or min (Minus) over pairs of the second differences, each taken
    with the coefficient the variant puts on its sign."""
    contrib = _coef(params, delta) * delta
    psum = contrib[:, PAIRS[:, 0]] + contrib[:, PAIRS[:, 1]]
    pick = (psum.argmax(axis=1) if params.variant is Variant.PLUS
            else psum.argmin(axis=1))
    return PAIRS[pick], psum[np.arange(len(pick)), pick]


def discretize_F(params, dom, field, weights=None):
    """Apply the discrete operator |grad u|^alpha * M(D^2 u) cellwise.

    ``field.boundary_values`` must be set; cut arms read from it.
    ``weights``, one per stencil direction, scale the second differences;
    the negative controls inject ``broken_weights()`` this way.
    """
    if field.boundary_values is None:
        raise ValueError("field needs boundary_values to apply the operator")
    return GridField(dom, _linearize(params, dom, field.values,
                                     field.boundary_values, weights).value)


def _policy_matrix(params, dom, lin):
    """Frozen matrix of the operator at the policy active at the iterate.

    Freezes at the iterate of the linearization ``lin`` each cell's
    extremal pair, the coefficient of the sign of each of its second
    differences and the floored gradient weight.  There F(u) = M u + b
    holds exactly wherever the gradient is above the floor, with b carrying
    the cut-arm boundary values; M is an M-matrix.  Returns M (the Newton
    step needs only M, since b enters through the residual).
    """
    idx = np.arange(dom.n_cells)[:, None]
    coef = (_coef(params, lin.delta[idx, lin.pairs])
            * np.reshape(lin.weight, (-1, 1)))
    arms = lin.arms[:, idx, lin.pairs]
    sf, sb = arms
    diag = coef * (-2.0) / (sf * sb)
    return stencil_matrix(diag[:, 0] + diag[:, 1], dom.nb[:, idx, lin.pairs],
                          coef * 2.0 / (arms * (sf + sb)))


def _gradient_matrix(params, dom, lin):
    """The weight's part of the Jacobian, which the frozen matrix drops.

    At the iterate of ``lin`` the operator is w(g) * core with
    g = |grad_h u|, so its Jacobian is the frozen matrix plus
    diag(c gx) Gx + diag(c gy) Gy, with c = alpha g^(alpha - 2) core where
    g is above the floor and 0 elsewhere.  Gx and Gy are the centred axis
    differences of ``_linearize``; a cut end reads boundary data, so it
    has no column.
    """
    above = lin.g > _GRAD_FLOOR
    c = np.zeros(dom.n_cells)
    c[above] = (params.alpha * lin.g[above] ** (params.alpha - 2.0)
                * lin.core[above])
    sf, sb = lin.arms[:, :, :2]
    coef = c[:, None] * lin.grad / (sf * sb * (sf + sb))
    diag = coef * (sf ** 2 - sb ** 2)
    return stencil_matrix(diag[:, 0] + diag[:, 1], dom.nb[:, :, :2],
                          np.stack([coef * sb ** 2, -coef * sf ** 2]))


def _factor(mat):
    return spla.splu(mat.tocsc(), **LU_OPTIONS)


def solve_dirichlet(params, dom, source, g=0.0, *, method="policy",
                    tol=1e-8, max_outer=80, u0=None):
    """Solve F[u] + f(u) = 0 with Dirichlet data g on the cut boundary.

    method="policy" is semismooth Newton with one new LU factor per step.
    At alpha = 0 a step linearizes the pair extremum at the current
    iterate, which is Howard's policy update when f is linear; its matrix
    is an M-matrix and every step is a full one.  For alpha != 0 the
    matrix also keeps the derivative of the gradient weight
    |grad_h u|^alpha, where the gradient is above the floor, so the step
    is Newton's in the weight too and not a fixed point in it.  That
    Jacobian is not an M-matrix, so each step is halved until sup|r|
    falls, down to a fixed shortest step.
    method="damped" is the explicit fixed-point iteration
    u <- u + tau*(F[u] + f(u)) with tau = 0.45 / (A * max 2/(s_f s_b)); it
    needs no linear algebra, but tau shrinks with the smallest cut arm, so
    it is practical only on coarse grids.

    Convergence is declared on the true assembled residual:
    sup |F[u] + f(u)| <= tol * max(1, sup|u|).  IterationLimit carries
    the residual history.
    """
    if method not in ("policy", "damped"):
        raise ValueError(f"unknown method {method!r}")
    bvals = boundary_data(dom, g)
    u = np.zeros(dom.n_cells) if u0 is None else GridField(dom, u0).values

    def linearize(v):
        lin = _linearize(params, dom, v, bvals)

        def freeze():
            mat = _policy_matrix(params, dom, lin)
            if params.alpha != 0.0:
                mat = mat + _gradient_matrix(params, dom, lin)
            return mat + sp.diags(source.evaluate_deriv(v, params.alpha))
        return lin.value + source.evaluate(v, params.alpha), freeze

    if method == "damped":
        sf, sb = dom.arm_lengths()
        u = relax(lambda v: linearize(v)[0], u,
                  0.45 / (params.A * (2.0 / (sf * sb)).max()), tol=tol,
                  max_steps=_MAX_DAMPED)
    else:
        # the Jacobian is an M-matrix only at alpha = 0, where Howard's
        # full steps converge unguarded
        u = policy_iterate(linearize, _factor, u, tol=tol,
                           max_steps=max_outer,
                           line_search=params.alpha != 0.0)
    return GridField(dom, u, bvals)


def principal_eigenvalue_grid(params, dom, *, tol=1e-6, max_power=400,
                              inner_tol=1e-10):
    """Principal half-eigenvalue by policy iteration on the eigenpair.

    Freezes the pair policy at phi (zero boundary data), takes the
    principal eigenpair of the frozen M-matrix with one ``eigs`` call of
    relative tolerance ``inner_tol``, and refreezes; at most ``max_power``
    freezes.  Stops when sup|F[phi] + lambda*phi| <= tol * lambda, with
    phi scaled to sup 1.  Requires alpha = 0, where the operator is
    positively 1-homogeneous.  Raises PositivityLoss if phi dips below
    -1e-12 anywhere, which is the discrete symptom of leaving the
    principal branch.
    """
    if params.alpha != 0.0:
        raise ValueError("grid eigenvalue iteration requires alpha = 0")
    bvals = np.zeros(len(dom.cut_xy))

    def linearize(v):
        lin = _linearize(params, dom, v, bvals)
        return lin.value, lambda: _policy_matrix(params, dom, lin)

    lam, phi = policy_eigen(linearize, _factor, np.ones(dom.n_cells),
                            tol=tol, eig_tol=inner_tol, max_steps=max_power)
    return lam, GridField(dom, phi, bvals)
