"""Wide-stencil discretization of Pucci operators and the solvers on top.

The scheme forms, for each of 8 orthogonal direction pairs, the sum of
second differences weighted by the ellipticity bounds, then takes the max
(Plus) or min (Minus) over pairs.  With exact cut-cell arm lengths each
second difference is exact on quadratics, so the scheme is monotone and
consistent, and solutions that happen to be quadratic are reproduced to
rounding.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .._iterate import LU_OPTIONS, policy_eigen, policy_iterate, relax
from ..operators import Variant, _coef
from .domain import PAIRS, GridField, boundary_data

# The weight |grad_h u|^alpha meets g = 0 two ways.  The operator floors g
# for alpha < 0 only, where the weight is singular; for alpha > 0 it is
# 0^alpha * core = 0, the degenerate operator itself.  The frozen matrix
# floors g for every alpha != 0, so that no row vanishes: at u0 = 0 every
# gradient is 0.
_GRAD_FLOOR = 1e-8
_MAX_DAMPED = 400_000


def _arm_values(dom, values, bvals, arms=slice(None)):
    """Values at the forward/backward ends of ``arms`` (all by default).

    An arm ends on a cell (its value) or on a cut (its boundary datum); the
    arm table indexes cell values followed by cut data.
    """
    ends = np.concatenate([values, bvals])
    return ends[dom.nbf[:, arms]], ends[dom.nbb[:, arms]]


def _second_differences(dom, values, bvals):
    vf, vb = _arm_values(dom, values, bvals)
    sf, sb = dom.armf, dom.armb
    v0 = values[:, None]
    return 2.0 * (sb * vf + sf * vb - (sf + sb) * v0) / (sf * sb * (sf + sb))


def _grad_norm(dom, values, bvals):
    """|grad_h u| from centered first differences along the two axis arms."""
    vf, vb = _arm_values(dom, values, bvals, slice(0, 2))
    sf, sb = dom.armf[:, :2], dom.armb[:, :2]
    v0 = values[:, None]
    num = sb ** 2 * vf - sf ** 2 * vb + (sf ** 2 - sb ** 2) * v0
    gx, gy = (num / (sf * sb * (sf + sb))).T
    return np.hypot(gx, gy)


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
    delta = _second_differences(dom, field.values, field.boundary_values)
    if weights is not None:
        delta = delta * weights
    _, core = _active_pairs(params, delta)
    if params.alpha != 0.0:
        g = _grad_norm(dom, field.values, field.boundary_values)
        if params.alpha < 0.0:
            g = np.maximum(g, _GRAD_FLOOR)
        core = g ** params.alpha * core
    return GridField(dom, core, None)


def _policy_matrix(params, dom, values, bvals):
    """Frozen matrix of the operator at the policy active at the iterate.

    Freezes at ``values`` (cut data ``bvals``) each cell's extremal pair,
    the coefficient of the sign of each of its second differences and the
    floored gradient weight.  There F(u) = M u + b holds exactly wherever
    the gradient is above the floor, with b carrying the cut-arm boundary
    values; M is an M-matrix.  Returns M (the Newton step needs only M,
    since b enters through the residual).
    """
    n = dom.n_cells
    delta = _second_differences(dom, values, bvals)
    classes, _ = _active_pairs(params, delta)
    weight = 1.0
    if params.alpha != 0.0:
        weight = np.maximum(_grad_norm(dom, values, bvals),
                            _GRAD_FLOOR) ** params.alpha
    idx = np.arange(n)
    rows, cols, vals = [], [], []
    for k in (0, 1):
        c = classes[:, k]
        coef = _coef(params, delta[idx, c]) * weight
        sf = dom.armf[idx, c]
        sb = dom.armb[idx, c]
        denom = sf + sb
        rows.append(idx)
        cols.append(idx)
        vals.append(coef * (-2.0) / (sf * sb))
        for nbr, w in ((dom.nbf[idx, c], coef * 2.0 / (sf * denom)),
                       (dom.nbb[idx, c], coef * 2.0 / (sb * denom))):
            own = nbr < n
            rows.append(idx[own])
            cols.append(nbr[own])
            vals.append(w[own])
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def _factor(mat):
    return spla.splu(mat.tocsc(), **LU_OPTIONS)


def solve_dirichlet(params, dom, source, g=0.0, *, method="policy",
                    tol=1e-8, max_outer=80, u0=None):
    """Solve F[u] + f(u) = 0 with Dirichlet data g on the cut boundary.

    method="policy" linearizes the pair extremum at the current iterate and
    solves the resulting sparse system (one semismooth Newton step, equal
    to a Howard policy update when f is linear), with one new LU factor per
    step.
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
    u = np.zeros(dom.n_cells) if u0 is None else u0

    def residual(v):
        op = discretize_F(params, dom, GridField(dom, v, bvals)).values
        return op + source.evaluate(v, params.alpha)

    if method == "damped":
        wmax = (2.0 / (dom.armf * dom.armb)).max()
        u = relax(residual, u, 0.45 / (params.A * wmax), tol=tol,
                  max_steps=_MAX_DAMPED)
        return GridField(dom, u, bvals)

    def jacobian(v):
        return _policy_matrix(params, dom, v, bvals) \
            + sp.diags(source.evaluate_deriv(v, params.alpha))

    u = policy_iterate(residual, jacobian, _factor, u, tol=tol,
                       max_steps=max_outer)
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

    def operator(v):
        return discretize_F(params, dom, GridField(dom, v, bvals)).values

    lam, phi = policy_eigen(operator,
                            lambda v: _policy_matrix(params, dom, v, bvals),
                            _factor, np.ones(dom.n_cells), tol=tol,
                            eig_tol=inner_tol, max_steps=max_power)
    return lam, GridField(dom, phi, bvals)
