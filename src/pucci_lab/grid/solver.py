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

from .._iterate import inverse_power, policy_iterate, relax
from ..operators import Variant
from ..radial import Constant
from .domain import GridField, boundary_data

_GRAD_FLOOR = 1e-8


def _arm_values(dom, values, bvals):
    """Values at the forward/backward arm ends, shape (n_cells, n_directions).

    An arm ends on a cell (its value) or on a cut (its boundary datum); the
    arm table indexes cell values followed by cut data.
    """
    ends = np.concatenate([values, bvals])
    return ends[dom.nbf], ends[dom.nbb]


def _second_differences(dom, values, bvals, weights):
    vf, vb = _arm_values(dom, values, bvals)
    sf, sb = dom.armf, dom.armb
    v0 = values[:, None]
    delta = 2.0 * (sb * vf + sf * vb - (sf + sb) * v0) / (sf * sb * (sf + sb))
    return delta * weights


def _gradient(dom, values, bvals):
    """Centered first differences along the two axis directions."""
    vf, vb = _arm_values(dom, values, bvals)
    sf, sb = dom.armf[:, :2], dom.armb[:, :2]
    v0 = values[:, None]
    num = sb ** 2 * vf[:, :2] - sf ** 2 * vb[:, :2] + (sf ** 2 - sb ** 2) * v0
    return num / (sf * sb * (sf + sb))


def _pair_sums(params, delta, pairs):
    if params.variant is Variant.PLUS:
        contrib = params.A * np.maximum(delta, 0.0) + params.a * np.minimum(delta, 0.0)
    else:
        contrib = params.a * np.maximum(delta, 0.0) + params.A * np.minimum(delta, 0.0)
    return contrib[:, pairs[:, 0]] + contrib[:, pairs[:, 1]]


def _grad_weight(params, dom, values, bvals):
    if params.alpha == 0.0:
        return np.ones(dom.n_cells)
    gx, gy = _gradient(dom, values, bvals).T
    g = np.maximum(np.hypot(gx, gy), _GRAD_FLOOR)
    return g ** params.alpha


def discretize_F(params, dom, field, stencil=None):
    """Apply the discrete operator |grad u|^alpha * M(D^2 u) cellwise.

    ``field.boundary_values`` must be set; cut arms read from it.  Passing
    ``stencil`` overrides the stencil stored on the domain (the negative
    controls inject a broken one this way).
    """
    if field.boundary_values is None:
        raise ValueError("field needs boundary_values to apply the operator")
    st = dom.stencil if stencil is None else stencil
    delta = _second_differences(dom, field.values, field.boundary_values,
                                st.weights)
    psum = _pair_sums(params, delta, st.pairs)
    core = psum.max(axis=1) if params.variant is Variant.PLUS else psum.min(axis=1)
    if params.alpha != 0.0:
        gx, gy = _gradient(dom, field.values, field.boundary_values).T
        g = np.hypot(gx, gy)
        if params.alpha < 0.0:
            g = np.maximum(g, _GRAD_FLOOR)
        core = np.where(g > 0.0, g ** params.alpha * core,
                        0.0 if params.alpha > 0.0 else core)
    return GridField(dom, core, None)


def _policy_matrix(params, dom, delta, grad_weight):
    """Linearize the pair extremum at the current second differences.

    At the active pair the extremum is attained, so F(u) = M u + b holds
    exactly at the linearization point, with b carrying the cut-arm
    boundary values; M is an M-matrix for positive stencil weights.
    Returns M (the Newton step needs only M, since b enters through the
    residual).
    """
    n = dom.n_cells
    psum = _pair_sums(params, delta, dom.stencil.pairs)
    if params.variant is Variant.PLUS:
        pick = psum.argmax(axis=1)
        hi, lo = params.A, params.a
    else:
        pick = psum.argmin(axis=1)
        hi, lo = params.a, params.A
    classes = dom.stencil.pairs[pick]
    idx = np.arange(n)
    rows, cols, vals = [], [], []
    for k in (0, 1):
        c = classes[:, k]
        d = delta[idx, c]
        coef = np.where(d > 0.0, hi, lo) * dom.stencil.weights[c] * grad_weight
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
    return spla.splu(mat.tocsc())


def solve_dirichlet(params, dom, source, g=0.0, *, method="policy",
                    tol=1e-8, max_outer=80, max_damped=400_000, tau=None,
                    u0=None, lu_cache=None):
    """Solve F[u] + f(u) = 0 with Dirichlet data g on the cut boundary.

    method="policy" linearizes the pair extremum at the current iterate and
    solves the resulting sparse system (one semismooth Newton step, equal
    to a Howard policy update when f is linear); ``lu_cache`` keeps the
    last factor across calls and reuses it only for an identical matrix.
    method="damped" is the explicit fixed-point iteration
    u <- u + tau*(F[u] + f(u)); it needs no linear algebra, but the
    admissible tau shrinks with the smallest cut arm, so it is practical
    only on coarse grids.

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
        if tau is None:
            wmax = (2.0 / (dom.armf * dom.armb)).max()
            tau = 0.45 / (params.A * wmax)
        u = relax(residual, u, tau, tol=tol, max_steps=max_damped)
        return GridField(dom, u, bvals)

    def jacobian(v):
        gw = _grad_weight(params, dom, v, bvals)
        delta = _second_differences(dom, v, bvals, dom.stencil.weights)
        fp = source.evaluate_deriv(v, params.alpha)
        return _policy_matrix(params, dom, delta, gw) + sp.diags(fp)

    u = policy_iterate(residual, jacobian, _factor, u, tol=tol,
                       max_steps=max_outer,
                       cache={} if lu_cache is None else lu_cache)
    return GridField(dom, u, bvals)


def principal_eigenvalue_grid(params, dom, *, tol=1e-6, max_power=400,
                              inner_tol=1e-10):
    """Principal half-eigenvalue by inverse power iteration.

    Repeatedly solves F[phi_next] = -phi with zero boundary data and reads
    the eigenvalue from the sup norm of the new iterate.  Requires
    alpha = 0, where the operator is positively 1-homogeneous.  Raises
    PositivityLoss if the normalized iterate dips below -1e-12 anywhere,
    which is the discrete symptom of leaving the principal branch.
    """
    if params.alpha != 0.0:
        raise ValueError("grid eigenvalue iteration requires alpha = 0")
    cache = {}

    def step(phi, prev):
        return solve_dirichlet(params, dom, Constant(phi), 0.0,
                               tol=inner_tol, u0=prev, lu_cache=cache).values

    lam, phi = inverse_power(step, np.ones(dom.n_cells), tol=tol,
                             max_power=max_power)
    return lam, GridField(dom, phi, np.zeros(len(dom.cut_xy)))
