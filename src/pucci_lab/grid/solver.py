"""Consistent monotone discretization of Pucci operators and the solvers.

In the plane, M+(X) is the max and M-(X) the min of tr(alpha X) over the
matrices alpha with eigenvalues in [a, A], and the extremum is attained
at aI, at AI or at alpha(theta) = aI + (A - a) e e^T, e = (cos theta,
sin theta).  Selling's formula writes each alpha(theta) exactly as
sum_k rho_k v_k v_k^T with rho_k >= 0 over the three vectors v_k
perpendicular to an alpha-obtuse superbase of Z^2 (Fehrenbach and
Mirebeau, J. Math. Imaging Vis. 49, 2014; for Pucci, Bonnans, Bonnet and
Mirebeau, ENUMATH 2019), so each candidate is discretized as
sum_k rho_k |v_k|^2 delta_k with the cut-cell second differences delta_k
along v_k.  On each arc of phi = 2 theta where one superbase is obtuse,
rho_k is linear in (1, cos phi, sin phi), and so is a cell's candidate
value; its extremum over the arc is found in closed form.  Plus takes the
max and Minus the min over aI, AI and every arc.  The scheme is monotone
(every weight is >= 0) and exact on quadratics for every a <= A.  Its
reach grows with A/a: for A/a <= 5.83 it reads only (1, 0), (0, 1) and
(1, +-1), the 9-point stencil, which is all a domain resolves when it is
built; up to 17.94 it reads 8 and below 37.97 the 12 lattice directions of
``DIRECTIONS``, and from there on it raises ValueError.  ``solve_dirichlet``,
``principal_eigenvalue_grid`` and ``discretize_F`` resolve the directions
their table reads on the domain before they sample or read cut data
(``_resolved_table``), and weigh the stencil of the cells they read alone,
once per solve (``_weigh``).

The scheme commutes, up to rounding, with each map of the square's
symmetry group that maps the lattice, the domain, its cut arms and the
data onto themselves, so the policy Dirichlet solve and the eigenpair
run on the folded domain (``_folded``, by ``_iterate.fold``): one cell
per orbit, an eighth of the cells of a disk, a quarter of an
axis-aligned ellipse or a square, half of a hexagon, and the field
mapped back.  The maps are the 7 lattice maps ``_LATTICE_MAPS``, each
decided from the domain alone: the mask and the cut pattern of the arm
table must map exactly (``_mirror``, on the lattice arrays read through
flips and a transpose, ``_lattice_view``), and the cut fractions and the
data within the relative tolerance ``_FOLD_RTOL``.  The decision reads
no weights; the solve then weighs the kept cells alone, once.  A map
that breaks any condition does not fold, and with none the fold is the
identity, so there is one code path.  Each Newton matrix is one assembly
(``_policy_matrix``): the frozen weights, the derivative of the gradient
weight on the axis arms and the source's f' on the diagonal.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .._iterate import (LU_OPTIONS, fold, policy_eigen, policy_iterate,
                        relax, stencil_matrix)
from ..operators import Variant
from .domain import DIRECTIONS, GridField, _resolve, boundary_data

# The weight |grad_h u|^alpha meets g = 0 two ways.  The operator floors g
# for alpha < 0 only, where the weight is singular; for alpha > 0 it is
# 0^alpha * core = 0, the degenerate operator itself.  The frozen matrix
# floors g for every alpha != 0, so that no row vanishes: at u0 = 0 every
# gradient is 0.  For alpha < 0 the source's f' ~ |u|^alpha is infinite
# at u = 0 too, and the Dirichlet matrix reads it at max(|u|, floor).
_GRAD_FLOOR = 1e-8
_MAX_DAMPED = 400_000
# alpha(-pi) = diag(a, A), for which the superbase (1, 0), (0, 1), (-1, -1)
# is obtuse with the weight of (1, -1) turning positive: the walk round the
# circle starts there
_START_BASE = np.array([(1, 0), (0, 1), (-1, -1)])
_DIRECTION_ID = {tuple(s * d): j for j, d in enumerate(DIRECTIONS)
                 for s in (1, -1)}
# the 7 lattice maps besides the identity of the square's group D4, about
# the lattice centre: the axis mirrors, the rotations by 90, 180 and 270
# degrees and the diagonal mirrors, which swap the axes
_LATTICE_MAPS = (np.diag([-1, 1]), np.diag([1, -1]),
                 np.array([[0, -1], [1, 0]]), np.diag([-1, -1]),
                 np.array([[0, 1], [-1, 0]]), np.array([[0, 1], [1, 0]]),
                 np.array([[0, -1], [-1, 0]]))
# the relative tolerance within which a lattice map must reproduce the cut
# fractions and the data: a rotated polygon's vertices come from cos and
# sin, and its images agree to 2e-13 to 1e-11 relative
_FOLD_RTOL = 1e-10
# the multigrid of the Dirichlet steps (``_Multigrid``): the largest level
# factored whole, the Krylov stop, the damping of the prolongator's and of
# the smoother's Jacobi steps and the smoother's sweeps on each side
_COARSEST = 1500
_KRYLOV_RTOL = 1e-12
_KRYLOV_CAP = 60
_PROLONG_OMEGA = 2.0 / 3.0
_JACOBI_OMEGA = 0.7
_SWEEPS = 2


def _rho(base, a, A):
    """Selling's weights for alpha(phi) on a superbase, one row (p, q, r)
    per vector: rho_k(phi) = p + q cos phi + r sin phi is the weight of
    the vector perpendicular to base[k], -u^T alpha(phi) v over the other
    two vectors u and v, with alpha(phi) = (a + A)/2 I + (A - a)/2 R(phi)
    and R(phi) the reflection [[cos, sin], [sin, -cos]]."""
    (ux, uy), (vx, vy) = (np.roll(base, -k, axis=0).T for k in (1, 2))
    return -np.stack([0.5 * (a + A) * (ux * vx + uy * vy),
                      0.5 * (A - a) * (ux * vx - uy * vy),
                      0.5 * (A - a) * (ux * vy + uy * vx)], axis=1)


def _candidate_table(params):
    """The candidates the scheme maximizes over, as linear forms on the
    second differences of the directions it reads.

    Rows are the two scalar candidates, the negative side first (aI then AI
    for Plus, AI then aI for Minus), so that ties, u = 0 among them, freeze
    the negative side; then one row per arc [lo, hi] of phi = 2 theta on
    which one superbase is obtuse.  The superbases read a prefix of
    ``DIRECTIONS``, of length ``k``, and ``forms`` (5, k, rows) holds the
    weights of the second differences along it: p, q, r in
    p + q cos phi + r sin phi (q = r = 0 for the scalar rows, whose arc is
    the whole circle [-pi, pi]), then the weights at ``lo`` and at ``hi``,
    where the weight that vanishes at that end is exactly 0, so that the
    value at an end and the frozen matrix there read the same weights.

    The arcs come from one walk of phi round the circle: at the end of an
    arc one weight turns negative, and Selling's step on the other two
    vectors (u, v, w) -> (-u, v, u - v) gives the superbase of the next
    arc.  At a = A every alpha(theta) is aI and there are no arcs.  Raises
    ValueError when a superbase needs a direction ``DIRECTIONS`` lacks.
    """
    a, A = params.a, params.A
    arcs, base = [], _START_BASE
    lo, enter = -np.pi, 2
    while A > a:
        vecs = np.stack([-base[:, 1], base[:, 0]], axis=1)
        try:
            dirs = [_DIRECTION_ID[tuple(v)] for v in vecs]
        except KeyError:
            raise ValueError(
                f"A/a = {A / a:g} needs lattice directions beyond the "
                f"{len(DIRECTIONS)} of the grid stencil") from None
        # back at the start: the first superbase, entered through the same
        # vector (it may be obtuse on a second arc, entered through another)
        key = set(dirs), dirs[enter]
        if not arcs:
            start = key
        elif key == start:
            break
        rho = _rho(base, a, A) * (vecs * vecs).sum(axis=1)[:, None]
        p, q, r = rho.T
        amp = np.hypot(q, r)
        # each weight turns negative at psi + w, where psi is the phase of
        # q cos + r sin and cos w = -p / amp; never where p >= amp
        with np.errstate(invalid="ignore", divide="ignore"):
            turn = np.arctan2(r, q) + np.arccos(np.clip(-p / amp, -1.0, 1.0))
        ahead = np.where(p >= amp, np.inf, np.mod(turn - lo, 2.0 * np.pi))
        leave = int(ahead.argmin())
        arcs.append((dirs, rho, lo, lo + ahead[leave], enter, leave))
        lo, enter = lo + ahead[leave], leave
        i, j = (leave + 1) % 3, (leave + 2) % 3
        base = base.copy()
        base[i], base[leave] = -base[i], base[i] - base[j]

    # the scalar rows read the two axes
    k = max([2] + [max(dirs) + 1 for dirs, *_ in arcs])
    scalars = (a, A) if params.variant is Variant.PLUS else (A, a)
    rows = len(scalars) + len(arcs)
    forms = np.zeros((5, k, rows))
    forms[[0, 3, 4], :2, :2] = scalars
    bounds = np.tile([[-np.pi], [np.pi]], rows)
    for m, (dirs, rho, arc_lo, arc_hi, enter, leave) in enumerate(arcs, 2):
        forms[:3, dirs, m] = rho.T
        for f, end, zero in ((3, arc_lo, enter), (4, arc_hi, leave)):
            w = np.maximum(rho @ (1.0, np.cos(end), np.sin(end)), 0.0)
            w[zero] = 0.0
            forms[f, dirs, m] = w
        bounds[:, m] = arc_lo, arc_hi
    return SimpleNamespace(k=k, forms=forms, lo=bounds[0], hi=bounds[1])


def _resolved_table(params, dom):
    """The candidate table of ``params``, with ``dom`` resolved to the
    directions it reads, and their arm table ``nb`` on it, a view of
    ``dom.nb``: all that a solve reads of the whole domain.  The stencil
    weights are read only for the cells a solve reads (``_weigh``)."""
    table = _candidate_table(params)
    _resolve(dom, table.k)
    table.nb = dom.nb[:, :, :table.k]
    return table


def _weigh(params, dom, table, rows=slice(None)):
    """A copy of ``table`` with the stencil weights of the cells ``rows``
    of ``dom``, read once here for every linearization of a solve: the
    weights on the arm differences of the second difference along each
    direction, ``second``, and (alpha != 0) of the centred gradient along
    each axis, ``first``.  A policy solve and an eigenpair weigh the cells
    their fold keeps; ``discretize_F`` and the damped sweep weigh every
    cell."""
    sf, sb = arms = dom.arm_lengths(table.k, rows)
    weighed = SimpleNamespace(**vars(table), second=2.0 / (arms * (sf + sb)))
    if params.alpha != 0.0:
        weighed.first = (np.stack([sb / sf, -sf / sb]) / (sf + sb))[:, :, :2]
    return weighed


def _linearize(params, values, bvals, table):
    """The scheme at one iterate, read by the operator and the frozen
    matrix alike.

    Holds each cell's maximizer over the candidates of ``table``, whose
    values are linear forms in the second differences along the first
    ``table.k`` directions, ``table.second`` applied to the arm differences
    (the arm table ``table.nb`` indexes cell values followed by cut data);
    and the core M_h(D^2 u).  The maximizer is the candidate row ``pick``,
    with, per cell at that row, the phase ``top`` of the angle terms,
    whether it lies ``inside`` the arc, and whether the arc's low end
    beats its high end (``lo_wins``).  For alpha != 0 it also holds the
    axis gradients ``grad`` (gx, gy per cell; ``table.first``) and
    g = |grad_h u|.  ``value`` is the operator and ``weight`` the frozen
    matrix's gradient weight.
    """
    diff = np.concatenate([values, bvals]).take(table.nb) - values[:, None]
    delta = (table.second * diff).sum(axis=0)
    # Minus is the max over the candidates of -tr(alpha X)
    sign = 1.0 if params.variant is Variant.PLUS else -1.0
    c0, c1, c2, at_lo, at_hi = (sign * delta) @ table.forms
    # c1 cos + c2 sin peaks at its phase if that lies on the arc, and
    # otherwise at the better end
    top = np.arctan2(c2, c1)
    inside = (table.lo <= top) & (top <= table.hi)
    gain = np.where(inside, c0 + np.hypot(c1, c2), np.maximum(at_lo, at_hi))
    pick = gain.argmax(axis=1)
    at = np.arange(len(pick)), pick
    core = sign * gain[at]
    lin = SimpleNamespace(table=table, pick=pick, top=top[at],
                          inside=inside[at], lo_wins=at_lo[at] >= at_hi[at],
                          core=core, value=core, weight=1.0)
    if params.alpha != 0.0:
        lin.grad = (table.first * diff[:, :, :2]).sum(axis=0)
        lin.g = np.hypot(*lin.grad.T)
        lin.weight = np.maximum(lin.g, _GRAD_FLOOR) ** params.alpha
        lin.value = (lin.weight if params.alpha < 0.0
                     else lin.g ** params.alpha) * core
    return lin


def _active_weights(lin):
    """Each cell's weights on the second differences along the first
    ``lin.table.k`` directions at its maximizer (Danskin), shape
    (n_cells, k), clipped at 0 inside the arc and the table's end weights
    at an end."""
    phi = lin.top[:, None]
    p, q, r, at_lo, at_hi = lin.table.forms[:, :, lin.pick].transpose(0, 2, 1)
    return np.where(lin.inside[:, None],
                    np.maximum(p + q * np.cos(phi) + r * np.sin(phi), 0.0),
                    np.where(lin.lo_wins[:, None], at_lo, at_hi))


def discretize_F(params, dom, field, weights=None):
    """Apply the discrete operator |grad u|^alpha * M(D^2 u) cellwise.

    ``field.boundary_values`` must be set on every cut of the domain
    resolved to the directions the scheme reads; cut arms read from it.
    ``weights``, one per stencil direction, scale the second differences;
    the negative controls inject ``broken_weights()`` this way.
    """
    if field.boundary_values is None:
        raise ValueError("field needs boundary_values to apply the operator")
    table = _weigh(params, dom, _resolved_table(params, dom))
    if len(field.boundary_values) != len(dom.cut_xy):
        raise ValueError(
            f"field has {len(field.boundary_values)} boundary values but "
            f"the domain has {len(dom.cut_xy)} cut points in the "
            f"{table.k} directions A/a = {params.A / params.a:g} "
            f"reads; sample the field after the domain resolves them")
    if weights is not None:
        table.forms = table.forms * weights[:table.k, None]
    return GridField(dom, _linearize(params, field.values,
                                     field.boundary_values, table).value)


def _policy_matrix(lin, alpha=0.0, diag=0.0):
    """The matrix of a policy step at the iterate of ``lin``, assembled
    once: the frozen matrix, with alpha != 0 the derivative of the
    gradient weight, and ``diag`` on the diagonal.

    The frozen matrix M freezes each cell's maximizing candidate, its
    weights (``_active_weights``) and the floored gradient weight.  The
    operator is positively 1-homogeneous in the values and the cut data,
    so F(u) = M u + b holds exactly wherever the gradient is above the
    floor, with b carrying the cut-arm boundary values; M is an M-matrix.
    At alpha = 0, the default, the matrix is M (a step needs only the
    matrix, since b enters through the residual).  Otherwise the operator
    is w(g) * core with g = |grad_h u|, and the matrix is its Jacobian,
    M + diag(c gx) Gx + diag(c gy) Gy with c = alpha g^(alpha - 2) core
    where g is above the floor and 0 elsewhere: Gx and Gy are the centred
    axis differences of ``_linearize``, so that part adds c g_i
    ``table.first`` to the weights of the axis arms.  A Dirichlet step
    passes the source's f' as ``diag``.
    """
    weights = (_active_weights(lin) * np.reshape(lin.weight, (-1, 1))
               * lin.table.second)
    if alpha != 0.0:
        above = lin.g > _GRAD_FLOOR
        c = np.zeros(len(lin.g))
        c[above] = alpha * lin.g[above] ** (alpha - 2.0) * lin.core[above]
        weights[:, :, :2] += c[:, None] * lin.grad * lin.table.first
    return stencil_matrix(lin.table.nb, weights, diag)


def _lattice_view(a, g):
    """The lattice array ``a``, (nx, ny), read at the image of each
    lattice point under the lattice map ``g`` about the lattice centre:
    a view, flipped along the axes that g turns round and transposed where
    g swaps them.  On an nx != ny lattice a swap's view is (ny, nx): g
    does not map the lattice box onto itself."""
    return a[::g[0].sum(), ::g[1].sum()].transpose(np.abs(g) @ (0, 1))


def _mirror(dom, nb, g, arms):
    """The lattice map ``g`` as a map of the arm ends of the arm table
    ``nb``, cells then cuts, or None where it does not map the lattice
    pattern onto itself, exactly: the mask onto itself, read as its view
    under g (``_lattice_view``; a map that swaps the axes needs nx = ny),
    and each of the cut arms ``arms``, index arrays (side, cell,
    direction) into ``nb``, onto a cut arm.  No weight is read.

    A cell's image is the view of ``dom.cell_id`` read at the mask.  The
    arm (s, c, j) maps to the arm of direction g d_j at the image of c,
    on the other side where g d_j is the column's direction turned round.
    The map is one-to-one on the arms, so the cut arms then map onto
    themselves.  A cut that no arm of ``nb`` reaches (a direction the
    table does not read) is its own image.
    """
    if not np.array_equal(_lattice_view(dom.mask, g), dom.mask):
        return None
    img = _lattice_view(dom.cell_id, g)[dom.mask]
    turned = DIRECTIONS[:nb.shape[2]] @ g.T
    dirs = np.array([_DIRECTION_ID[tuple(d)] for d in turned])
    sides = np.arange(2)[:, None] ^ (DIRECTIONS[dirs] != turned).any(axis=1)
    side, cell, j = arms
    ends = nb[sides[side, j], img[cell], dirs[j]]
    n = dom.n_cells
    if (ends < n).any():
        return None
    at_image = np.concatenate([img, n + np.arange(len(dom.cut_xy))])
    at_image[nb[arms]] = ends
    return at_image


def _folded(params, dom, table, data=None):
    """The problem folded by each lattice map that maps it onto itself
    (``fold``), as the scheme reads it.

    A map of ``_LATTICE_MAPS`` folds where it maps the lattice pattern
    onto itself (``_mirror``) and leaves two arrays over the arm ends,
    cells then cuts, invariant within ``_FOLD_RTOL``: the cut fractions,
    which fix the weights, as an arm along d is |d| h times its fraction
    and a lattice map keeps |d|; and ``data``.  The lattice lies
    symmetrically about the centre of the shape's box
    (``GridDomain.axes``), so a shape that a map of the square's group
    takes onto itself about that centre folds.  The folded table is
    ``table`` with the folded arm table and the weights of the kept cells
    alone (``_weigh``).  The scheme commutes with the maps up to rounding,
    so a folded solution v gives the whole domain's v[to_r].
    """
    n = dom.n_cells
    # one flat scan: a nonzero() per axis took ten times as long
    arms = np.unravel_index(np.flatnonzero(table.nb >= n), table.nb.shape)
    ends = np.concatenate([np.ones(n), dom.cut_frac])
    if data is not None and data.any():  # zero data map exactly
        ends = np.stack([ends, data])
    maps = [m for m in (_mirror(dom, table.nb, g, arms)
                        for g in _LATTICE_MAPS)
            if m is not None and np.allclose(ends[..., m], ends,
                                             rtol=_FOLD_RTOL, atol=0.0)]
    keep, to_r, nb = fold(table.nb, maps)
    folded = _weigh(params, dom, table, keep)
    folded.nb = nb
    return SimpleNamespace(keep=keep, to_r=to_r, table=folded)


def _factor(mat):
    return spla.splu(mat.tocsc(), **LU_OPTIONS)


class _Multigrid:
    """Solver of one frozen Dirichlet matrix by BiCGSTAB, preconditioned
    with one V-cycle of smoothed aggregation (Vanek, Mandel and Brezina,
    Computing 56, 1996).

    The cells are grouped into 3 x 3 blocks of the lattice, and the blocks
    again on each coarser level, until a level has at most ``_COARSEST``
    unknowns; that level is factored by ``_factor``.  A matrix of at most
    ``_COARSEST`` unknowns has no finer level, and its LU is the solve.
    The prolongator is the piecewise constant one smoothed by one damped
    Jacobi step, the coarse matrix the Galerkin product P^T A P, and the
    smoother ``_SWEEPS`` damped Jacobi sweeps before the coarse correction
    and as many after.  A solve that has not reached a relative residual
    of ``_KRYLOV_RTOL`` in ``_KRYLOV_CAP`` iterations is made again with a
    whole-matrix ``_factor``.
    """

    def __init__(self, mat, cells):
        self.mat = mat
        self.levels = []
        while mat.shape[0] > _COARSEST:
            blocks = cells // 3
            # one integer key per block: numpy's row-wise unique took
            # 58 ms on a 62,840-cell ellipse, the key 1 ms
            _, first, agg = np.unique(
                blocks[:, 0] * (blocks[:, 1].max() + 1) + blocks[:, 1],
                return_index=True, return_inverse=True)
            cells = blocks[first]
            n = mat.shape[0]
            tent = sp.csr_matrix((np.ones(n), (np.arange(n), agg)),
                                 shape=(n, len(cells)))
            dinv = 1.0 / mat.diagonal()
            prol = tent - sp.diags(_PROLONG_OMEGA * dinv) @ (mat @ tent)
            # the restriction P^T, a view of P's arrays, made once per level
            restrict = prol.T
            self.levels.append((mat, dinv, prol, restrict))
            mat = restrict @ (mat @ prol)
        self.coarse = _factor(mat)

    def _cycle(self, rhs, depth=0):
        if depth == len(self.levels):
            return self.coarse.solve(rhs)
        mat, dinv, prol, restrict = self.levels[depth]
        x = _JACOBI_OMEGA * dinv * rhs
        for _ in range(_SWEEPS - 1):
            x += _JACOBI_OMEGA * dinv * (rhs - mat @ x)
        x += prol @ self._cycle(restrict @ (rhs - mat @ x), depth + 1)
        for _ in range(_SWEEPS):
            x += _JACOBI_OMEGA * dinv * (rhs - mat @ x)
        return x

    def solve(self, rhs):
        if not self.levels:  # the exact LU; BiCGSTAB could factor again
            return self.coarse.solve(rhs)
        cycle = spla.LinearOperator(self.mat.shape, matvec=self._cycle,
                                    dtype=float)
        x, info = spla.bicgstab(self.mat, rhs, rtol=_KRYLOV_RTOL, atol=0.0,
                                maxiter=_KRYLOV_CAP, M=cycle)
        return x if info == 0 else _factor(self.mat).solve(rhs)


def solve_dirichlet(params, dom, source, g=0.0, *, method="policy",
                    tol=1e-8, max_outer=80, u0=None):
    """Solve F[u] + f(u) = 0 with Dirichlet data g on the cut boundary.

    method="policy" is semismooth Newton with one new ``_Multigrid`` per
    step, which solves a step of at most ``_COARSEST`` cells by its LU and
    a larger one by BiCGSTAB to a relative residual of 1e-12 (the
    whole-matrix LU if that stalls), preconditioned with an aggregation
    multigrid whose coarsest level is such an LU.
    At alpha = 0 a step linearizes the candidate extremum at the current
    iterate (Danskin: the weights of each cell's maximizer), which is
    Howard's policy update when f is linear; its matrix
    is an M-matrix and every step is a full one.  For alpha != 0 the
    matrix also keeps the derivative of the gradient weight
    |grad_h u|^alpha, where the gradient is above the floor, so the step
    is Newton's in the weight too and not a fixed point in it.  That
    Jacobian is not an M-matrix, so each step is halved until sup|r|
    falls, down to a fixed shortest step.  A step's matrix, with the
    source's f' on its diagonal, is one ``_policy_matrix`` assembly.
    method="damped" is the explicit fixed-point iteration
    u <- u + tau*(F[u] + f(u)) with tau = 0.45 / (A * max 2/(s_f s_b)),
    the max over the arms the scheme reads (a candidate's weights sum to
    tr(alpha) <= 2A, so tau keeps every diagonal below 0.9/tau); it needs
    no linear algebra, but tau shrinks with the smallest cut arm, so it is
    practical only on coarse grids.

    method="policy" solves on the domain folded by each lattice map
    (``_LATTICE_MAPS``: the axis and diagonal mirrors and the rotations by
    90, 180 and 270 degrees) that maps the mask and the cut arms onto
    themselves exactly, and the cut fractions, ``u0`` and ``g`` on the
    cuts within the relative tolerance ``_FOLD_RTOL`` (``_folded``): one
    cell per orbit, an eighth of a disk, the field mapped back.  The maps
    are decided on the mask, the arm table and the cut fractions, and the
    solve weighs the kept cells once.  The source f(u) depends on u alone,
    so it commutes with every map.  The folded solution solves the whole
    problem up to the rounding the tolerance admits, and where the
    discrete solution is unique (alpha = 0) it is the whole-domain one; a
    map that breaks a condition does not fold.  method="damped" always
    solves the whole domain.

    Convergence is declared on the true assembled residual:
    sup |F[u] + f(u)| <= tol * max(1, sup|u|).  IterationLimit carries
    the residual history.
    """
    if method not in ("policy", "damped"):
        raise ValueError(f"unknown method {method!r}")
    table = _resolved_table(params, dom)
    bvals = boundary_data(dom, g)
    u = np.zeros(dom.n_cells) if u0 is None else GridField(dom, u0).values
    if method == "policy":
        fold = _folded(params, dom, table, np.concatenate([u, bvals]))
        table, u = fold.table, u[fold.keep]
    else:
        table = _weigh(params, dom, table)

    def linearize(v):
        lin = _linearize(params, v, bvals, table)

        def freeze():
            at = np.maximum(np.abs(v), _GRAD_FLOOR) if params.alpha < 0.0 \
                else v
            return _policy_matrix(lin, params.alpha,
                                  source.evaluate_deriv(at, params.alpha))
        return lin.value + source.evaluate(v, params.alpha), freeze

    if method == "damped":
        u = relax(lambda v: linearize(v)[0], u,
                  0.45 / (params.A * table.second.sum(axis=0).max()),
                  tol=tol, max_steps=_MAX_DAMPED)
    else:
        # the Jacobian is an M-matrix only at alpha = 0, where Howard's
        # full steps converge unguarded
        u = policy_iterate(linearize,
                           partial(_Multigrid, cells=dom.cells[fold.keep]),
                           u, tol=tol, max_steps=max_outer,
                           line_search=params.alpha != 0.0)[fold.to_r]
    return GridField(dom, u, bvals)


def principal_eigenvalue_grid(params, dom, *, tol=1e-6, max_power=400,
                              inner_tol=1e-10):
    """Principal half-eigenvalue by policy iteration on the eigenpair.

    Freezes each cell's maximizer at phi (zero boundary data), takes the
    principal eigenpair of the frozen M-matrix with one ``eigs`` call of
    relative tolerance ``inner_tol``, and refreezes; at most ``max_power``
    freezes.  Stops when sup|F[phi] + lambda*phi| <= tol * lambda, with
    phi scaled to sup 1.  Requires alpha = 0, where the operator is
    positively 1-homogeneous.  Raises PositivityLoss if phi dips below
    -1e-12 anywhere, which is the discrete symptom of leaving the
    principal branch.  The principal eigenfunction is unique up to scale,
    so it is invariant under each lattice map of the domain, and the loop
    runs on the folded domain of ``_folded`` and maps phi back.
    """
    if params.alpha != 0.0:
        raise ValueError("grid eigenvalue iteration requires alpha = 0")
    fold = _folded(params, dom, _resolved_table(params, dom))
    bvals = np.zeros(len(dom.cut_xy))

    def linearize(v):
        lin = _linearize(params, v, bvals, fold.table)
        return lin.value, lambda: _policy_matrix(lin)

    lam, phi = policy_eigen(linearize, _factor, np.ones(len(fold.keep)),
                            tol=tol, eig_tol=inner_tol, max_steps=max_power)
    return lam, GridField(dom, phi[fold.to_r], bvals)
