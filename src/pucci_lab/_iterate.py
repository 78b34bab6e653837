"""Iteration drivers shared by the grid and sector solvers.

Both layers discretize an extremal operator that is a max or min of
linear ones in the nodal values (over finitely many policies in the
sector, over a continuum of angles on the grid), so the same four loops
serve both:

* ``policy_iterate``: Howard's algorithm (policy iteration; Bokanowski,
  Maroso and Zidani, SIAM J. Numer. Anal. 47, 2009).  Linearize at the
  current policy, solve the frozen sparse system, repeat.  Given the
  whole Jacobian of a semismooth residual it is Newton's method (Qi and
  Sun, Math. Program. 58, 1993), which may ask for its backtracking line
  search on sup|r|.
* ``policy_eigen``: Howard's algorithm on the eigenproblem.  Freeze the
  policy at the current eigenfunction, take the principal eigenpair of the
  frozen matrix with one shift-invert ``eigs`` call, repeat (the principal
  half-eigenvalues of Pucci operators: Busca, Esteban and Quaas, Ann. IHP
  22, 2005).  A start that already meets the stopping rule with its
  Rayleigh quotient is returned with no freeze.
* ``inverse_power``: sup-normalized inverse power iteration for the
  principal eigenvalue, with the positivity check that keeps it on the
  principal branch; kept as the oracle ``policy_eigen`` is tested against.
* ``relax``: the explicit damped sweep, a slow oracle needing no linear
  algebra.

Both layers find stencil neighbours in one arm table, int32 of shape
(2, n, k), and state each difference once, as weights on the arm
differences u[end] - u[centre] (Oberman, SIAM J. Numer. Anal. 44, 2006),
which the operator and its frozen CSC matrix, ``stencil_matrix``, read.
The policy and eigenpair loops give each frozen matrix once to the
layer's own ``factor`` and keep no solver from one freeze to the next.
That ``factor`` is ``splu`` with ``LU_OPTIONS``, except in the grid's
Dirichlet loop, where it is an aggregation multigrid: BiCGSTAB
preconditioned with V-cycles whose coarsest level, of at most 1,500
unknowns, is such an LU.  A smaller matrix is its own coarsest level and
is solved by that LU alone.
Each layer may hand these loops a problem folded by its lattice maps
(``fold``), one unknown per orbit, and map the result back: the sector
box by its two reflections, a grid domain by each map of the square's
symmetry group that maps it and its data onto themselves.
Convergence is declared on the true nonlinear residual,
sup|r(u)| <= tol * max(1, sup|u|) (sup|F[phi] + lam*phi| <= tol * lam for
the eigenpair).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationLimit, PositivityLoss

# iterates more negative than this (after sup normalization) have left
# the principal branch
_POSITIVITY_TOL = -1e-12
# Krylov size of the one-pair eigs call of policy_eigen
_NCV = 6
# the shortest step the line search of policy_iterate tries
_MIN_STEP = 2.0 ** -10
# on the diagonally dominant frozen matrices a minimum-degree order of
# A^T + A with diagonal pivots makes several times less fill than COLAMD
LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                  options=dict(SymmetricMode=True))


def stencil_matrix(ends, weights, diag=0.0):
    """The n x n CSC matrix of a stencil on n nodes, plus ``diag``.

    ``ends`` is an arm table, shape (2, n, k) with the forward side first,
    as the grid domain and the sector mesh store it, and ``weights`` has
    its shape: row i applies ``weights[s, i, j]`` to u[ends[s, i, j]] - u[i],
    so its diagonal is ``diag[i]`` (a scalar serves all rows) minus all
    its weights summed, and an end >= n is not an unknown and makes no
    other entry.  Repeated (row, column) pairs are summed, and entries
    that come out zero are not stored, so the LU orders and factors only
    the real pattern.
    """
    n = ends.shape[1]
    # scipy's index type, so the COO-to-CSC conversion copies no index
    idx = np.arange(n, dtype=np.int32)
    own = ends < n
    rows = np.broadcast_to(idx[:, None], ends.shape)[own]
    # each side over its arms first, so that zero columns keep the bits
    diag = diag - weights.sum(axis=2).sum(axis=0)
    mat = sp.csc_matrix((np.concatenate([diag, weights[own]]),
                         (np.concatenate([idx, rows]),
                          np.concatenate([idx, ends[own]]))), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def fold(nb, maps):
    """The arm table ``nb`` of n nodes folded by the lattice maps
    ``maps``, each given as its node map: image[i] is node i's image (an
    array over all arm ends serves; only its first n entries are read).
    A node's representative is the smallest node of its orbit under the
    group the maps generate.  Passes of rep <- min(rep, rep[image]) over
    the maps carry the smallest id along each map until rep stops
    changing.  One pass finds it for mirrors that each turn one axis
    round, as node ids rise along every axis; a rotation or a diagonal
    mirror may need more.  Returns ``keep``, the representatives in
    order; ``to_r``, each node's folded index, its representative's rank
    in ``keep``; and the kept rows of ``nb``, each node end e replaced by
    to_r[e] and every other end (a grid cut, the sector's beyond the box)
    by e - n + n_r, n_r the folded count.  ``stencil_matrix`` then sums
    the arms that end at one representative, so on the kept rows of
    weights that the maps leave invariant an operator on the arm
    differences has F_folded(v) = F(v[to_r])[keep].  With no map the fold
    is the identity.
    """
    n = nb.shape[1]
    rep = np.arange(n)
    while True:
        last = rep
        for image in maps:
            rep = np.minimum(rep, rep[image[:n]])
        if np.array_equal(rep, last):
            break
    kept = rep == np.arange(n)
    keep = np.flatnonzero(kept)
    to_r = (np.cumsum(kept, dtype=nb.dtype) - 1)[rep]
    ends = nb[:, keep]
    return keep, to_r, np.concatenate([to_r, np.arange(
        len(keep), len(keep) + ends.max() + 1 - n, dtype=nb.dtype)])[ends]


def _converged(res, u, tol):
    return res <= tol * max(1.0, float(np.abs(u).max()))


def _check_positive(x):
    if x.min() < _POSITIVITY_TOL:
        raise PositivityLoss(
            f"eigenfunction lost positivity (min {x.min():.3e})")


def _check_cap(max_steps):
    if max_steps < 1:
        raise ValueError(f"step cap must be at least 1, got {max_steps}")


def _sup_residual(r, history):
    """Append sup|r| to the history and return it; a non-finite residual
    ends the iteration."""
    res = float(np.abs(r).max())
    history.append(res)
    if not np.isfinite(res):
        raise IterationLimit("residual is not finite", history=history[-50:])
    return res


def policy_iterate(linearize, factor, u0, *, tol, max_steps,
                   line_search=False):
    """Newton-Howard iteration u <- u - J(u)^{-1} r(u) on flat arrays.

    ``linearize(u)`` returns r(u) and a callable that builds the CSC matrix
    J(u), so the residual and the matrix share one linearization and a
    converged step builds no matrix.  ``factor(J)`` returns an object with
    ``solve``, an LU factor or an iterative solver; each step calls it
    once.  With ``line_search`` a step is halved until sup|r| falls below
    its value at u, down to a step of ``_MIN_STEP`` that is taken
    whatever its residual; the accepted trial's linearization serves the
    next step, so a full step linearizes once.  Without it every step is a
    full one, as Howard's algorithm on an M-matrix needs no guard.
    """
    _check_cap(max_steps)
    u = np.array(u0, dtype=float)
    history = []
    r, freeze = linearize(u)
    for _ in range(max_steps):
        res = _sup_residual(r, history)
        if _converged(res, u, tol):
            return u
        mat = freeze()
        # freeze may hold a whole linearization (about 40 MB on a 63k-cell
        # grid); the solver that factor builds (an LU or the grid's
        # multigrid, each larger than the matrix) needs only the matrix
        del freeze
        du = factor(mat).solve(-r)
        step = 1.0
        while True:
            trial = u + step * du
            r, freeze = linearize(trial)
            if (not line_search or step <= _MIN_STEP
                    or np.abs(r).max() < res):
                break
            step *= 0.5
        u = trial
    raise IterationLimit(
        f"policy iteration did not reach tol={tol:g} in {max_steps} steps "
        f"(last residual {history[-1]:.3e})", history=history[-50:])


def relax(residual, u0, tau, *, tol, max_steps):
    """Explicit damped sweep u <- u + tau * r(u).

    Stable for tau below the inverse of the largest stencil weight; kept as
    the oracle the policy path is tested against.
    """
    _check_cap(max_steps)
    u = np.array(u0, dtype=float)
    history = []
    for _ in range(max_steps):
        r = residual(u)
        if _converged(_sup_residual(r, history), u, tol):
            return u
        u = u + tau * r
    raise IterationLimit(
        f"relaxation at residual {history[-1]:.3e} after {max_steps} steps",
        history=history[-50:])


def inverse_power(step, x0, *, tol, max_power):
    """Principal eigenpair by inverse power iteration in the sup norm.

    ``step(x, prev)`` solves the operator equation with right-hand side
    -x; ``prev`` is the previous step's output (None on the first step),
    for use as the inner solver's starting guess.  The eigenvalue is read
    as 1/sup|step(x)| and the iteration stops when its relative change is
    at most tol.  Raises PositivityLoss if a normalized iterate dips below
    -1e-12 anywhere, which is the discrete symptom of leaving the principal
    branch.  Returns (lambda, normalized eigenvector).
    """
    _check_cap(max_power)
    x, prev = x0, None
    lams = []
    for _ in range(max_power):
        nxt = step(x, prev)
        top = float(np.abs(nxt).max())
        if top <= 0.0:
            raise PositivityLoss("inverse power step collapsed to zero")
        lam = 1.0 / top
        x_new = nxt / top
        _check_positive(x_new)
        if lams and abs(lam - lams[-1]) <= tol * abs(lam):
            return lam, x_new
        lams.append(lam)
        x, prev = x_new, nxt
    raise IterationLimit(f"inverse power did not settle in {max_power} "
                         f"steps (last {lams[-1]})",
                         history=lams[-50:])


def policy_eigen(linearize, factor, x0, *, tol, eig_tol, max_steps):
    """Principal eigenpair of -F by policy iteration on the pair.

    F is a positively 1-homogeneous operator on flat arrays, a max or min
    of linear ones.  ``linearize(x)`` returns F[x] and a callable that
    builds its CSC matrix frozen at the policy active at x, so
    F[x] = J(x) @ x, and
    one linearization per freeze serves both the residual of the last
    freeze and the matrix of the next.  Each step freezes the policy at
    phi, takes the Perron pair of M = -J(phi) by shift-invert ``eigs``
    about 0 (relative tolerance ``eig_tol``) with ``factor(M).solve`` as
    the inverse, and scales the vector so its largest-magnitude entry is
    +1.  The Krylov space is min(6, n) vectors wide: for one pair ARPACK
    needs only ncv > k + 1 (Lehoucq, Sorensen and Yang, ARPACK Users'
    Guide, 1998), and each vector costs one solve, so with the warm start
    v0 = phi a freeze takes 7 to 10 solves where scipy's default of 20
    vectors takes 21.  Stops when sup|F[phi] + lam*phi| <= tol * lam.
    The start x0, at sup 1, is checked first against the same rule with
    lam its Rayleigh quotient -<F[x0], x0>/<x0, x0>: when lam > 0 and x0
    passes the positivity check, (lam, x0) is returned with no freeze and
    no factorization.  The linearization of x0 serves the first freeze
    either way, and the start's residual is not part of the history.
    Raises PositivityLoss if phi dips below -1e-12 anywhere, and
    IterationLimit (with the residual history) after ``max_steps`` freezes,
    on a non-finite residual or when ARPACK fails.  Returns (lambda, phi).
    """
    _check_cap(max_steps)
    phi = np.array(x0, dtype=float)
    history = []
    value, freeze = linearize(phi)
    # the start's Rayleigh quotient, for the stopping rule
    lam = -float(value @ phi) / float(phi @ phi)
    if (lam > 0.0 and phi.min() >= _POSITIVITY_TOL
            and np.abs(value + lam * phi).max() <= tol * lam):
        return lam, phi
    for _ in range(max_steps):
        mat = -freeze()
        del freeze
        try:
            vals, vecs = spla.eigs(
                mat, k=1, sigma=0.0, v0=phi, tol=eig_tol,
                ncv=min(_NCV, mat.shape[0]),
                OPinv=spla.LinearOperator(mat.shape, matvec=factor(mat).solve,
                                          dtype=float))
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise IterationLimit(f"eigs failed on a frozen matrix: {exc}",
                                 history=history[-50:]) from exc
        lam = float(vals[0].real)
        vec = vecs[:, 0].real
        phi = vec / vec[np.argmax(np.abs(vec))]
        _check_positive(phi)
        value, freeze = linearize(phi)
        if _sup_residual(value + lam * phi, history) <= tol * lam:
            return lam, phi
    raise IterationLimit(
        f"policy eigen iteration did not reach tol={tol:g} in {max_steps} "
        f"freezes (residuals {history[-3:]})", history=history[-50:])
