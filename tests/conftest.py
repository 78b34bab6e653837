from types import SimpleNamespace

import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._eigen.arpack import arpack


@pytest.fixture
def count_solves(monkeypatch):
    """count_solves(module) wraps the layer's _factor; the returned list
    holds, per factor made after that, the number of solves with it."""
    def install(module):
        per_factor = []
        real = module._factor

        def counting(mat):
            lu = real(mat)
            per_factor.append(0)

            def solve(rhs):
                per_factor[-1] += 1
                return lu.solve(rhs)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(module, "_factor", counting)
        return per_factor

    return install


@pytest.fixture
def count_splu(monkeypatch):
    """The shapes of the matrices given to scipy's splu from now on, one
    entry per factorization.  ARPACK's own splu is counted too: without
    OPinv eigs would factor."""
    calls = []
    real = spla.splu

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    monkeypatch.setattr(arpack, "splu", counting)
    return calls


@pytest.fixture
def whole_domain(monkeypatch):
    """Grid solves on the whole domain from now on: no mirror maps a
    problem onto itself, so every cell is its own representative and the
    solver's fold keeps the arm table as it is.  The oracle of the mirror
    fold."""
    from pucci_lab.grid import solver

    monkeypatch.setattr(solver, "_mirror", lambda *args: None)
