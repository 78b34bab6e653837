"""The benchmark tracer finds every hook it wraps and puts each back."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

import pucci_lab.cli  # noqa: F401  (the tracer needs every layer loaded)
from pucci_lab import Constant, PucciParams, radial
from pucci_lab.grid import Disk, build_domain, solve_dirichlet
from pucci_lab.sector import (SectorMesh, SectorOperatorParams,
                              sector_principal_eigenvalue)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores():
    originals = (radial.shoot, radial._rk4_step, scipy.sparse.linalg.splu)
    tracer = _tracer()
    try:
        tracer.install()
        assert radial.shoot is not originals[0]
    finally:
        tracer.remove()
    assert (radial.shoot, radial._rk4_step,
            scipy.sparse.linalg.splu) == originals


def test_factorizations_counted_per_layer():
    dom = build_domain(Disk(1.0), 0.1)
    mesh = SectorMesh(2, 0.1, np.pi / 100)
    tracer = _tracer()
    try:
        tracer.install()
        solve_dirichlet(PucciParams(0.5, 2.0), dom, Constant(1.0), 0.0)
        sector_principal_eigenvalue(SectorOperatorParams(0.9, 1.0), mesh)
    finally:
        tracer.remove()
    # each splu call is given to the layer whose _factor made it
    assert tracer.counts["grid.fill_nnz"] > 0
    assert tracer.counts["sector.fill_nnz"] > 0
    assert "other.fill_nnz" not in tracer.counts
