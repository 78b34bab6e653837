"""The benchmark tracer finds every hook it wraps and puts each back."""

import importlib.util
from pathlib import Path

import scipy.sparse.linalg

import pucci_lab.cli  # noqa: F401  (the tracer needs every layer loaded)
from pucci_lab import radial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (radial.shoot, radial._rk4_step, scipy.sparse.linalg.splu)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert radial.shoot is not originals[0]
    finally:
        tracer.remove()
    assert (radial.shoot, radial._rk4_step,
            scipy.sparse.linalg.splu) == originals
