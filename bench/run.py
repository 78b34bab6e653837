"""Benchmark of the pucci_lab solvers: one workload, one process, one client.

    python3 bench/run.py --workload {serrin,eigen,corner} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The inputs are drawn from ``--seed``.  Set-up (import plus
building every domain and mesh) is repeated three times and reported as a
median.  The workload's problem set is then solved in passes, a new pass
starting while less than ``--seconds`` have gone by, and every answer is
checked against its oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untimed
reference pass, then rebuilds and solves once more with every public layer
function wrapped, and prints the per-layer metrics.  The next-to-last line
of standard output is a JSON record of the inputs, the environment and every
numeric result; the last line is the result object.  Traced runs also write
their spans to ``.bench_out/`` at the repository root.
"""

import ctypes
import os

# one BLAS thread; this must happen before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc moves its mmap threshold up to the largest block freed so far, and
# with it the peak RSS of identical work moved by up to 40 % between runs;
# a fixed threshold makes the peak repeat to within a few MB
MMAP_THRESHOLD = 4 << 20
try:
    _MALLOPT_SET = ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD) == 1
except (OSError, AttributeError):  # not glibc
    _MALLOPT_SET = False

import time  # noqa: E402

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("serrin", "eigen", "corner"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_observed": _thread_count(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "mmap_threshold": MMAP_THRESHOLD if _MALLOPT_SET else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_pass(workloads, name, inputs, built, size):
    """Solve the workload's problem set once; returns the pass record."""
    ctx = workloads.Context(inputs, built, size, OUT_DIR)
    problems = {}
    started, cpu = time.perf_counter(), time.process_time()
    for pname, fn in workloads.PROBLEMS[name]:
        t0 = time.perf_counter()
        try:
            results, checks = fn(ctx)
            ok = all(c["passed"] for c in checks)
            rec = {"ok": ok, "results": results, "checks": checks}
        except Exception as exc:  # a raising problem counts as failed
            rec = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        rec["time_s"] = time.perf_counter() - t0
        problems[pname] = rec
    return {"time_s": time.perf_counter() - started,
            "cpu_s": time.process_time() - cpu, "problems": problems}


def _timing(samples):
    """Median, plus the highest percentile with at least 10 samples above."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    n = len(samples)
    if n >= 11:
        # the 11th largest sample has 10 beyond it
        out[f"p{100.0 * (n - 10) / n:.0f}"] = sorted(samples)[n - 11]
    else:
        out["tail"] = "none: fewer than 11 samples"
    return out


def _layer_metrics(tracer, untraced_s, traced_s, attempted, failed):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    s = tracer.summary()
    calls, total, nested = s["calls"], s["total_s"], s["nested"]
    counts = tracer.counts
    m = {}

    def sec(name, span):
        m[name] = (total.get(span, 0.0), "s")

    def cnt(name, value):
        m[name] = (int(value), "count")

    sec("grid.build_domain.s", "grid.build_domain")
    cnt("grid.build_domain.calls", calls["grid.build_domain"])
    cnt("grid.cells", counts["grid.cells"])
    for layer in ("grid", "sector"):
        cnt(f"{layer}.factorizations", calls[f"{layer}.splu"])
        sec(f"{layer}.factor_s", f"{layer}.splu")
        cnt(f"{layer}.fill_nnz", counts[f"{layer}.fill_nnz"])
        sec(f"{layer}.lu_solve_s", f"{layer}.lu_solve")
    cnt("grid.discretize_F.calls", calls["grid.discretize_F"])
    sec("grid.solve_dirichlet.s", "grid.solve_dirichlet")
    sec("grid.principal_eigenvalue_grid.s", "grid.principal_eigenvalue_grid")
    cnt("grid.power_steps",
        nested[("grid.principal_eigenvalue_grid", "grid.solve_dirichlet")])
    for fn in ("neumann_trace", "reflection_gap", "critical_plane_position"):
        sec(f"grid.{fn}.s", f"grid.{fn}")
    cnt("radial.shoot.calls", calls["radial.shoot"])
    sec("radial.shoot.s", "radial.shoot")
    cnt("radial.rk4_steps", counts["radial.rk4_steps"])
    sec("radial.principal_eigenvalue_ball.s", "radial.principal_eigenvalue_ball")
    cnt("sector.sector_principal_eigenvalue.calls",
        calls["sector.sector_principal_eigenvalue"])
    sec("sector.sector_principal_eigenvalue.s",
        "sector.sector_principal_eigenvalue")
    cnt("sector.fixed_point_steps",
        nested[("sector.gamma_exponent", "sector.sector_principal_eigenvalue")])
    sec("sector.barrier_margin.s", "sector.barrier_margin")
    sec("sector.SectorMesh.s", "sector.SectorMesh")
    cnt("sector.nodes", counts["sector.nodes"])
    cnt("operators.pucci.calls", calls["operators.pucci"])
    sec("operators.pucci.s", "operators.pucci")
    sec("operators.boundary_hessian.s", "operators.boundary_hessian")
    sec("cli.serrin.s", "cli.serrin")
    sec("cli.sector.s", "cli.sector")
    layer_self = {}
    for name, own in s["self_s"].items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    layer_self["bench"] = layer_self.get("bench", 0.0) + s["outside_s"]
    for layer in ("grid", "radial", "sector", "operators", "cli", "bench"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["fail_frac"] = (failed / attempted, "ratio")
    accounting = {"wall_s": s["wall_s"],
                  "layer_self_s": layer_self,
                  "self_sum_s": sum(layer_self.values())}
    return m, accounting


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "pucci_lab" / "__init__.py").is_file():
        print(f"error: no pucci_lab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pucci_lab  # noqa: F401  (the import is part of set-up)
    import workloads
    import_s = time.perf_counter() - _STARTED

    inputs = workloads.draw_inputs(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    build_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        built = None  # drop the previous set so peak memory holds one
        t0 = time.perf_counter()
        built = workloads.setup(args.workload, inputs, args.size)
        build_s.append(time.perf_counter() - t0)

    passes = []
    measure_start = time.perf_counter()
    while not passes or (not args.trace
                         and time.perf_counter() - measure_start < args.seconds):
        passes.append(_run_pass(workloads, args.workload, inputs, built,
                                args.size))
    solve = _timing([p["time_s"] for p in passes])

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_id = "setup"
            built = None
            built = workloads.setup(args.workload, inputs, args.size)
            tracer.run_id = "solve"
            passes.append(_run_pass(workloads, args.workload, inputs, built,
                                    args.size))
        finally:
            tracer.remove()

    attempted = sum(len(p["problems"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["problems"].values())
    first = passes[0]["problems"]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "inputs": inputs, "environment": _environment(),
        "setup": {"import_s": import_s, "build_s": build_s},
        "solve_s": solve, "pass_s": [p["time_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "problems": {k: {kk: vv for kk, vv in v.items() if kk != "time_s"}
                     for k, v in first.items()},
        "problem_s": {k: [p["problems"][k]["time_s"] for p in passes]
                      for k in first},
    }
    if args.trace:
        traced_s = passes[-1]["time_s"]
        layer, accounting = _layer_metrics(tracer, solve["median"], traced_s,
                                           attempted, failed)
        detail["trace_accounting"] = accounting
        detail["traced_problems"] = {
            k: v.get("results") for k, v in passes[-1]["problems"].items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = layer
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (import_s + statistics.median(build_s), "s"),
            "solve_s": (solve["median"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps(detail, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
