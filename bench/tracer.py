"""In-memory spans around the public layer functions of pucci_lab.

``Tracer.install`` replaces every public function of the layer modules at
every module attribute (and module-level dict value) that holds it, so calls
between layers are seen too: ``principal_eigenvalue_grid`` reaches
``solve_dirichlet`` through ``grid.solver``'s globals, ``cli.main`` reaches
``cmd_serrin`` through its command table.  ``scipy.sparse.linalg.splu`` is
wrapped as well; each factorization is given to ``grid`` or ``sector`` by
the module that called it, and the returned factor's ``solve`` is timed.
``Tracer.remove`` puts every original back.

A span is (name, start, end, parent, run_id).  Its self time is its
duration minus its children's, so the self times of all spans plus the
time outside any span add up to the traced wall time.
"""

import collections
import functools
import inspect
import sys
import time

import scipy.sparse.linalg

# module -> layer name used as the span prefix
LAYERS = {
    "pucci_lab.operators": "operators",
    "pucci_lab.radial": "radial",
    "pucci_lab.grid.domain": "grid",
    "pucci_lab.grid.solver": "grid",
    "pucci_lab.grid.diagnostics": "grid",
    "pucci_lab.sector": "sector",
    "pucci_lab.cli": "cli",
}

# classes whose construction is a layer call
_CLASSES = [("pucci_lab.sector", "SectorMesh")]
# span -> (count, attribute of the returned or constructed object it adds)
_RESULT_COUNTS = {"grid.build_domain": ("grid.cells", "n_cells"),
                  "sector.SectorMesh": ("sector.nodes", "n_nodes")}
# private inner steps that are counted, not spanned
_STEP_COUNTS = {("pucci_lab.radial", "_rk4_step"): "radial.rk4_steps"}


def _span_name(layer, name):
    # cli command handlers are cmd_<command>; name the span after the command
    if layer == "cli" and name.startswith("cmd_"):
        name = name[len("cmd_"):]
    return f"{layer}.{name}"


class _TimedLU:
    """Factor proxy whose ``solve`` records a span; all else delegates."""

    def __init__(self, lu, tracer, name):
        self._lu, self._tracer, self._name = lu, tracer, name

    def solve(self, rhs, trans="N"):
        with self._tracer.span(self._name):
            return self._lu.solve(rhs, trans)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent,
                        t.run_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.run_id = None
        self._patches = []  # (owner, key, original, is_dict)
        self.started = self.ended = None

    def span(self, name):
        return _Span(self, name)

    # ------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        tracer = self
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                tracer.counts[count[0]] += getattr(out, count[1])
            return out
        return traced

    def _wrap_init(self, name, init):
        tracer = self
        count = _RESULT_COUNTS[name]

        @functools.wraps(init)
        def traced(obj, *args, **kwargs):
            with tracer.span(name):
                init(obj, *args, **kwargs)
            tracer.counts[count[0]] += getattr(obj, count[1])
        return traced

    def _wrap_step(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _splu(self, original):
        tracer = self

        @functools.wraps(original)
        def traced(matrix, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            layer = LAYERS.get(caller, "other")
            with tracer.span(f"{layer}.splu"):
                lu = original(matrix, *args, **kwargs)
            with tracer.span("bench.fill_count"):
                tracer.counts[f"{layer}.fill_nnz"] += lu.L.nnz + lu.U.nnz
            return _TimedLU(lu, tracer, f"{layer}.lu_solve")
        return traced

    @staticmethod
    def _set(owner, key, value, is_dict):
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self):
        """Wrap the layer functions wherever the loaded package holds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == modname):
                    wrappers[id(obj)] = (obj, self._wrap(
                        _span_name(layer, name), obj))
        for (modname, name), step in _STEP_COUNTS.items():
            obj = getattr(sys.modules[modname], name)
            wrappers[id(obj)] = (obj, self._wrap_step(step, obj))

        holders = [m for n, m in list(sys.modules.items())
                   if n == "pucci_lab" or n.startswith("pucci_lab.")]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, key, value, False))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patches.append((value, k, v, True))
        for modname, cls_name in _CLASSES:
            cls = getattr(sys.modules[modname], cls_name)
            self._patches.append((cls, "__init__", cls.__init__, False))
            wrappers[id(cls.__init__)] = (cls.__init__, self._wrap_init(
                f"{LAYERS[modname]}.{cls_name}", cls.__init__))
        self._patches.append((scipy.sparse.linalg, "splu",
                              scipy.sparse.linalg.splu, False))
        wrappers[id(scipy.sparse.linalg.splu)] = (
            scipy.sparse.linalg.splu, self._splu(scipy.sparse.linalg.splu))

        for owner, key, original, is_dict in self._patches:
            self._set(owner, key, wrappers[id(original)][1], is_dict)
        self.started = time.perf_counter()

    def remove(self):
        """Put every original back, in reverse order of installation."""
        self.ended = time.perf_counter()
        for owner, key, original, is_dict in reversed(self._patches):
            self._set(owner, key, original, is_dict)
        self._patches = []

    # ------------------------------------------------------ summaries

    def self_times(self):
        """Self time per span index: duration minus children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self):
        """Calls, inclusive and self seconds per span name, and nesting counts.

        Inclusive time counts only outermost spans of a name, so recursion
        cannot count an interval twice.
        """
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        nested = collections.Counter()
        own = self.self_times()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += own[i]
            ancestors = set()
            p = parent
            while p is not None:
                ancestors.add(self.spans[p][0])
                p = self.spans[p][3]
            if name not in ancestors:
                total[name] += end - start
            for anc in ancestors:
                nested[(anc, name)] += 1
        wall = self.ended - self.started
        top = sum(end - start for _, start, end, parent, _ in self.spans
                  if parent is None)
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "nested": nested, "wall_s": wall, "outside_s": wall - top}

    def dump(self):
        return {"fields": ["name", "start", "end", "parent", "run_id"],
                "origin": self.started, "spans": self.spans,
                "counts": dict(self.counts)}
