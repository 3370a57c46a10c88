"""Spans around the polyvem layers, installed from outside the package.

`Tracer.install` replaces every public function and method of the layer
modules (and `scipy.optimize.linprog`, which only `mesh` calls) by a
wrapper that records a span: its name, its start and end, and the span
it was called from. Spans are folded into a call tree on close, keyed
by (parent name, name), with count, inclusive and self time; a self
time is the span minus its child spans. `uninstall` puts every original
back, so untraced rounds run the program's own code.
"""

import functools
import importlib
import inspect
import time

import numpy as np
import scipy.optimize

LAYERS = ("mesh", "polybasis", "element2d", "element3d", "system", "study")

# span names are "<layer>.<qualified name>"
LINPROG = "mesh.scipy.optimize.linprog"
EVAL = ("polybasis.ScaledMonomialBasis.eval",
        "polybasis.ScaledMonomialBasis.grad")
QUADRATURE = ("polybasis.polygon_quadrature",
              "element3d.Element3D.volume_quadrature")

# metric -> the span names whose inclusive time it sums
INCLUSIVE = {
    "mesh.generate_s": ("mesh.generate_square_mesh",
                        "mesh.generate_cube_mesh"),
    "mesh.quality_s": ("mesh.quality_report",),
    "polybasis.eval_s": EVAL,
    "polybasis.quadrature_s": QUADRATURE,
    "element2d.build_s": ("element2d.Element2D.__init__",),
    "element2d.stiffness_s": ("element2d.Element2D.local_stiffness",),
    "element2d.load_s": ("element2d.Element2D.local_load",),
    "element2d.interpolate_s": ("element2d.Element2D.interpolate",),
    "element3d.build_s": ("element3d.Element3D.__init__",),
    "element3d.face_cache_s": ("element3d.build_face_cache",),
    "element3d.stiffness_s": ("element3d.Element3D.local_stiffness",),
    "element3d.load_s": ("element3d.Element3D.local_load",),
    "element3d.interpolate_s": ("element3d.Element3D.interpolate",),
    "system.dofmap_s": ("system.GlobalDofMap.__init__",),
    "system.dirichlet_s": ("system.GlobalSystem.apply_boundary_values",),
    "system.solve_s": ("system.GlobalSystem.solve",),
    "study.report_s": ("study.write_report_files",),
}
# metric -> the span names whose self time it sums; the free-dof
# slicing of assemble happens in the GlobalSystem constructor
SELF = {
    "system.scatter_s": ("system.assemble", "system.GlobalSystem.__init__"),
    "study.errors_s": ("study.compute_errors",),
}
# metric -> the span names whose call count it is
CALLS = {
    "mesh.lp_solves": (LINPROG,),
    "element2d.builds": ("element2d.Element2D.__init__",),
    "element3d.builds": ("element3d.Element3D.__init__",),
}


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.tree = {}
        self.counters = {}
        self._stack = []
        self._patches = []

    def reset(self):
        """Forget the spans and counters recorded so far."""
        self.tree = {}
        self.counters = {}

    def _wrap(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an open span is [name, time covered by its children]
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(span, start, end)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def _close(self, span, start, end):
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (parent[0] if parent is not None else None, span[0])
        node = self.tree.get(key)
        if node is None:
            node = self.tree[key] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += duration
        node[2] += duration - span[1]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module("polyvem." + layer)
                   for layer in LAYERS}
        # every module that may hold its own reference to a function
        holders = [importlib.import_module("polyvem"),
                   importlib.import_module("polyvem.cli"),
                   *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, obj, OBSERVERS.get(name))
                    for holder in holders:
                        for hattr, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, hattr, wrapped)
        self._patch(scipy.optimize, "linprog",
                    self._wrap(LINPROG, scipy.optimize.linprog))

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if inspect.isfunction(member):
                name = f"{layer}.{cls.__name__}.{attr}"
                self._patch(cls, attr,
                            self._wrap(name, member, OBSERVERS.get(name)))

    def uninstall(self):
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """Per span name: [count, inclusive time, self time].

        A span called from a span of the same name is left out of the
        inclusive time, which its caller already covers.
        """
        out = {}
        for (parent, name), (count, incl, own) in self.tree.items():
            node = out.setdefault(name, [0, 0.0, 0.0])
            node[0] += count
            if parent != name:
                node[1] += incl
            node[2] += own
        return out

    def metrics(self):
        """The per-layer metrics of the spans and counters recorded."""
        totals = self.totals()

        def pick(names, field):
            return sum(totals.get(n, (0, 0.0, 0.0))[field] for n in names)

        out = {metric: pick(names, 1) for metric, names in INCLUSIVE.items()}
        out.update({m: pick(names, 2) for m, names in SELF.items()})
        out.update({m: pick(names, 0) for m, names in CALLS.items()})
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                own for name, (_, _, own) in totals.items()
                if name.split(".", 1)[0] == layer)
        for key in ("polybasis.eval_points", "polybasis.quadrature_points",
                    "system.solve_iterations", "system.solve_residual",
                    "system.nnz"):
            out[key] = self.counters.get(key, 0)
        return out

    def call_tree(self):
        """The recorded call tree as JSON-ready rows, slowest first."""
        rows = [{"parent": parent, "name": name, "count": count,
                 "inclusive_s": incl, "self_s": own}
                for (parent, name), (count, incl, own) in self.tree.items()]
        return sorted(rows, key=lambda row: -row["inclusive_s"])


# -- counters read from arguments and results ------------------------------


def _count_points(counters, args, result):
    n = len(np.atleast_2d(args[1]))
    counters["polybasis.eval_points"] = (
        counters.get("polybasis.eval_points", 0) + n)


def _count_quadrature(counters, args, result):
    counters["polybasis.quadrature_points"] = (
        counters.get("polybasis.quadrature_points", 0) + len(result[0]))


def _record_solve(counters, args, result):
    system, (_, info) = args[0], result
    counters["system.solve_iterations"] = (
        counters.get("system.solve_iterations", 0) + int(info.iterations))
    counters["system.solve_residual"] = max(
        counters.get("system.solve_residual", 0.0), float(info.residual))
    # levels run coarse to fine, so the last solve is the finest level
    counters["system.nnz"] = int(system.A.nnz)


OBSERVERS = {
    EVAL[0]: _count_points,
    EVAL[1]: _count_points,
    QUADRATURE[0]: _count_quadrature,
    QUADRATURE[1]: _count_quadrature,
    "system.GlobalSystem.solve": _record_solve,
}
