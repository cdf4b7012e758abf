"""Span tracing of shapegrad's layers, installed from outside the package.

``Tracer.install()`` replaces the public functions of each ``shapegrad``
module named in ``LAYERS`` with wrappers that record a span (name, start,
end, parent) around every call, plus a few exact counts read off the
arguments or results at the same boundary.  Nothing under ``src/``
changes: a wrapper replaces every module attribute that refers to the
original function, so ``from .fem_core import X`` imports are caught too.
``uninstall()`` puts the originals back.

The SuperLU factorization is wrapped at the ``splu`` call that
``fem_core`` makes: the factor object it returns is proxied so that its
triangular solves are spans of their own, and nnz(L) + nnz(U) is read off
it for the fill count.

A layer's self time is its spans' duration minus the part covered by
their child spans.  A layer's call count counts entries into the layer,
not calls a layer makes to itself (``assemble_boundary_load`` calling
``assemble_boundary_load_values`` is one assembly).
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import scipy.sparse.linalg as _spla

# layer -> public functions ("module:qualname") whose calls are its spans.
# Targets missing from the code under test are skipped, so the harness
# keeps running when a later version renames or deletes a function.
LAYERS = {
    "mesh.generate": ["mesh:gen_disk", "mesh:gen_rectangle"],
    "mesh.with_nodes": ["mesh:Mesh.with_nodes"],
    "fem_core.space": ["fem_core:FeSpace.__init__"],
    "fem_core.assemble": [
        "fem_core:assemble_diffusion", "fem_core:assemble_diffusion_values",
        "fem_core:assemble_mass", "fem_core:assemble_mass_values",
        "fem_core:assemble_gradscalar_values", "fem_core:assemble_load",
        "fem_core:assemble_load_values", "fem_core:assemble_grad_load_values",
        "fem_core:assemble_boundary_mass", "fem_core:assemble_boundary_load",
        "fem_core:assemble_boundary_load_values", "fem_core:apply_dirichlet"],
    "flow.transport": ["flow:transport_mesh"],
    "flow.advect": ["flow:advect_batch"],
    "shape_assembly.theta_samples": ["shape_assembly:theta_samples"],
    "shape_assembly.assemble_dJ": ["shape_assembly:assemble_dJ"],
    "elliptic_problems.build": [
        "elliptic_problems:RobinProblem.__init__",
        "elliptic_problems:QuasilinearProblem.__init__",
        "elliptic_problems:DirichletEnergyProblem.__init__",
        "elliptic_problems:robin_solve", "elliptic_problems:quasilinear_solve",
        "elliptic_problems:dirichlet_energy_solve"],
    "elliptic_problems.tensors": [
        "elliptic_problems:robin_shape_tensors",
        "elliptic_problems:quasilinear_shape_tensors",
        "elliptic_problems:dirichlet_energy_tensors"],
    "parabolic_problem.march": ["parabolic_problem:parabolic_solve"],
    "parabolic_problem.adjoint": ["parabolic_problem:parabolic_adjoint"],
    "parabolic_problem.tensors": ["parabolic_problem:parabolic_shape_tensors"],
    "parabolic_problem.material": ["parabolic_problem:parabolic_material"],
    "validation.fd": ["validation:fd_shape_check", "validation:fd_transport_check"],
    "validation.taylor": ["validation:material_taylor_check"],
    "validation.duality": ["validation:duality_check"],
    "cli.invoke": ["cli:main"],
    "reports.write": ["reports:write_json", "reports:write_csv",
                      "reports:save_field", "reports:atomic_write_text"],
}

FACTOR = "fem_core.factor"
TRISOLVE = "fem_core.trisolve"
# time the tracer spends on its own counts; excluded from every layer
BOOKKEEPING = "trace.bookkeeping"


def _count_newton(counts, args, kwargs, result):
    _, history = result
    counts["elliptic_problems.newton_iters"] += len(history) - 1


def _count_rows(prefix):
    def hook(counts, args, kwargs, table):
        counts[prefix + ".rows"] += len(table.rows)
        counts[prefix + ".flagged"] += sum(1 for r in table.rows if r.flagged)
    return hook


def _count_bytes(counts, args, kwargs, result):
    data = kwargs["data"] if "data" in kwargs else args[1]
    counts["reports.bytes"] += len(data.encode("utf-8"))


# function -> hook(counts, args, kwargs, result), run after the call returns
HOOKS = {
    "elliptic_problems:quasilinear_solve": _count_newton,
    "validation:fd_shape_check": _count_rows("validation.fd"),
    "validation:fd_transport_check": _count_rows("validation.fd"),
    "validation:material_taylor_check": _count_rows("validation.taylor"),
    "reports:atomic_write_text": _count_bytes,
}


def _resolve(target):
    """(owner, attribute, value) for "module:qualname", or None if absent."""
    modname, qualname = target.split(":")
    try:
        owner = importlib.import_module("shapegrad." + modname)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class _TracedFactor:
    """Proxy of a SuperLU object whose ``solve`` is a trisolve span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call(TRISOLVE, self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSpla:
    """Stand-in for ``scipy.sparse.linalg`` with a traced ``splu``."""

    def __init__(self, tracer):
        self._tracer = tracer

    def splu(self, A, *args, **kwargs):
        return self._tracer.traced_splu(A, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(_spla, name)


class Tracer:
    """In-memory span recorder for one process.

    Spans are lists ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at the root) and ``op`` the operation
    label the spans of one operation share.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = ""
        self._stack = []
        self._patches = []

    # ---------------------------------------------------------------- spans

    def call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def traced_splu(self, A, *args, **kwargs):
        lu = self.call(FACTOR, _spla.splu, (A,) + args, kwargs)
        t0 = time.perf_counter()
        fill = lu.L.nnz + lu.U.nnz
        self.spans.append([BOOKKEEPING, t0, time.perf_counter(),
                           self._stack[-1] if self._stack else -1, self.op])
        self.counts["fem_core.factor.fill"] += fill
        self.counts["fem_core.factor.n_max"] = max(
            self.counts["fem_core.factor.n_max"], A.shape[0])
        return _TracedFactor(lu, self)

    def reset(self):
        """Drop recorded spans and counts (between passes)."""
        self.spans = []
        self.counts = defaultdict(int)

    # ------------------------------------------------------------- patching

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "shapegrad" and not modname.startswith("shapegrad."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every layer function that exists in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(layer, fn, HOOKS.get(target))
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                else:
                    self._replace_everywhere(fn, wrapper)
        # fem_core calls ``spla.splu``; a module importing ``splu`` itself
        # is caught by the second replacement
        self._replace_everywhere(_spla, _TracedSpla(self))
        self._replace_everywhere(_spla.splu, self.traced_splu)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------ summaries

    def layer_summary(self):
        """Per layer: self time (s) and entry count, from the current spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            if parent < 0 or spans[parent][0] != name:
                calls[name] += 1
        return self_s, calls
