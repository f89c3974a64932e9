"""Span recording around calls into the calabiflow modules.

The benchmark never edits the package.  It replaces public functions and
methods with thin wrappers, in every ``calabiflow.*`` namespace that holds
them (``flow.py`` imports names directly, so ``calabiflow.flow`` carries its
own references), and removes them again afterwards.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span or -1, and ``run_id`` labels the workload pass the span
belongs to.  Spans stay in memory until ``Tracer.write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import weakref


def _calabiflow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "calabiflow" or name.startswith("calabiflow."))]


class Patches:
    """Replace objects in module namespaces and class dicts; undo on exit."""

    def __init__(self):
        self._undo = []

    def function(self, module, name: str, make_wrapper):
        """Wrap ``module.name`` wherever a calabiflow namespace refers to it."""
        orig = getattr(module, name)
        wrapped = make_wrapper(orig)
        for mod in _calabiflow_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped)
        return wrapped

    def method(self, cls, name: str, make_wrapper):
        """Wrap a method, or the getter of a property, on the class itself."""
        orig = cls.__dict__[name]
        if isinstance(orig, property):
            wrapped = property(make_wrapper(orig.fget), orig.fset, orig.fdel, orig.__doc__)
        else:
            wrapped = make_wrapper(orig)
        self._undo.append((cls, name, orig))
        setattr(cls, name, wrapped)

    def undo(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, run_id]
        self.run_id = ""
        self._stack = []
        self._seen = {}          # span name -> WeakSet of first arguments

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block, child of the innermost open one."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, per_object: bool = False):
        """Wrapper factory recording one span per call.

        With ``per_object`` the span is named ``<name>#first`` when the first
        positional argument (the grid or potential) has not been seen before:
        that call is the build behind a per-object cache.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tag = name
                if per_object:
                    seen = self._seen.setdefault(name, weakref.WeakSet())
                    if args[0] not in seen:
                        seen.add(args[0])
                        tag = name + "#first"
                with self.span(tag):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id}) + "\n")


# ---------------------------------------------------------------------------
# which calls are traced, by layer


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of the seven calabiflow modules."""
    import calabiflow.cli as cli
    import calabiflow.curvature as curvature
    import calabiflow.energy as energy
    import calabiflow.flow as flow
    import calabiflow.polytope as polytope
    import calabiflow.potential as potential
    import calabiflow.sobolev as sobolev

    w = tracer.wrap
    for fname in ("build_grid", "boundary_quadrature", "eps_region"):
        patches.function(polytope, fname, w(f"polytope.{fname}"))
    patches.method(polytope.Grid, "field_jets", w("polytope.field_jets", per_object=True))
    patches.method(polytope.Grid, "diff", w("polytope.diff"))
    patches.method(polytope.Grid, "cell_weights", w("polytope.cell_weights"))
    patches.method(polytope.Grid, "boundary_distance", w("polytope.boundary_distance"))

    for fname in ("save_snapshot", "load_snapshot"):
        patches.function(potential, fname, w(f"potential.{fname}"))
    patches.method(potential.SymplecticPotential, "jets", w("potential.jets", per_object=True))
    patches.method(potential.SymplecticPotential, "min_hessian_eigenvalues",
                   w("potential.min_hessian_eigenvalues"))
    patches.method(potential.ClosedForm, "partial", w("potential.closed_form"))

    patches.function(curvature, "curvature_context",
                     w("curvature.curvature_context", per_object=True))
    patches.function(curvature, "weighted_scalar_field",
                     w("curvature.weighted_scalar_field", per_object=True))
    for fname in ("rm2_total_field", "admissible_blocks"):
        patches.function(curvature, fname, w(f"curvature.{fname}"))

    for fname in ("interior_quadrature", "energy_report", "average_scalar"):
        patches.function(energy, fname, w(f"energy.{fname}"))

    for fname in ("step", "proposed_dt", "distance_field", "rhs"):
        patches.function(flow, fname, w(f"flow.{fname}"))
    for mname in ("measure", "write_outputs"):
        patches.method(flow.FlowRun, mname, w(f"flow.{mname}"))

    for fname in ("sobolev_inequality_test", "certify", "fiber_energy_bound"):
        patches.function(sobolev, fname, w(f"sobolev.{fname}"))

    patches.function(cli, "main", w("cli.main"))


LAYERS = ("polytope", "potential", "curvature", "energy", "flow", "sobolev", "cli")


def summarize(spans, run_id: str) -> dict:
    """For one run id: call counts and inclusive seconds per span name (a
    ``#first`` call also counts under its base name), self seconds per layer,
    and call counts inside ``flow.step`` spans."""
    idx = [k for k, s in enumerate(spans) if s[4] == run_id]
    child_time = dict.fromkeys(idx, 0.0)
    for k in idx:
        parent = spans[k][3]
        if parent in child_time:
            child_time[parent] += spans[k][2] - spans[k][1]
    calls, total, in_step = {}, {}, {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    under_step = {}
    for k in idx:
        name, start, end, parent, _ = spans[k]
        base = name.split("#")[0]
        for key in {base, name}:
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (end - start)
        layer = base.split(".")[0]
        if layer in self_s:
            self_s[layer] += (end - start) - child_time[k]
        # a parent span is always recorded before its children
        under_step[k] = parent >= 0 and (under_step.get(parent, False)
                                          or spans[parent][0] == "flow.step")
        if under_step[k]:
            for key in {base, name}:
                in_step[key] = in_step.get(key, 0) + 1
    return {"calls": calls, "total_s": total, "self_s": self_s, "in_step": in_step}
