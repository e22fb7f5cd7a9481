"""Per-layer tracing of bogoflow from outside the program.

The tracer wraps the public functions of the layer modules (and a few
public methods) and records a span -- id, parent id, name, layer, start,
end -- for every call, plus counts at the same boundaries.  Each wrapper is
installed under every name a caller looks it up by: ``solve_dopri`` is
imported by name into ``evolution`` and ``kernels.reference``, so all
bogoflow module attributes bound to the original are replaced, and put
back by ``uninstall``.

Spans are kept in memory per operation; ``op_metrics`` turns one
operation's spans into the per-layer metrics.  A span's own time is its
interval minus the intervals of its child spans; a layer's self time is the
time covered by the own time of its spans.

Threads: a span opened on a thread with no open span of its own (the
worker threads of ``flrw_run``'s pool) takes as parent the innermost open
span of the thread that installed the tracer.
"""

import builtins
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

#: module -> layer
LAYERS = {
    "bogoflow.kernels": "kernels",
    "bogoflow.kernels.reference": "kernels",
    "bogoflow.kernels._dopri": "kernels",
    "bogoflow.integrators": "integrators",
    "bogoflow.evolution": "evolution",
    "bogoflow.coupling": "coupling",
    "bogoflow.spectral": "spectral",
    "bogoflow.perturbation": "perturbation",
    "bogoflow.quadrature": "quadrature",
    "bogoflow.scenarios": "scenarios",
    "bogoflow.scenarios.flrw": "scenarios",
    "bogoflow.scenarios.gw_cavity": "scenarios",
    "bogoflow.cli": "cli",
}

#: (module, class, method, span name) of the public methods that are traced
METHODS = (
    ("bogoflow.spectral", "SliceContext", "gram", "spectral.gram"),
    ("bogoflow.coupling", "DiagonalFamilyDriver", "__call__", "coupling.driver"),
)

_ID, _PARENT, _NAME, _LAYER, _START, _END, _EXTRA = range(7)
_MISSING = object()


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._patches = []
        self.spans = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer, extra=None):
        stack = self._stack()
        if stack:
            parent = stack[-1][_ID]
        elif self._root_stack:
            parent = self._root_stack[-1][_ID]
        else:
            parent = None
        rec = [next(self._ids), parent, name, layer, time.perf_counter(), None,
               extra]
        stack.append(rec)
        return rec

    def end(self, rec):
        rec[_END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def take(self):
        """Hand over and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, layer, extra_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.begin(name, layer,
                               extra_of(args, kwargs) if extra_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(rec)
        return traced

    def _wrap_solve(self, fn, name, layer):
        """solve_dopri: counts steps, rejections, samples and RHS calls."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            extra = {"rhs": 0}
            rec = tracer.begin(name, layer, extra)
            rhs_layer = LAYERS.get(getattr(f, "__module__", None), layer)

            def counted(t, y):
                extra["rhs"] += 1
                r = tracer.begin("rhs", rhs_layer)
                try:
                    return f(t, y)
                finally:
                    tracer.end(r)

            try:
                res = fn(counted, *args, **kwargs)
                t_eval = sig.bind(f, *args, **kwargs).arguments.get("t_eval")
                extra.update(steps=res.n_steps, rejected=res.n_rejected,
                             samples=1 if t_eval is None else len(t_eval))
                return res
            finally:
                tracer.end(rec)
        return traced

    def _wrap_driver_factory(self, fn, name, layer):
        """quadrature_driver: the driver it returns is traced as coupling.driver."""
        tracer = self
        factory = self._wrap(fn, name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._wrap(factory(*args, **kwargs), "coupling.driver",
                                "coupling")
        return traced

    def _make_wrapper(self, fn, attr, layer):
        name = f"{layer}.{attr}"
        if attr == "solve_dopri":
            return self._wrap_solve(fn, name, layer)
        if attr == "quadrature_driver":
            return self._wrap_driver_factory(fn, name, layer)
        if attr == "instantaneous_basis":
            return self._wrap(fn, name, layer, _slice_time)
        if attr in ("axis_rule", "tensor_rule"):
            return self._wrap(fn, name, layer, _rule_order)
        return self._wrap(fn, name, layer)

    def _traced_open(self):
        tracer = self

        def open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if not any(c in mode for c in "wax+"):
                return fh
            return _TracedFile(tracer, fh)
        return open

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            return
        self._root_stack = self._stack()
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "bogoflow" or name.startswith("bogoflow."))}
        wrappers = {}
        for modname, mod in modules.items():
            layer = LAYERS.get(modname)
            if layer is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if not (inspect.isfunction(obj) or inspect.isbuiltin(obj)):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                wrappers[id(obj)] = (obj, self._make_wrapper(obj, attr, layer))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for modname, clsname, meth, span in METHODS:
            cls = getattr(modules[modname], clsname)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(fn, span, LAYERS[modname]))
        self._patch(modules["bogoflow.cli"], "open", self._traced_open())

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class _TracedFile:
    """A file the CLI writes: one cli.output span from open to close."""

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh
        self._rec = tracer.begin("cli.output", "cli", {"bytes": 0})

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._rec is None:
            return
        self._fh.flush()
        self._rec[_EXTRA]["bytes"] = os.fstat(self._fh.fileno()).st_size
        self._fh.close()
        self._tracer.end(self._rec)
        self._rec = None


def _slice_time(args, kwargs):
    return {"t": float(kwargs["t"] if "t" in kwargs else args[2])}


def _rule_order(args, kwargs):
    return {"order": int(kwargs["order"] if "order" in kwargs else args[0])}


# ---------------------------------------------------------------------------
# metrics


def _union(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def _measure(intervals):
    return sum(b - a for a, b in _union(intervals))


#: per-layer metrics derived from one operation's spans, in report order;
#: ``quadrature.*`` are taken from the first operation (cold caches)
METRICS = (
    "kernels.calls", "kernels.busy_s", "kernels.self_s",
    "integrators.solves", "integrators.accepted_steps",
    "integrators.rejected_steps", "integrators.rhs_evals",
    "integrators.steps_per_sample", "integrators.busy_s",
    "integrators.self_s",
    "evolution.calls", "evolution.busy_s", "evolution.identity_checks",
    "evolution.identity_s", "evolution.self_s",
    "coupling.driver_calls", "coupling.driver_s", "coupling.stencil_calls",
    "coupling.stencil_s", "coupling.assembly_s", "coupling.self_s",
    "spectral.basis_solves", "spectral.solve_s",
    "spectral.distinct_slices_per_solve", "spectral.align_calls",
    "spectral.align_s", "spectral.gram_calls", "spectral.gram_s",
    "spectral.self_s",
    "perturbation.window_calls", "perturbation.window_s",
    "perturbation.coupling_s", "perturbation.scan_s", "perturbation.self_s",
    "quadrature.rule_builds", "quadrature.rule_s", "quadrature.max_order",
    "scenarios.runs", "scenarios.self_s",
    "cli.runs", "cli.convergence_s", "cli.output_s", "cli.output_bytes",
    "cli.self_s",
    "trace.spans",
)

SELF_LAYERS = ("kernels", "integrators", "evolution", "coupling", "spectral",
               "perturbation", "scenarios", "cli")


def op_metrics(spans):
    """Per-layer metrics of one operation from its spans."""
    by_name = defaultdict(list)
    by_layer = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[_NAME]].append(s)
        by_layer[s[_LAYER]].append(s)
        children[s[_PARENT]].append(s)
    parent_name = {s[_ID]: s[_NAME] for s in spans}

    def own_time(s):
        """Pieces of s's interval that none of its children cover."""
        pieces, cursor = [], s[_START]
        for a, b in _union([(c[_START], c[_END]) for c in children[s[_ID]]]):
            if a > cursor:
                pieces.append((cursor, a))
            cursor = max(cursor, b)
        if s[_END] > cursor:
            pieces.append((cursor, s[_END]))
        return pieces

    def span_time(group):
        return _measure([(s[_START], s[_END]) for s in group])

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_time(group):
        return _measure([p for s in group for p in own_time(s)])

    m = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_time(by_layer[layer])

    kernel_calls = [s for s in named("kernels.pair_evolution")
                    if parent_name.get(s[_PARENT]) != "kernels.pair_evolution"]
    m["kernels.calls"] = len(kernel_calls)
    m["kernels.busy_s"] = span_time(by_layer["kernels"])

    solves = named("integrators.solve_dopri")
    steps = sum(s[_EXTRA].get("steps", 0) for s in solves)
    samples = sum(s[_EXTRA].get("samples", 0) for s in solves)
    m["integrators.solves"] = len(solves)
    m["integrators.accepted_steps"] = steps
    m["integrators.rejected_steps"] = sum(s[_EXTRA].get("rejected", 0)
                                          for s in solves)
    m["integrators.rhs_evals"] = sum(s[_EXTRA]["rhs"] for s in solves)
    m["integrators.steps_per_sample"] = steps / samples if samples else 0.0
    m["integrators.busy_s"] = span_time(solves)

    evolves = named("evolution.evolve_Q", "evolution.evolve_U")
    ident = named("evolution.identity_residual")
    m["evolution.calls"] = len(evolves)
    m["evolution.busy_s"] = span_time(by_layer["evolution"])
    m["evolution.identity_checks"] = len(ident)
    m["evolution.identity_s"] = span_time(ident)

    drivers = named("coupling.driver")
    stencils = named("coupling.basis_derivatives")
    m["coupling.driver_calls"] = len(drivers)
    m["coupling.driver_s"] = span_time(drivers)
    m["coupling.stencil_calls"] = len(stencils)
    m["coupling.stencil_s"] = span_time(stencils)
    m["coupling.assembly_s"] = self_time(named("coupling.coupling_matrices"))

    bases = named("spectral.instantaneous_basis")
    aligns = named("spectral.align_basis")
    grams = named("spectral.gram")
    m["spectral.basis_solves"] = len(bases)
    m["spectral.solve_s"] = span_time(bases)
    m["spectral.distinct_slices_per_solve"] = (
        len({s[_EXTRA]["t"] for s in bases}) / len(bases) if bases else 0.0)
    m["spectral.align_calls"] = len(aligns)
    m["spectral.align_s"] = span_time(aligns)
    m["spectral.gram_calls"] = len(grams)
    m["spectral.gram_s"] = span_time(grams)

    windows = named("perturbation.window_coefficients")
    m["perturbation.window_calls"] = len(windows)
    m["perturbation.window_s"] = span_time(windows)
    m["perturbation.coupling_s"] = span_time(named(
        "perturbation.delta_coupling_from_modes",
        "perturbation.delta_coupling_operator_form"))
    m["perturbation.scan_s"] = span_time(named("perturbation.resonance_scan"))

    rules = named("quadrature.axis_rule", "quadrature.tensor_rule")
    m["quadrature.rule_s"] = span_time(by_layer["quadrature"])
    m["quadrature.max_order"] = max((s[_EXTRA]["order"] for s in rules),
                                    default=0)

    m["scenarios.runs"] = len([s for s in by_layer["scenarios"]
                               if s[_NAME].endswith("_run")])

    runs = named("cli.run")
    convergence = []
    for run in runs:
        reruns = sorted((c for c in by_layer["scenarios"]
                         if c[_PARENT] == run[_ID] and c[_NAME].endswith("_run")),
                        key=lambda c: c[_START])
        convergence.extend(reruns[1:])
    outputs = named("cli.output")
    m["cli.runs"] = len(runs)
    m["cli.convergence_s"] = span_time(convergence)
    m["cli.output_s"] = span_time(outputs)
    m["cli.output_bytes"] = sum(s[_EXTRA]["bytes"] for s in outputs)
    m["trace.spans"] = len(spans)
    return m


def compact(spans):
    """Spans as [id, parent, name, start, end] lists for writing out."""
    return [[s[_ID], s[_PARENT], s[_NAME], s[_START], s[_END]] for s in spans]
