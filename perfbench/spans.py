"""Span recording around calls into the slhyper modules.

The tracer wraps, from outside the package, the functions and methods that
one slhyper module calls in another, plus the two foreign solvers whose work
dominates (``solve_ivp`` in ``kernel``, ``eigh_tridiagonal`` in
``spectral``).  Modules import by name, so each function is replaced in every
module namespace that binds it.  Each call becomes a span (name, start, end,
parent) kept in flat arrays; a layer's self time is its spans' durations
minus the time covered by their direct children.

Nothing is wrapped until ``install`` runs, and ``uninstall`` restores every
original binding, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("expr", "operator", "kernel", "spectral", "hconv", "cauchy",
          "inteq", "cli")

# module -> functions to wrap wherever they are bound
FUNCTIONS = {
    "expr": ("parse_expression",),
    "operator": ("load_operator", "builtin_operator", "build_standard_form",
                 "certify_mp", "support_params", "check_left_boundary"),
    "spectral": ("build_spectral_measure", "forward_transform",
                 "inverse_transform", "heat_kernel", "heat_kernel_grid",
                 "bump_function"),
    "hconv": ("product_density", "product_formula_residual", "approx_nu",
              "translate", "convolve_functions", "convolve_measures",
              "classify_support", "default_xi_grid"),
    "cauchy": ("solve_cauchy", "solve_cauchy_shifted",
               "triangle_identity_residual", "positivity_report"),
    "inteq": ("l1_kappa_norm", "wiener_levy_check", "resolvent_kernel",
              "solve_equation", "solve_qt_equation"),
    "cli": ("main",),
}

# module -> class -> methods; class attributes are shared by every importer
METHODS = {
    "expr": {"CoefficientExpr": ("__call__", "diff", "derivative")},
    "operator": {"OperatorSpec": ("validate",),
                 "StandardForm": ("__init__", "gamma", "gamma_grid",
                                  "gamma_inv", "A", "dA_over_2A"),
                 "MpCertificate": ("phi_eta", "psi_eta")},
    "kernel": {"KernelEvaluator": ("__init__", "eval_grid", "eval_w",
                                   "eval_w_shifted", "_series_at")},
    "spectral": {"SpectralMeasure": ("w_values", "cumulative")},
    "cauchy": {"CauchySolution": ("__call__", "pde_residual")},
    "cli": {"Emitter": ("csv", "json")},
}

# (module, name) of foreign callables wrapped as bound in that module
FOREIGN = (("kernel", "solve_ivp"), ("spectral", "eigh_tridiagonal"))

PER_LAYER_METRICS = (
    "expr.calls", "expr.scalar_calls", "expr.self_s",
    "operator.calls", "operator.self_s", "operator.gamma_inv_calls",
    "operator.certify_s",
    "kernel.calls", "kernel.self_s", "kernel.ode_solves", "kernel.ode_nfev",
    "kernel.ode_s", "kernel.lambdas", "kernel.series_calls", "kernel.init_s",
    "spectral.calls", "spectral.self_s", "spectral.build_s", "spectral.atoms",
    "spectral.eigensolve_s", "spectral.eigensolve_n",
    "spectral.w_values_calls", "spectral.w_values_points",
    "spectral.w_values_s",
    "hconv.calls", "hconv.self_s", "hconv.product_density_calls",
    "hconv.qt_cache_hit_ratio",
    "cauchy.calls", "cauchy.self_s",
    "inteq.calls", "inteq.self_s", "inteq.strip_samples",
    "cli.calls", "cli.self_s", "cli.emit_s", "cli.import_s",
    "bench.unattributed_s", "bench.trace_overhead_s",
)

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


# metric -> span names whose durations it sums
_DURATIONS = {
    "kernel.ode_s": ("kernel.solve_ivp",),
    "kernel.init_s": ("kernel.KernelEvaluator.__init__",),
    "spectral.build_s": ("spectral.build_spectral_measure",),
    "spectral.eigensolve_s": ("spectral.eigh_tridiagonal",),
    "spectral.w_values_s": ("spectral.SpectralMeasure.w_values",),
    "operator.certify_s": ("operator.certify_mp",),
    "cli.emit_s": ("cli.Emitter.csv", "cli.Emitter.json"),
}


def self_times(parents, starts, ends) -> np.ndarray:
    """Self time of every span: its duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children lie inside their parent's interval, so this is the part of the
    interval no child covers.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has = parents >= 0
    child = np.bincount(parents[has], weights=dur[has], minlength=len(dur))
    return dur - child


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(names, name_ids, parents, starts, ends, counts) -> dict:
    """Per-layer metrics of one recorded interval.

    ``calls`` counts spans entered from another layer (or from the
    benchmark); ``self_s`` sums self times; ``bench.unattributed_s`` is the
    self time of the benchmark's own root spans, so the layer self times
    plus it equal the summed root durations.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    layer_idx = {layer: i for i, layer in enumerate(("bench",) + LAYERS)}
    name_layer = np.array([layer_idx[layer_of(n)] for n in names] or [0],
                          dtype=np.int64)
    span_layer = name_layer[name_ids] if len(name_ids) else name_ids
    parent_layer = np.where(parents >= 0,
                            span_layer[np.maximum(parents, 0)] if len(parents) else parents,
                            -1)
    selfs = self_times(parents, starts, ends)
    dur = ends - starts
    out = {}
    for layer in ("bench",) + LAYERS:
        mine = span_layer == layer_idx[layer]
        out[f"{layer}.calls"] = int(np.sum(mine & (parent_layer != layer_idx[layer])))
        out[f"{layer}.self_s"] = float(np.sum(selfs[mine]))
    for metric, span_names in _DURATIONS.items():
        ids = [i for i, n in enumerate(names) if n in span_names]
        out[metric] = float(np.sum(dur[np.isin(name_ids, ids)]))
    w_id = [i for i, n in enumerate(names) if n == "spectral.SpectralMeasure.w_values"]
    out["spectral.w_values_calls"] = int(np.sum(np.isin(name_ids, w_id)))
    out["bench.unattributed_s"] = out.pop("bench.self_s")
    out.pop("bench.calls")
    out.update(counts)
    pd_calls = counts.get("hconv.product_density_calls", 0)
    out["hconv.qt_cache_hit_ratio"] = (counts.get("hconv.qt_cache_hits", 0) / pd_calls
                                       if pd_calls else 0.0)
    out.pop("hconv.qt_cache_hits", None)
    return out


class Tracer:
    """Collects spans and counters while installed and ``active``; the
    harness clears ``active`` while it checks outputs, so the library calls
    a check makes are not attributed to the workload."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module object
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._restore: list = []
        self._qt_seen: dict = {}
        self.active = False
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _parent_layer(self) -> str:
        if not self._stack:
            return "bench"
        return layer_of(self.names[self.name_ids[self._stack[-1]]])

    def enter(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self._id(name))

    def snapshot(self) -> dict:
        return layer_metrics(self.names, self.name_ids, self.parents,
                             self.starts, self.ends, dict(self.counts))

    def arrays(self) -> dict:
        return {"name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
                "starts": np.frombuffer(self.starts, dtype=float).copy(),
                "ends": np.frombuffer(self.ends, dtype=float).copy()}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        tracer = self
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            caller = tracer._parent_layer()
            i = tracer.enter(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(i)
            if hook is not None:
                hook(tracer, caller, args, out)
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = self.modules
        for short, fnames in FUNCTIONS.items():
            for fname in fnames:
                fn = getattr(mods[short], fname, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, f"{short}.{fname}", _HOOKS.get(fname))
                for mod in mods.values():
                    if mod.__dict__.get(fname) is fn:
                        self._replace(mod, fname, wrapped)
        for short, classes in METHODS.items():
            for cname, methods in classes.items():
                cls = getattr(mods[short], cname, None)
                for meth in methods if cls is not None else ():
                    fn = cls.__dict__.get(meth)
                    if fn is None:
                        continue
                    wrapped = self._wrap(fn, f"{short}.{cname}.{meth}",
                                         _HOOKS.get(f"{cname}.{meth}"))
                    self._replace(cls, meth, wrapped)
        for short, fname in FOREIGN:
            fn = mods[short].__dict__.get(fname)
            if fn is not None:
                self._replace(mods[short], fname,
                              self._wrap(fn, f"{short}.{fname}", _HOOKS.get(fname)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


class _Span:
    __slots__ = ("tracer", "name_id", "i")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.i = self.tracer.enter(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.i)
        return False


# -- counters read at the layer boundaries ------------------------------------


def _expr_call(tr, caller, args, out):
    if np.ndim(args[1]) == 0:
        tr.counts["expr.scalar_calls"] += 1


def _kernel_entry(tr, caller, args, out):
    if caller != "kernel":
        tr.counts["kernel.lambdas"] += 1


def _series_at(tr, caller, args, out):
    if caller == "spectral":
        tr.counts["kernel.series_calls"] += 1


def _solve_ivp(tr, caller, args, out):
    tr.counts["kernel.ode_solves"] += 1
    tr.counts["kernel.ode_nfev"] += int(getattr(out, "nfev", 0))


def _eigh(tr, caller, args, out):
    tr.counts["spectral.eigensolve_n"] += len(args[0])


def _build(tr, caller, args, out):
    tr.counts["spectral.atoms"] += len(out)


def _w_values(tr, caller, args, out):
    tr.counts["spectral.w_values_points"] += int(np.size(args[1]))


def _product_density(tr, caller, args, out):
    # a cache hit hands back an object an earlier call returned; the
    # references are held so that ids stay unique
    tr.counts["hconv.product_density_calls"] += 1
    if tr._qt_seen.get(id(out)) is out:
        tr.counts["hconv.qt_cache_hits"] += 1
    tr._qt_seen[id(out)] = out


def _wiener_levy(tr, caller, args, out):
    tr.counts["inteq.strip_samples"] += int(out.n_samples)


def _gamma_inv(tr, caller, args, out):
    tr.counts["operator.gamma_inv_calls"] += 1


_HOOKS = {
    "CoefficientExpr.__call__": _expr_call,
    "KernelEvaluator.eval_grid": _kernel_entry,
    "KernelEvaluator.eval_w": _kernel_entry,
    "KernelEvaluator.eval_w_shifted": _kernel_entry,
    "KernelEvaluator._series_at": _series_at,
    "solve_ivp": _solve_ivp,
    "eigh_tridiagonal": _eigh,
    "build_spectral_measure": _build,
    "SpectralMeasure.w_values": _w_values,
    "product_density": _product_density,
    "wiener_levy_check": _wiener_levy,
    "StandardForm.gamma_inv": _gamma_inv,
}


def median_metrics(snapshots: list[dict]) -> dict:
    """Per-metric median over traced passes."""
    keys = set().union(*snapshots) if snapshots else set()
    return {k: statistics.median(s.get(k, 0) for s in snapshots) for k in keys}
