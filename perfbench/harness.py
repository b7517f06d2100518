"""Closed-loop runner: one client, one operation at a time.

A run imports the library, sets the workload up ``SETUP_REPS`` times, then
runs timed passes over the workload's fixed operation list until the
requested seconds have elapsed (at least one pass).  Every operation's
output is checked after its timing stops.  With tracing on, passes
alternate untraced and traced, and the per-layer metrics come from the
traced ones.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SETUP_REPS = 3
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
               "peak_rss_mb": "MB"}


@dataclass
class OpRecord:
    name: str
    seconds: float
    ratio: float            # observed error / tolerance; nan if not checked
    status: str             # ok | fail | error | known_defect
    detail: str = ""


@dataclass
class PassRecord:
    traced: bool
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)


def run_op(op, tracer=None) -> OpRecord:
    """Time one operation, then check its output.  Raising, a check ratio
    above one (or not a number) and a failing check all count as failures;
    nothing is retried."""
    # imported here: run.py imports this module before the timed import of
    # numpy, which oracles needs
    from oracles import KnownDefect

    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            tracer.active = True
            try:
                with tracer.span(f"bench.{op.name}"):
                    out = op.call()
            finally:
                tracer.active = False
    except Exception as exc:  # every failure of the program is counted
        return OpRecord(op.name, time.perf_counter() - t0, math.nan, "error",
                        f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        ratio = float(op.check(out))
    except KnownDefect as exc:
        return OpRecord(op.name, seconds, math.nan, "known_defect", str(exc))
    except Exception as exc:
        return OpRecord(op.name, seconds, math.nan, "error",
                        f"check {type(exc).__name__}: {exc}")
    return OpRecord(op.name, seconds, ratio, "ok" if ratio <= 1.0 else "fail",
                    "" if ratio <= 1.0 else f"error ratio {ratio:.3g}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def summarize(passes: list[PassRecord]) -> dict:
    """Counts and error ratios over every pass; timings over untraced ones."""
    records = [r for p in passes for r in p.ops]
    plain = [p for p in passes if not p.traced]
    lat = [r.seconds for p in plain for r in p.ops]
    failed = [r for r in records if r.status in ("fail", "error")]
    known = [r for r in records if r.status == "known_defect"]
    ratios = [r.ratio for r in records if not math.isnan(r.ratio)]
    out = {
        "attempted": len(records),
        "failed": len(failed),
        "known_defects": len(known),
        "fail_frac": (len(failed) + len(known)) / len(records),
        "oracle_err_ratio": max(ratios) if ratios else math.nan,
        "passes": len(plain),
        "op_samples": len(lat),
        "failures": sorted({f"{r.name}: {r.detail}" for r in failed + known}),
        "op_median_s": {name: statistics.median(r.seconds for p in plain for r in p.ops
                                                if r.name == name)
                        for name in dict.fromkeys(r.name for p in plain for r in p.ops)},
    }
    if lat:
        out["wall_s"] = statistics.median(p.seconds for p in plain)
        out["op_p50_s"] = statistics.median(lat)
        # p90 needs ten samples beyond it
        out["op_p90_s"] = percentile(lat, 90) if len(lat) >= 100 else None
    return out


def peak_rss_mb(kind: str) -> float:
    who = resource.RUSAGE_CHILDREN if kind == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed: int, root: Path) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(root)}


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git when there is one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        return _run(workload, seed, seconds, traced, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, traced, root: Path, work: Path) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import workloads
    lib = workloads.load_library()
    import_s = time.perf_counter() - t0

    import spans
    wl = workloads.WORKLOADS[workload]
    ctx = {"workdir": work, "env": workloads.env_for_children(root / "src")}
    tracer = spans.Tracer(vars(lib)) if traced else None

    setup_times = []
    state = None
    setup_trace = {}
    for rep in range(SETUP_REPS):
        state = None
        trace_this = tracer is not None and rep == SETUP_REPS - 1
        if trace_this:
            tracer.install()
            tracer.active = True
        t = time.perf_counter()
        try:
            state = wl.setup(lib, ctx)
        finally:
            setup_times.append(time.perf_counter() - t)
            if trace_this:
                tracer.active = False
                tracer.uninstall()
                setup_trace = tracer.snapshot()
                tracer.reset()
    setup_s = import_s + statistics.median(setup_times)

    passes: list[PassRecord] = []
    snapshots, span_dump = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        trace_pass = tracer is not None and k % 2 == 1
        inputs = wl.pass_inputs(seed, k)
        ops = wl.ops(lib, state, inputs, {**ctx, "in_process": trace_pass})
        rec = PassRecord(traced=trace_pass)
        if trace_pass:
            tracer.install()
        try:
            for op in ops:
                rec.ops.append(run_op(op, tracer if trace_pass else None))
        finally:
            if trace_pass:
                tracer.uninstall()
        if trace_pass:
            snapshots.append(tracer.snapshot())
            span_dump.append(tracer.arrays())
            tracer.reset()
        passes.append(rec)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k >= 2):
            break

    summary = summarize(passes)
    result = {"workload": workload, "setup_s": setup_s, "import_s": import_s,
              "setup_reps": setup_times,
              "peak_rss_mb": peak_rss_mb(wl.rss), **summary,
              "env": environment(seed, root)}
    if tracer is not None:
        layer = spans.median_metrics(snapshots)
        layer["kernel.init_s"] = (layer.get("kernel.init_s", 0.0)
                                  + setup_trace.get("kernel.init_s", 0.0))
        traced_walls = [p.seconds for p in passes if p.traced]
        layer["bench.trace_overhead_s"] = (statistics.median(traced_walls)
                                           - summary["wall_s"])
        layer["cli.import_s"] = (wl.import_probe(ctx) if hasattr(wl, "import_probe")
                                 else 0.0)
        result["per_layer"] = {m: layer.get(m, 0) for m in spans.PER_LAYER_METRICS}
        result["trace_file"] = write_spans(root, workload, seed, tracer.names,
                                           span_dump)
    return result


def write_spans(root: Path, workload: str, seed: int, names, dumps) -> str:
    """Write the traced passes' spans (name, start, end, parent) to one file."""
    import json
    import numpy as np
    path = root / ".bench_out" / f"spans-{workload}-seed{seed}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"pass{i}_{key}": val for i, d in enumerate(dumps)
              for key, val in d.items()}
    np.savez_compressed(path, names=np.array(json.dumps(names)), **arrays)
    return str(path.relative_to(root))
