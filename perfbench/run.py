"""Benchmark of slhyper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  BLAS thread counts are pinned in the environment before the
interpreter that does the work starts (the process re-executes itself once
when they are not).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it holds the full record of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(("measure_build", "spectral_sums",
                                    "kernel_sweep", "cli_session")))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "slhyper" / "__init__.py").is_file():
        print("perfbench: ./src/slhyper not found; run from the repository root",
              file=sys.stderr)
        return 2
    if any(os.environ.get(v) != harness.BLAS_THREADS for v in harness.THREAD_VARS):
        env = dict(os.environ, **{v: harness.BLAS_THREADS
                                  for v in harness.THREAD_VARS})
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    rec = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      root)

    print(json.dumps(rec, default=float))
    if args.trace:
        import spans
        metrics = {m: {"value": v, "unit": spans.unit_of(m)}
                   for m, v in rec["per_layer"].items()}
    else:
        metrics = {m: {"value": rec[m], "unit": u}
                   for m, u in harness.E2E_METRICS.items()}
    correct = rec["failed"] == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
