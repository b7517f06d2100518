"""Tests of the benchmark's own code: seeded inputs, span arithmetic and
failure accounting.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    for k in (0, 3):
        assert _same(wl.pass_inputs(11, k), wl.pass_inputs(11, k))


@pytest.mark.parametrize("name", ["measure_build", "spectral_sums",
                                  "kernel_sweep", "cli_session"])
def test_other_seed_or_pass_other_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert not _same(wl.pass_inputs(11, 0), wl.pass_inputs(12, 0))
    assert not _same(wl.pass_inputs(11, 0), wl.pass_inputs(11, 1))


def test_stratified_log_covers_every_bin():
    lams = workloads.stratified_log(np.random.default_rng(0), 1e-2, 1e3, 5)
    assert np.all(np.floor(np.log10(lams)) == np.arange(-2, 3))


def test_self_time_on_hand_built_tree():
    # root [0, 10] (bench) -> a [1, 7] (spectral) -> b [2, 5] (kernel)
    #                                              -> c [5.5, 6] (kernel)
    #                      -> d [8, 9] (kernel)
    names = ["bench.op", "spectral.x", "kernel.y"]
    name_ids = [0, 1, 2, 2, 2]
    parents = [-1, 0, 1, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.5, 8.0]
    ends = [10.0, 7.0, 5.0, 6.0, 9.0]
    np.testing.assert_allclose(spans.self_times(parents, starts, ends),
                               [3.0, 2.5, 3.0, 0.5, 1.0])
    m = spans.layer_metrics(names, name_ids, parents, starts, ends, {})
    assert m["bench.unattributed_s"] == pytest.approx(3.0)
    assert m["spectral.self_s"] == pytest.approx(2.5)
    assert m["kernel.self_s"] == pytest.approx(4.5)
    assert m["spectral.calls"] == 1 and m["kernel.calls"] == 3
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total + m["bench.unattributed_s"] == pytest.approx(10.0)


def test_same_layer_nesting_counts_one_call():
    names = ["bench.op", "kernel.outer", "kernel.inner"]
    m = spans.layer_metrics(names, [0, 1, 2], [-1, 0, 1], [0.0, 1.0, 2.0],
                            [4.0, 3.0, 2.5], {})
    assert m["kernel.calls"] == 1
    assert m["kernel.self_s"] == pytest.approx(2.0)


def test_tracer_wraps_and_restores():
    import types
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    mod.leaf = leaf
    tracer = spans.Tracer({"kernel": mod})
    tracer._replace(mod, "leaf", tracer._wrap(leaf, "kernel.leaf"))
    tracer.active = True
    with tracer.span("bench.op"):
        assert mod.leaf(1) == 2
    tracer.active = False
    tracer.uninstall()
    assert mod.leaf is leaf
    snap = tracer.snapshot()
    assert snap["kernel.calls"] == 1


def test_wrong_output_counted_as_failure():
    xs = np.linspace(0.0, 5.0, 11)
    good = Op("kernel", lambda: np.cos(2.0 * xs),
              lambda w: oracles.kernel_cosine(4.0, xs, w))
    wrong = Op("kernel", lambda: np.cos(2.0 * xs) + 1e-6,
               lambda w: oracles.kernel_cosine(4.0, xs, w))

    def boom():
        raise ValueError("non-positive atom mass")

    raises = Op("build", boom, lambda out: 0.0)
    passes = [harness.PassRecord(False, [harness.run_op(op)])
              for op in (good, wrong, raises)]
    s = harness.summarize(passes)
    assert [p.ops[0].status for p in passes] == ["ok", "fail", "error"]
    assert s["attempted"] == 3 and s["failed"] == 2
    assert s["fail_frac"] == pytest.approx(2 / 3)
    assert s["oracle_err_ratio"] == pytest.approx(1e-6 / 1e-8, rel=1e-3)


def test_known_defect_counted_apart():
    def check(out):
        raise oracles.KnownDefect("documented")

    passes = [harness.PassRecord(False, [harness.run_op(Op("x", lambda: 1, check))])]
    s = harness.summarize(passes)
    assert s["failed"] == 0 and s["known_defects"] == 1
    assert s["fail_frac"] == 1.0


def test_not_a_number_is_a_failure():
    rec = harness.run_op(Op("x", lambda: None, lambda out: math.nan))
    assert rec.status == "fail"


def test_cli_oracle_rejects_changed_bytes():
    assert oracles.identical(b"a,b\n", b"a,b\n") == 0.0
    assert oracles.identical(b"a,b\n", b"a,c\n") > 1.0


def test_percentile_nearest_rank():
    vals = list(range(1, 101))
    assert harness.percentile(vals, 90) == 90
    assert harness.percentile(vals, 50) == 50
