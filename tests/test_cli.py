"""Command line front end: output formats, exit codes, determinism, and
config file handling."""

import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slhyper
from slhyper.cli import _EigenPair, main
from slhyper.kernel import KernelEvaluator
from slhyper.operator import builtin_operator, build_standard_form, load_operator
from slhyper.spectral import (SpectralMeasure, build_spectral_measure,
                              heat_kernel_grid)

# a small measure, cheap to build
SMALL = ["--N", "512", "--lambda-max", "100"]


def run(args):
    return main(list(args))


def _write_bump(path, top=12.0, n=601, center=4.0, width=1.5):
    xs = np.linspace(0.0, top, n)
    u = np.clip(np.abs(xs - center) / width, 0.0, 1.0)
    vals = np.where(u < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - u ** 2)), 0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for x, v in zip(xs, vals):
            fh.write(f"{x},{v}\n")
    return path


def test_validate_json_fields(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["left_boundary"]["finite"]
    assert doc["mp_certified"]
    assert all(doc["checks"].values())
    assert doc["operator"] == "cosine"
    assert "config" in doc["meta"]


@pytest.mark.parametrize("op, violations", [
    ("bessel-0.75", ["phi_decreasing"]), ("builtin:cosine", [])])
def test_validate_names_where_a_check_fails(op, violations, tmp_path):
    """validate maps each failed MP check to the first probe x where it
    fails.  Bessel-Kingman alpha = -0.75, p = r = x^-0.5, has A'/(2A) =
    -1/(4x), which rises at every probe; cosine is certified."""
    if not op.startswith("builtin:"):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"name": op, "a": 0.0, "b": "inf",
                                    "p": "x^-0.5", "r": "x^-0.5"}))
        op = str(path)
    out = tmp_path / "v.json"
    assert run(["validate", "--op", op, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["violations"]) == violations
    assert violations == [k for k, ok in doc["checks"].items() if not ok]
    assert doc["mp_certified"] == (violations == [])
    for x in doc["violations"].values():
        assert 0.0 < x < 1e-6


def test_kernel_csv_oracle(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["kernel", "--lambda", "4.0,9.0", "--x", "0:3:7",
                "--out", str(out), "--precision", "15"])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    lams, xs, ws = body[:, 0], body[:, 2], body[:, 3]
    assert np.array_equal(lams, np.repeat([4.0, 9.0], 7))
    assert np.allclose(ws, np.cos(np.sqrt(lams) * xs), rtol=0, atol=1e-9)


def test_output_header_has_config_hash(tmp_path):
    out = tmp_path / "s.csv"
    run(["spectrum", "--N", "256", "--lambda-max", "50", "--out", str(out)])
    first = out.read_text().splitlines()[0]
    assert first.startswith("# slhyper ")
    assert "config" in first


def test_spectrum_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--N", "256", "--lambda-max", "50"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_support_case_a(tmp_path):
    out = tmp_path / "sup.json"
    code = run(["support", "--x", "3.0", "--y", "1.0",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "a"
    ints = sorted(doc["support"])
    assert ints[0][0] == pytest.approx(2.0, abs=1e-9)
    assert ints[1][1] == pytest.approx(4.0, abs=1e-9)


def test_transform_roundtrip_numbers(tmp_path):
    h = _write_bump(tmp_path / "h.csv")
    out = tmp_path / "t.csv"
    code = run(["transform", "--h", str(h), "--N", "1024",
                "--lambda-max", "400", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) > 10


def test_triangle_with_repeated_kernel_nodes(tmp_path):
    # these inputs map two quadrature nodes to the same kernel point
    out = tmp_path / "tri.json"
    code = run(["triangle", "--c", "0.370262", "--x", "3.363179",
                "--y", "1.541461", "--lam", "2.0", "--n", "12",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(np.isfinite(v) for v in doc.values() if isinstance(v, float))


def _counted_eigen_pair(op, lam):
    """_EigenPair on a builtin operator, with the sizes of its eval_grid
    calls."""
    spec = builtin_operator(op)
    ev = KernelEvaluator(spec)
    calls = []
    eval_grid = ev.eval_grid

    def counted(lam, xs):
        calls.append(len(xs))
        return eval_grid(lam, xs)

    ev.eval_grid = counted
    return _EigenPair(ev, build_standard_form(spec), lam), calls


def test_eigen_pair_cosine_closed_form():
    # c = 1 and gamma(x) = x - 1, so u(xi) = cos(sqrt(lam) (xi + 1))
    lam = 2.0
    rt = np.sqrt(lam)
    v, calls = _counted_eigen_pair("cosine", lam)
    xi = np.linspace(-0.5, 3.0, 35).reshape(5, 7)
    zeta = np.linspace(-0.8, 1.5, 5)[:, None]

    def u(s):
        return (np.cos(rt * (s + 1.0)), -rt * np.sin(rt * (s + 1.0)),
                -lam * np.cos(rt * (s + 1.0)))

    (ux, ux1, ux2), (uz, uz1, uz2) = u(xi), u(zeta)
    for got, want in ((v(xi, zeta), ux * uz), (v.d_xi(xi, zeta), ux1 * uz),
                      (v.d_zeta(xi, zeta), ux * uz1),
                      (v.dd_xi(xi, zeta), ux2 * uz),
                      (v.dd_zeta(xi, zeta), ux * uz2)):
        assert got.shape == (5, 7)
        assert np.allclose(got, want, rtol=0.0, atol=1e-8)
    # one evaluation per distinct point set, kept for every later call
    assert calls == [35, 5]


def test_eigen_pair_nearly_equal_targets():
    # the volume block of the triangle c=0.5, x=3, y=1.5 at n=40 holds
    # targets an ulp apart; on Whittaker some of their roots come out of
    # gamma_inv out of order, and each distinct point set is still one
    # eval_grid
    v, calls = _counted_eigen_pair("whittaker?alpha=0.25&kappa=1.0", 2.0)
    z = np.linspace(0.5, 1.5, 41)
    xi = np.linspace(1.5 + z, 4.5 - z, 41, axis=1)
    vals = v.dd_xi(xi, z[:, None])
    assert np.all(np.isfinite(vals))
    assert calls == [len(np.unique(xi)), len(z)]


@pytest.mark.parametrize("grid", ["3,1,2,4,5,6", "3", "0:6:1"])
def test_cauchy_rejects_bad_grid(grid, tmp_path, capsys, monkeypatch):
    # the grid is checked before the measure is built
    def no_build(*args, **kwargs):
        raise AssertionError("measure built before the grid was checked")

    monkeypatch.setattr("slhyper.spectral.build_spectral_measure", no_build)
    h = _write_bump(tmp_path / "h.csv")
    assert run(["cauchy", "--h", str(h), "--grid", grid, *SMALL,
                "--out", str(tmp_path / "c.csv")]) == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_one_point_grid_either_way(tmp_path, capsys):
    """start:stop:count takes a count of 1, as a comma list takes one
    point: --x-grid 0:1:1 writes the rows of --x-grid 0 (the header's
    config digest hashes the flag as written).  A count of 0 is an
    error."""
    rows = []
    for grid in ("0:1:1", "0"):
        out = tmp_path / f"p{len(rows)}.csv"
        assert run(["heatkernel", "--t", "0.5", "--x-grid", grid,
                    "--y-grid", "0:3:13", *SMALL, "--out", str(out)]) == 0
        rows.append(out.read_text().splitlines()[1:])
    assert rows[0] == rows[1] and len(rows[0]) == 14
    assert run(["heatkernel", "--t", "0.5", "--x-grid", "0:1:0",
                "--y-grid", "1.0", *SMALL]) == 1
    assert capsys.readouterr().err == (
        "slhyper: error: grid needs at least 1 point\n")


def test_bad_usage_exit_2(capsys):
    assert run(["kernel", "--x", "0:3:7"]) == 2      # missing --lambda
    assert run(["no-such-command"]) == 2
    # a flag the command does not read
    assert run(["validate", "--N", "256"]) == 2
    assert run(["support", "--x", "3", "--y", "1", "--lambda-max", "50"]) == 2
    assert run(["selftest", "--op", "builtin:nonsense"]) == 2
    capsys.readouterr()


# every command with its required flags, and the one format it does not write
WRONG_FORMAT = {
    "validate": ([], "csv"),
    "kernel": (["--lambda", "4.0", "--x", "0:1:2"], "json"),
    "spectrum": ([], "json"),
    "transform": (["--h", "h.csv"], "json"),
    "heatkernel": (["--t", "1", "--x-grid", "1", "--y-grid", "1"], "json"),
    "product": (["--t", "1", "--x", "1", "--y", "1"], "json"),
    "translate": (["--h", "h.csv", "--y", "1"], "json"),
    "convolve": (["--h", "h.csv", "--g", "h.csv"], "json"),
    "support": (["--x", "3", "--y", "1"], "csv"),
    "cauchy": (["--h", "h.csv", "--grid", "0:1:2"], "json"),
    "triangle": (["--c", "0.5", "--x", "3", "--y", "1.5"], "csv"),
    "solve-inteq": (["--f", "h.csv", "--psi", "h.csv"], "json"),
    "selftest": ([], "csv"),
}


@pytest.mark.parametrize("command", sorted(WRONG_FORMAT))
def test_wrong_format_is_usage_error(command, monkeypatch, capsys):
    import slhyper.cli as cli

    assert sorted(cli.COMMANDS) == sorted(WRONG_FORMAT)
    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("ran"))
    required, wrong = WRONG_FORMAT[command]
    assert run([command, *required, "--format", wrong]) == 2
    assert "--format" in capsys.readouterr().err


def _config_hash(path):
    text = path.read_text()
    if text.startswith("# slhyper "):
        return text.split()[4]
    return json.loads(text)["meta"]["config"]


def test_config_hash_covers_command_and_flags(tmp_path):
    runs = {
        "k4": ["kernel", "--lambda", "4.0", "--x", "0:1:2"],
        "k4_other_out": ["kernel", "--lambda", "4.0", "--x", "0:1:2"],
        "k9": ["kernel", "--lambda", "9.0", "--x", "0:1:2"],
        "support": ["support", "--x", "3", "--y", "1"],
    }
    sha = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        sha[name] = _config_hash(out)
    assert sha["k4"] == sha["k4_other_out"]
    assert len({sha["k4"], sha["k9"], sha["support"]}) == 3


def test_config_hash_covers_input_file_content(tmp_path):
    """An input flag hashes as its file's bytes: one operator path holding
    two operators gives two hashes, and one operator at two paths gives
    one, and the same output bytes: an operator without a name is named by
    its file's content, not its path."""
    ops = ['{"a": 0.0, "b": "inf", "p": "1", "r": "cosh(x)"}',
           '{"a": 0.0, "b": "inf", "p": "1", "r": "sinh(x)^2"}']
    sha, outputs = [], []
    for path, text in [("op.json", ops[0]), ("op.json", ops[1]),
                       ("copy.json", ops[1])]:
        (tmp_path / path).write_text(text)
        out = tmp_path / "out.json"
        assert run(["validate", "--op", str(tmp_path / path),
                    "--out", str(out)]) == 0
        sha.append(_config_hash(out))
        outputs.append(out.read_bytes())
    assert sha[0] != sha[1]
    assert sha[1] == sha[2]
    assert outputs[1] == outputs[2]


def test_domain_error_exit_1(tmp_path, capsys):
    # translate with a negative regularization parameter is a domain error
    h = _write_bump(tmp_path / "h.csv")
    code = run(["translate", "--h", str(h), "--y", "1.0",
                "--t-reg", "-1.0", "--N", "256", "--lambda-max", "50"])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_lambda_max_below_the_spectrum_exit_1(tmp_path, capsys):
    code = run(["spectrum", "--N", "512", "--lambda-max", "0.001",
                "--out", str(tmp_path / "low.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("slhyper: error: no eigenvalues below lambda_max; "
                   "enlarge L or lambda_max\n")


def test_missing_input_file_exit_1(capsys):
    code = run(["transform", "--h", "/nonexistent/h.csv"])
    assert code == 1
    capsys.readouterr()


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 256, "lambda-max": 50.0}))
    direct = tmp_path / "d.csv"
    via_cfg = tmp_path / "c.csv"
    run(["spectrum", "--N", "256", "--lambda-max", "50", "--out", str(direct)])
    run(["spectrum", "--config", str(cfg), "--out", str(via_cfg)])
    assert direct.read_bytes() == via_cfg.read_bytes()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    assert run(["spectrum", "--config", str(cfg)]) == 1
    # a flag that only other commands read
    cfg.write_text(json.dumps({"N": 256}))
    assert run(["validate", "--config", str(cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["transform", "--h", "MISSING"],
    ["translate", "--h", "MISSING", "--y", "1.0"],
    ["convolve", "--h", "GOOD", "--g", "MISSING"],
    ["cauchy", "--h", "MISSING", "--grid", "0:6:7"],
    ["solve-inteq", "--f", "GOOD", "--psi", "MISSING"],
    ["solve-inteq", "--f", "MISSING", "--psi", "GOOD"],
])
def test_inputs_read_before_measure_build(argv, tmp_path, monkeypatch, capsys):
    import slhyper.cli as cli

    def no_build(cfg):
        raise AssertionError("measure built before the inputs were read")

    monkeypatch.setattr(cli, "_measure", no_build)
    good = str(_write_bump(tmp_path / "good.csv"))
    missing = str(tmp_path / "missing.csv")
    argv = [{"GOOD": good, "MISSING": missing}.get(a, a) for a in argv]
    assert run(argv) == 1
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1.0,nan", "inf,0.0"])
@pytest.mark.parametrize("argv", [
    ["transform", "--h", "PROFILE", "--L", "4"],
    ["cauchy", "--h", "PROFILE", "--grid", "0:3:4", "--L", "4"],
    ["translate", "--h", "PROFILE", "--y", "1", "--L", "4"],
])
def test_profile_rows_that_are_not_finite_rejected(argv, row, tmp_path,
                                                   monkeypatch, capsys):
    """A nan or inf in a profile is an error that names the file and the
    line, found before the measure is built, not nan or inf output rows."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    profile = tmp_path / "bad.csv"
    profile.write_text(f"x,value\n0.0,0.0\n{row}\n2.0,0.0\n")
    argv = [str(profile) if a == "PROFILE" else a for a in argv]
    assert run(argv + ["--N", "64", "--lambda-max", "10"]) == 1
    err = capsys.readouterr().err
    assert "bad.csv, line 3: not finite" in err
    assert "Traceback" not in err


def test_measure_command_loads_the_operator_once(tmp_path, monkeypatch):
    # heatkernel checks its grids against a before it builds the measure;
    # both read the one operator loaded from the JSON file
    import slhyper.cli as cli

    op = tmp_path / "op.json"
    op.write_text(json.dumps({"a": 0.0, "b": "inf", "p": "x^2", "r": "x^2"}))
    loads = []
    load = cli.load_operator

    def counted(source):
        loads.append(source)
        return load(source)

    monkeypatch.setattr(cli, "load_operator", counted)
    assert run(["heatkernel", "--op", str(op), "--t", "0.25", "--x-grid",
                "0:2:3", "--y-grid", "1.0", "--L", "12", "--N", "256",
                "--lambda-max", "50", "--out", str(tmp_path / "p.csv")]) == 0
    assert loads == [str(op)]


@pytest.mark.parametrize("argv", [
    ["heatkernel", "--t", "0.5", "--x-grid", "0:1", "--y-grid", "1.0"],
    ["product", "--t", "0.5", "--x", "1", "--y", "1", "--xi-grid", "0:1"],
    ["product", "--t", "0", "--x", "1", "--y", "1"],
    ["spectrum", "--N", "8"],
    ["spectrum", "--L", "0"],
])
def test_arguments_checked_before_measure_build(argv, monkeypatch, capsys):
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("slhyper: error:")


@pytest.mark.parametrize("flags, message", [
    (["--N", "8"], "N must be at least 16"),
    (["--L", "6"], "L must satisfy a < L < b"),
    (["--lambda-max", "0"], "lambda_max must be positive and finite, not 0.0"),
    (["--t-reg", "0"], "--t-reg must be positive and finite, not 0.0"),
])
def test_library_checks_run_before_any_profile_is_read(flags, message,
                                                       tmp_path, capsys):
    """The sizes of the measure and the times are checked by the library's
    own checks, with their messages, before --h is read (here it is
    missing); the operator lives on (0, 5)."""
    op = tmp_path / "box.json"
    op.write_text(json.dumps({"a": 0.0, "b": 5.0, "p": "1", "r": "1"}))
    assert run(["translate", "--op", str(op), "--L", "4",
                "--h", str(tmp_path / "missing.csv"), "--y", "1",
                *SMALL, *flags]) == 1
    assert capsys.readouterr().err == f"slhyper: error: {message}\n"


def test_cauchy_initial_data_checked_before_measure_build(tmp_path,
                                                          monkeypatch, capsys):
    """A profile that does not vanish at both ends is not compactly
    supported: cauchy's own initial-data check rejects it before the build."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    h = tmp_path / "h.csv"
    h.write_text("0,1\n1,0.5\n2,0\n")
    assert run(["cauchy", "--h", str(h), "--grid", "0:2:5", *SMALL]) == 1
    assert capsys.readouterr().err == ("slhyper: error: initial data must be "
                                       "flagged smooth2 and compact_support\n")


def test_line_operator_takes_a_negative_L(tmp_path):
    """p = 1, r = e^x on the whole line: L = -1 lies in (a, b), and the
    command writes the atoms that build_spectral_measure builds."""
    op = tmp_path / "expx.json"
    op.write_text(json.dumps({"name": "expline", "a": "-inf", "b": "inf",
                              "p": "1", "r": "exp(x)"}))
    out = tmp_path / "atoms.csv"
    assert run(["spectrum", "--op", str(op), "--L", "-1", *SMALL,
                "--out", str(out)]) == 0
    sm = build_spectral_measure(load_operator(str(op)), L=-1.0, N=512,
                                lambda_max=100.0)
    assert len(sm) == 4
    assert out.read_text().splitlines()[2:] == [
        f"{k},{lam:.12g},{m:.12g}"
        for k, (lam, m) in enumerate(zip(sm.lambdas, sm.masses))]


def test_triangle_where_p_r_overflows(tmp_path, capsys):
    """On p = r = sinh(x)^4 cosh(x)^2 at x = 70, p r overflows while A =
    sqrt(p) sqrt(r) is finite: the report is finite, and nothing warns.
    A_B grows exponentially there, and its table is interpolated in log
    form, so the residual measures the identity: below 1e-2 of |lhs| at
    n = 50 and falling with the quadrature's O(h^2) from n = 100 to 200.
    Interpolated linearly, the ratio read 0.108 / 0.025 / 0.023."""
    op = tmp_path / "jac3.json"
    op.write_text(json.dumps({"a": 0.0, "b": "inf",
                              "p": "sinh(x)^4 * cosh(x)^2",
                              "r": "sinh(x)^4 * cosh(x)^2"}))
    out = tmp_path / "tri.json"
    ratio = {}
    for n in (50, 100, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["triangle", "--op", str(op), "--c", "0.5", "--x",
                        "70", "--y", "1.5", "--lam", "12", "--n", str(n),
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        floats = [v for v in doc.values() if isinstance(v, float)]
        assert len(floats) == 11 and np.all(np.isfinite(floats))
        assert capsys.readouterr().err == ""
        ratio[n] = doc["residual"] / abs(doc["lhs"])
    assert ratio[50] < 1e-2
    assert ratio[200] * 3 <= ratio[100]


JAC3 = {"a": 0.0, "b": "inf", "p": "sinh(x)^4 * cosh(x)^2",
        "r": "sinh(x)^4 * cosh(x)^2"}


@pytest.mark.parametrize("op, argv", [
    (None, ["--c", "0.5", "--x", "3.0", "--y", "1.5"]),
    (JAC3, ["--c", "0.5", "--x", "70", "--y", "1.5", "--lam", "12",
            "--n", "50"]),
], ids=["cosine", "jac3"])
def test_triangle_is_two_kernel_solves(op, argv, tmp_path, monkeypatch):
    """Every term of the identity reads the one volume block, so the test
    eigenfunction meets two point sets, the block's xi and its zeta: two
    ODE solves (11 when each term was evaluated apart)."""
    import slhyper.kernel as kernel

    solves = []
    solve_ivp = kernel.solve_ivp

    def counted(*args):
        solves.append(len(args[3]))
        return solve_ivp(*args)

    monkeypatch.setattr(kernel, "solve_ivp", counted)
    if op is not None:
        (tmp_path / "op.json").write_text(json.dumps(op))
        argv = ["--op", str(tmp_path / "op.json"), *argv]
    assert run(["triangle", *argv, "--out", str(tmp_path / "t.json")]) == 0
    assert 1 <= len(solves) <= 2


@pytest.mark.parametrize("op", ["cosine", "whittaker?alpha=0.25&kappa=1.0"])
def test_triangle_at_y_equal_c(op, tmp_path):
    """At y = c the triangle is its apex: every trapezoid has width 0, so
    I0 to I4 are 0.0 and the identity reads H = lhs (here to the bit)."""
    out = tmp_path / "tri.json"
    assert run(["triangle", "--op", f"builtin:{op}", "--c", "1.5", "--x",
                "3.0", "--y", "1.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["H"] == doc["lhs"] != 0.0
    assert [doc[k] for k in ("I0", "I1", "I2", "I3", "I4")] == [0.0] * 5
    assert doc["residual"] == 0.0


@pytest.mark.parametrize("n", ["0", "-3"])
def test_triangle_n_checked_first(n, monkeypatch, capsys):
    """The identity's panel count is an integer of at least 1, checked
    before the kernel evaluator is built."""
    monkeypatch.setattr("slhyper.kernel.KernelEvaluator",
                        lambda spec: pytest.fail("built"))
    assert run(["triangle", "--c", "0.5", "--x", "3", "--y", "1.5",
                "--n", n]) == 1
    err = capsys.readouterr().err
    assert f"error: n must be an integer of at least 1, not {n}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, argv", [
    ("--x", ["product", "--t", "0.5", "--x", "nan", "--y", "1"]),
    ("--x", ["support", "--x", "nan", "--y", "1"]),
    ("--y", ["translate", "--h", "h.csv", "--y", "inf"]),
    ("--x-grid", ["heatkernel", "--t", "0.5", "--x-grid", "0:nan:7",
                  "--y-grid", "1.0"]),
    ("--lambda-max", ["spectrum", "--lambda-max", "inf"]),
    ("--lambda", ["kernel", "--lambda", "nan", "--x", "0:1:2"]),
    ("--lambda", ["kernel", "--lambda", "4.0,inf", "--x", "0:1:2"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_numbers_rejected_first(flag, argv, monkeypatch, capsys):
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    monkeypatch.setattr("slhyper.kernel.KernelEvaluator",
                        lambda spec: pytest.fail("ran"))
    assert run(argv) == 1
    assert f"error: {flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["heatkernel:nan,1.0", "heatkernel:0.25,inf",
                               "heatkernel:0.25", "heatkernel:0.25,1.0,2",
                               "heatkernel:0,1.0"])
def test_heatkernel_f_checked_first(f, tmp_path, monkeypatch, capsys):
    """--f heatkernel:t,x takes two finite numbers with t > 0, checked
    before --psi is read (here it is missing) or the measure is built."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    assert run(["solve-inteq", "--f", f,
                "--psi", str(tmp_path / "missing.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error: --f heatkernel:t,x")
    assert "missing.csv" not in err


@pytest.mark.parametrize("argv", [
    ["heatkernel", "--t", "0.5", "--x-grid", "1.0", "--y-grid", "14,16,17"],
    ["heatkernel", "--t", "0.5", "--x-grid", "0:20:5", "--y-grid", "1.0"],
    ["product", "--t", "0.5", "--x", "1", "--y", "1", "--xi-grid", "0:17:5"],
    ["cauchy", "--h", "PROFILE", "--grid", "0:17:5"],
    ["transform", "--h", "WIDE"],
    ["solve-inteq", "--f", "heatkernel:0.25,1.0", "--psi", "WIDE"],
    ["product", "--t", "0.5", "--x", "17", "--y", "1"],
    ["translate", "--h", "PROFILE", "--y", "17"],
    ["solve-inteq", "--f", "heatkernel:0.25,17", "--psi", "PROFILE"],
])
def test_points_past_L_rejected_first(argv, tmp_path, monkeypatch, capsys):
    """Grids and profiles end at --L, where the measure's eigenfunctions
    end; a point past it is bad input, found before the measure is built."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    files = {"PROFILE": _write_bump(tmp_path / "h.csv"),
             "WIDE": _write_bump(tmp_path / "wide.csv", top=20.0)}
    assert run([str(files.get(a, a)) for a in argv] + SMALL) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:") and "past L = 16" in err


@pytest.mark.parametrize("argv, message", [
    (["product", "--t", "0.5", "--x", "-3", "--y", "1", "--xi-grid", "0:4:5"],
     "--x: points below a = 0"),
    (["translate", "--h", "PROFILE", "--y", "-1"], "--y: points below a = 0"),
    (["heatkernel", "--t", "0.5", "--x-grid=-1:2:4", "--y-grid", "1.0"],
     "--x-grid: points below a = 0"),
    (["cauchy", "--h", "PROFILE", "--grid=-1:5:7"],
     "--grid: points below a = 0"),
    (["transform", "--h", "NEGATIVE"], "neg.csv: points below a = 0"),
    (["solve-inteq", "--f", "heatkernel:0.25,-1", "--psi", "PROFILE"],
     "heatkernel:0.25,-1: points below a = 0"),
    (["translate", "--h", "PROFILE", "--y", "1", "--t-reg", "0"],
     "t-reg must be positive"),
    (["convolve", "--h", "PROFILE", "--g", "PROFILE", "--t-reg", "0"],
     "t-reg must be positive"),
])
def test_points_below_a_and_zero_t_reg_rejected_first(argv, message, tmp_path,
                                                      monkeypatch, capsys):
    """A point below the operator's left end a, where no measure lives, and
    a --t-reg that is not positive are bad input, found before the build."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    neg = tmp_path / "neg.csv"
    neg.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    files = {"PROFILE": _write_bump(tmp_path / "h.csv"), "NEGATIVE": neg}
    assert run([str(files.get(a, a)) for a in argv] + SMALL) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:") and message in err


@pytest.mark.parametrize("xi", ["3.0", "5:0:11", "0,2,1,3"])
def test_product_xi_grid_checked_first(xi, monkeypatch, capsys):
    """--xi-grid must be strictly increasing with at least two points,
    checked before the measure is built."""
    import slhyper.cli as cli

    monkeypatch.setattr(cli, "_measure", lambda args: pytest.fail("built"))
    assert run(["product", "--t", "0.5", "--x", "1", "--y", "1",
                "--xi-grid", xi, *SMALL]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error: xi grid")
    assert "Traceback" not in err


# the README commands that build a measure, as written but for --lambda-max
README_MEASURES = [
    ["spectrum"],
    ["spectrum", "--op", "builtin:bessel?alpha=0.5", "--L", "12", "--N", "2048"],
    ["transform", "--h", "PROFILE"],
    ["heatkernel", "--t", "0.25", "--x-grid", "0:8:81", "--y-grid", "1.0"],
    ["product", "--t", "0.01", "--x", "2.0", "--y", "1.0"],
    ["translate", "--h", "PROFILE", "--y", "1.5", "--t-reg", "1e-4"],
    ["convolve", "--h", "PROFILE", "--g", "PROFILE"],
    ["cauchy", "--h", "PROFILE", "--grid", "0:10:101"],
    ["solve-inteq", "--f", "heatkernel:0.25,1.0", "--psi", "PROFILE"],
]


@pytest.mark.parametrize("argv", README_MEASURES, ids=lambda argv: argv[0])
def test_readme_commands_at_the_default_lambda_max(argv, tmp_path):
    profile = str(_write_bump(tmp_path / "profile.csv"))
    out = tmp_path / "out.csv"
    argv = [profile if a == "PROFILE" else a for a in argv]
    assert run([*argv, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
    # cauchy leaves its pde_residual column NaN on a border two points wide
    values = rows[:, :3] if argv[0] == "cauchy" else rows
    assert len(rows) > 0 and np.all(np.isfinite(values))
    if argv == ["spectrum"]:
        # criterion 04's oracle, rho[0, lam] = 2 sqrt(lam) / pi
        atoms = SimpleNamespace(lambdas=rows[:, 1], masses=rows[:, 2])
        for lam in (1.0, 4.0, 16.0):
            got = SpectralMeasure.cumulative(atoms, lam)
            assert abs(got - 2.0 * np.sqrt(lam) / np.pi) <= 0.02


@pytest.mark.parametrize("bad_row", ["2,oops", "2"])
def test_unreadable_csv_row_is_an_error(bad_row, tmp_path, capsys):
    path = tmp_path / "h.csv"
    path.write_text(f"x,value\n0,0\n1,0.5\n{bad_row}\n3,0\n", encoding="utf-8")
    code = run(["transform", "--h", str(path), "--N", "256",
                "--lambda-max", "50", "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:")
    assert "h.csv" in err and "line 4" in err
    # the header row alone is skipped
    path.write_text("x,value\n0,0\n1,0.5\n3,0\n", encoding="utf-8")
    assert run(["transform", "--h", str(path), "--N", "256",
                "--lambda-max", "50", "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize("text", [
    "x,value\nfoo,bar\n0,0\n1,1\n2,0\n",
    "".join(f"np.float64({x!r}),np.float64(0.0)\n"
            for x in np.linspace(0.0, 12.0, 601)),
], ids=["two-headers", "numpy-reprs"])
def test_only_one_header_row_is_skipped(text, tmp_path, capsys):
    """A header is one row: a second unreadable row before the data is an
    error that names its line, not a row dropped with the header."""
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    assert run(["transform", "--h", str(path), "--N", "256",
                "--lambda-max", "50", "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:")
    assert "h.csv" in err and "line 2" in err


@pytest.mark.parametrize("doc", [{"N": "abc"}, {"L": [1]}, {"format": "xml"},
                                 {"format": "json"}, [1]])
def test_config_file_value_types(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    # flags that would build a valid measure, so only the config fails
    assert run(["spectrum", *SMALL, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("slhyper: error:")


@pytest.fixture
def w_calls(monkeypatch):
    """Sizes of the point sets handed to w_values of each measure the CLI
    builds, in order, and those measures."""
    import slhyper.cli as cli

    calls, built = [], []
    measure = cli._measure

    def counted_measure(args):
        sm = measure(args)
        w_values = sm.w_values

        def counted(xq):
            calls.append(np.size(xq))
            return w_values(xq)

        sm.w_values = counted
        built.append(sm)
        return sm

    monkeypatch.setattr(cli, "_measure", counted_measure)
    return calls, built


@pytest.mark.parametrize("y_grid, n_y", [("0:3:13", 13), ("1.0", 1)])
def test_heatkernel_evaluates_each_grid_once(y_grid, n_y, tmp_path, w_calls):
    calls, built = w_calls
    out = tmp_path / "p.csv"
    assert run(["heatkernel", "--t", "0.5", "--x-grid", "0:3:7",
                "--y-grid", y_grid, *SMALL, "--precision", "17",
                "--out", str(out)]) == 0
    assert calls == [7, n_y]
    rows = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
    assert len(rows) == 7 * n_y
    ref = np.concatenate([heat_kernel_grid(0.5, x, rows[:n_y, 2], built[0])
                          for x in np.linspace(0.0, 3.0, 7)])
    assert np.allclose(rows[:, 3], ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_solve_qt_equation_evaluates_psi_grid_once(tmp_path, w_calls):
    calls, _ = w_calls
    psi = _write_bump(tmp_path / "psi.csv")
    assert run(["solve-inteq", "--f", "heatkernel:0.25,1.0", "--psi", str(psi),
                *SMALL, "--out", str(tmp_path / "h.csv"),
                "--diagnostics", str(tmp_path / "d.json")]) == 0
    assert calls == [1, 601]


def test_real_rho_writes_the_default_bytes(tmp_path):
    """--rho 1 and --rho 1+0j are the default rho = 1.0: the same real
    solve, so the same values and the same config hash."""
    xs = np.linspace(0.0, 12.0, 601)
    f = tmp_path / "f.csv"
    np.savetxt(f, np.c_[xs, 0.3 * np.exp(-xs ** 2)], delimiter=",")
    psi = _write_bump(tmp_path / "psi.csv")
    outputs = []
    for k, rho in enumerate([[], ["--rho", "1"], ["--rho", "1+0j"]]):
        out, diag = tmp_path / f"h{k}.csv", tmp_path / f"d{k}.json"
        assert run(["solve-inteq", "--f", str(f), "--psi", str(psi),
                    "--kappa", "0", *SMALL, "--precision", "17", *rho,
                    "--out", str(out), "--diagnostics", str(diag)]) == 0
        outputs.append((out.read_bytes(), diag.read_bytes()))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("rho, header", [("1", "x,h"), ("1+1j", "x,h_re,h_im")])
def test_solve_inteq_writes_every_part_of_h(rho, header, sm_cosine_512,
                                            tmp_path, capsys):
    """A complex solution is written as x,h_re,h_im, a real one as x,h; each
    column is solve_equation's h at 17 digits, with no ComplexWarning."""
    from slhyper.cli import _read_grid_function
    from slhyper.inteq import EquationProblem, solve_equation

    xs = np.linspace(0.0, 12.0, 601)
    f = tmp_path / "f.csv"
    np.savetxt(f, np.c_[xs, 0.3 * np.exp(-xs ** 2)], delimiter=",")
    psi = _write_bump(tmp_path / "psi.csv")
    out = tmp_path / "h.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve-inteq", "--f", str(f), "--psi", str(psi), *SMALL,
                    "--rho", rho, "--precision", "17", "--out", str(out),
                    "--diagnostics", str(tmp_path / "d.json")]) == 0
    assert not [w for w in caught
                if issubclass(w.category, np.exceptions.ComplexWarning)]
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1] == header
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    sol = solve_equation(EquationProblem(
        f=_read_grid_function(str(f)), psi=_read_grid_function(str(psi)),
        kappa=0.0, rho=complex(rho) if "j" in rho else float(rho)),
        sm_cosine_512)
    want = sol.h.values
    assert np.iscomplexobj(want) == ("j" in rho)
    got = rows[:, 1] + 1j * rows[:, 2] if "j" in rho else rows[:, 1]
    assert np.array_equal(rows[:, 0], sol.h.grid)
    assert np.allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))


def test_product_with_lost_mass_exits_1(tmp_path, capsys):
    """q_t is a probability density: on Whittaker at t = 0.1 the default xi
    grid and L hold 0.624 of its mass, which is an error, not output."""
    out = tmp_path / "q.csv"
    assert run(["product", "--op", "builtin:whittaker?alpha=0.25&kappa=1.0",
                "--t", "0.1", "--x", "2", "--y", "1.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error: q_t has mass 0.624")
    assert "--xi-grid" in err and "--L" in err and "Traceback" not in err
    assert not out.exists()


# runs main(argv) in a fresh interpreter and prints its scipy modules, and
# numpy.ma and numpy.polynomial, if loaded
_FOOTPRINT = """
import json, sys
from slhyper.cli import main
argv = json.loads(sys.argv[1])
if argv and main(argv) != 0:
    sys.exit("command failed")
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy"
                        or m in ("numpy.ma", "numpy.polynomial"))))
"""


def _fresh_python(script: str, *args: str) -> str:
    """The standard output of script run with args in a fresh interpreter
    that imports this package."""
    src = str(Path(slhyper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _footprint(argv, tmp_path):
    """The scipy modules, numpy.ma and numpy.polynomial that a fresh
    process holds after running the command argv (importing slhyper.cli
    alone when argv is empty), with PROFILE in argv standing for a profile
    CSV."""
    if argv:
        profile = str(_write_bump(tmp_path / "profile.csv"))
        argv = [profile if a == "PROFILE" else a for a in argv]
        argv += ["--out", str(tmp_path / "out")]
    return json.loads(_fresh_python(_FOOTPRINT,
                                    json.dumps(argv)).splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["validate", "--op", "builtin:bessel?alpha=0.5"],
    ["support", "--x", "3.0", "--y", "1.0"],
], ids=lambda v: " ".join(v[:1]) or "import")
def test_operator_commands_load_no_scipy(argv, tmp_path):
    """Importing the CLI, validate and support load numpy and the operator
    layer, and no scipy module, numpy.ma or numpy.polynomial (the operator
    layer's Gauss-Legendre rule is written out)."""
    assert _footprint(argv, tmp_path) == []


MEASURE_1024 = ["--N", "1024", "--lambda-max", "100"]


# scipy subpackages no module imports; scipy.integrate and scipy.interpolate
# would each load scipy.optimize and scipy.special as well
_UNUSED_SCIPY = ("integrate", "interpolate", "optimize", "special", "sparse",
                 "linalg")

_FLAPACK = ["scipy.linalg._flapack"]


@pytest.mark.parametrize("argv, loaded", [
    (["spectrum", "--op", "builtin:bessel?alpha=0.5", "--L", "12",
      *MEASURE_1024], _FLAPACK),
    (["heatkernel", "--t", "0.5", "--x-grid", "0:3:7", "--y-grid", "0:3:13",
      *MEASURE_1024], _FLAPACK),
    (["product", "--t", "0.5", "--x", "2.0", "--y", "1.5", *MEASURE_1024],
     _FLAPACK),
    (["kernel", "--lambda", "4.0,9.0", "--x", "0:10:101"], []),
    (["triangle", "--c", "0.5", "--x", "3.0", "--y", "1.5", "--lam", "2.0"],
     []),
    (["spectrum", *SMALL], _FLAPACK),
    (["selftest"], _FLAPACK),
    (["solve-inteq", "--f", "heatkernel:0.25,1.0", "--psi", "PROFILE",
      *SMALL], _FLAPACK),
], ids=["spectrum", "heatkernel", "product", "kernel", "triangle",
        "spectrum-cosine", "selftest", "solve-inteq"])
def test_commands_load_only_the_scipy_they_run(argv, loaded, tmp_path):
    """kernel and triangle load no scipy module: the series table is built
    from exact slopes and interpolated in numpy, and the kernel ODE is
    solved in numpy (slhyper.ode).  The measure commands and selftest hold
    scipy's compiled LAPACK wrapper alone, which the eigensolve and the
    eigenfunction splines' fit load as an extension module
    (kernel._lapack): no scipy package module, not even scipy or
    scipy.linalg, whose import loads numpy.f2py, numpy.testing and
    numpy.ma.  No command loads numpy.ma, which np.unique imports when it
    returns no indices, or numpy.polynomial."""
    assert _footprint(argv, tmp_path) == loaded


# builds the cosine measure in a fresh interpreter that imports scipy.linalg
# before or after the build, checks that scipy.linalg and the package share
# one LAPACK module, and saves the measure
_IMPORT_ORDER = """
import sys
import numpy as np
from slhyper.kernel import _lapack
from slhyper.operator import builtin_operator
from slhyper.spectral import build_spectral_measure
order, path = sys.argv[1:]
if order == "before":
    import scipy.linalg
sm = build_spectral_measure(builtin_operator("cosine"), L=20.0, N=512,
                            lambda_max=100.0)
if order == "after":
    import scipy.linalg
from scipy.linalg import lapack
assert lapack._flapack is sys.modules["scipy.linalg._flapack"]
assert _lapack("stebz")[0] is lapack.get_lapack_funcs("stebz", (np.ones(2),))
k = np.arange(1, 5)
vals = scipy.linalg.eigh_tridiagonal(np.full(4, 2.0), np.full(3, -1.0),
                                     eigvals_only=True)
assert np.allclose(vals, 2 - 2 * np.cos(k * np.pi / 5), rtol=0, atol=1e-14)
np.savez(path, lambdas=sm.lambdas, masses=sm.masses, t=sm._w.t, c=sm._w.c)
"""


def test_measure_is_the_same_whichever_imports_lapack_first(tmp_path):
    """The LAPACK loader (kernel._lapack) registers scipy's compiled wrapper
    under its own module name.  With scipy.linalg imported before the first
    measure build or after it, both use one module object, scipy.linalg
    still solves, and the atoms, masses and spline coefficients agree bit
    for bit."""
    runs = {}
    for order in ("before", "after"):
        _fresh_python(_IMPORT_ORDER, order, str(tmp_path / f"{order}.npz"))
        runs[order] = np.load(tmp_path / f"{order}.npz")
    for key in ("lambdas", "masses", "t", "c"):
        assert np.array_equal(runs["before"][key], runs["after"][key]), key


def _package_imports(module_level: bool):
    """(module file name, imported names) of every import statement of the
    package, or of those that run when the module is imported: all but
    the ones inside a function body."""
    for path in sorted(Path(slhyper.__file__).parent.glob("*.py")):
        stack = [ast.parse(path.read_text(encoding="utf-8"))]
        while stack:
            node = stack.pop()
            if module_level and isinstance(node, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                yield path.name, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                yield path.name, [f"{node.module}.{alias.name}"
                                  for alias in node.names]
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_kernel_reads_its_series_table():
    """The series table, its majorant S and its sums are the kernel's own:
    the measure takes its left edge and its normalization windows from
    KernelEvaluator.start and KernelEvaluator.leading_values."""
    private = {"_xs", "_S", "_series", "_table"}
    readers = []
    for path in sorted(Path(slhyper.__file__).parent.glob("*.py")):
        if path.name != "kernel.py":
            readers += [(path.name, node.attr) for node in
                        ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.Attribute)
                        and node.attr in private]
    assert readers == []


def test_no_module_imports_scipy_integrate():
    """The footprint above holds for every command line: no module of the
    package imports scipy.integrate, scipy.interpolate, scipy.optimize,
    scipy.special, scipy.sparse or scipy.linalg, at its top or inside a
    function."""
    unused = [["scipy", name] for name in _UNUSED_SCIPY]
    assert [name for name, names in _package_imports(module_level=False)
            if any(n.split(".")[:2] in unused for n in names)] == []


def test_no_module_imports_scipy_at_module_level():
    """Importing any module of the package loads no scipy: the functions
    that call LAPACK (spectral._eigenpairs, kernel._fit_in_place) load
    scipy's compiled wrapper from its file when they run
    (kernel._lapack)."""
    assert [name for name, names in _package_imports(module_level=True)
            if any(n.split(".")[0] == "scipy" for n in names)] == []


@pytest.mark.parametrize("field, value", [
    ("p", 1), ("a", None), ("b", [1]), ("eta", {}), ("a", True),
    ("b", 10 ** 400),
], ids=["p-number", "a-null", "b-list", "eta-object", "a-bool", "b-overflow"])
def test_operator_field_of_the_wrong_type_is_an_error(field, value, tmp_path,
                                                       capsys):
    doc = {"a": 0, "b": "inf", "p": "1", "r": "1", field: value}
    op = tmp_path / "op.json"
    op.write_text(json.dumps(doc))
    assert run(["validate", "--op", str(op), "--out", str(tmp_path / "v.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:") and "Traceback" not in err
    assert f"field {field!r}" in err


@pytest.mark.parametrize("field", ["p", "r", "a", "b"])
def test_operator_field_missing_is_an_error(field, tmp_path, capsys):
    doc = {"a": 0, "b": "inf", "p": "1", "r": "1"}
    del doc[field]
    op = tmp_path / "op.json"
    op.write_text(json.dumps(doc))
    assert run(["validate", "--op", str(op), "--out", str(tmp_path / "v.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:") and "Traceback" not in err
    assert f"{op}: field {field!r} is missing" in err


@pytest.mark.parametrize("a, b", [("inf", "inf"), (2, 1), (1.5, 1.5)],
                         ids=["inf-inf", "reversed", "equal"])
def test_operator_interval_must_be_increasing(a, b, tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"a": a, "b": b, "p": "1", "r": "1"}))
    assert run(["validate", "--op", str(op), "--out", str(tmp_path / "v.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error:") and "Traceback" not in err
    assert "needs a < b" in err and f"a = {float(a):g} and b = {float(b):g}" in err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("p", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 5000 + "x",
    "^".join(["x"] * 3000),
    "^".join(["x"] * 300),
], ids=["parens-3000", "minus-5000", "power-3000", "power-300"])
def test_deep_coefficient_is_an_error_not_a_traceback(p, tmp_path, capsys):
    op = tmp_path / "deep.json"
    op.write_text(json.dumps({"a": 0.0, "b": "inf", "p": p, "r": "1"}))
    assert run(["validate", "--op", str(op), "--out", str(tmp_path / "v.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error: expression") and "Traceback" not in err


def test_kernel_where_p_leaves_the_floats_fails_without_a_warning(tmp_path,
                                                                  capsys):
    """p = exp(1000 - x) overflows on the series grid near a.  The table
    reads p and r once, under its own np.errstate, so the command exits 1
    with the derivative error and numpy prints no overflow warning (one
    raised as an error here, as under -W error::RuntimeWarning)."""
    op = tmp_path / "pexp.json"
    op.write_text(json.dumps({"a": 0.0, "b": "inf", "p": "exp(1000 - x)",
                              "r": "1"}))
    out = tmp_path / "k.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["kernel", "--op", str(op), "--lambda", "2.0", "--x",
                    "0:5:11", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("slhyper: error: ")
    assert "the derivative of p is not finite" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_kernel_at_a_huge_lambda_is_an_error_not_a_hang(tmp_path, capsys,
                                                        monkeypatch):
    """At lambda 1e12 the ODE would follow 1.6e5 periods of cos(1e6 x) on
    [0, 1], minutes of steps: the command exits 1 before any solve runs."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ivp called past the period budget")

    monkeypatch.setattr("slhyper.kernel.solve_ivp", no_solve)
    out = tmp_path / "k.csv"
    assert run(["kernel", "--lambda", "1e12", "--x", "0:1:3",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slhyper: error: cosine: lambda = 1e+12 spans about")
    assert "periods" in err and "Traceback" not in err
    assert not out.exists()
