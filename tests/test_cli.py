"""Command line front end: output formats, exit codes, determinism, and
config file handling."""

import json

import numpy as np
import pytest

from slhyper.cli import main


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


def test_kernel_csv_oracle(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["kernel", "--lambda", "4.0", "--x", "0:3:7",
                "--out", str(out), "--precision", "15"])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    body = [r.split(",") for r in rows[1:]]
    xs = np.array([float(r[2]) for r in body])
    ws = np.array([float(r[3]) for r in body])
    assert np.allclose(ws, np.cos(2.0 * xs), atol=1e-9)


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


def test_bad_usage_exit_2(capsys):
    assert run(["kernel", "--x", "0:3:7"]) == 2      # missing --lambda
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_domain_error_exit_1(tmp_path, capsys):
    # translate with a negative regularization parameter is a domain error
    h = _write_bump(tmp_path / "h.csv")
    code = run(["translate", "--h", str(h), "--y", "1.0",
                "--t-reg", "-1.0", "--N", "256", "--lambda-max", "50"])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


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


@pytest.mark.parametrize("doc", [{"N": "abc"}, {"L": [1]}, {"format": "xml"}])
def test_config_file_value_types(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["spectrum", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("slhyper: error:")
