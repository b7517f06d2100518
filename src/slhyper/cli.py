"""Command line front end.

Every subcommand reads an operator (builtin:<name> or a JSON definition
file), runs one library operation, and writes deterministic CSV or JSON.
Outputs open with a reproducibility header carrying the package version
and a hash of the fully resolved configuration, so identical invocations
of the same build produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .operator import (load_operator, build_standard_form, certify_mp,
                       support_params, check_left_boundary)
from .kernel import KernelEvaluator
from .spectral import (GridFunction, build_spectral_measure, bump_function,
                       forward_transform, heat_kernel_grid, inverse_transform)
from .hconv import (product_density, default_xi_grid, translate,
                    convolve_functions, classify_support)
from .cauchy import solve_cauchy, triangle_identity_residual
from .inteq import EquationProblem, solve_equation, solve_qt_equation

__all__ = ["main"]


# ---------------------------------------------------------------------------
# configuration plumbing


@dataclass
class RunConfig:
    op: str
    L: float
    N: int
    lambda_max: float | None
    fmt: str
    out: str | None
    precision: int

    def canonical(self) -> str:
        doc = {
            "op": self.op, "L": self.L, "N": self.N,
            "lambda_max": self.lambda_max,
            "format": self.fmt, "precision": self.precision,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec: either "start:stop:count" or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {text!r}: want start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        return np.linspace(start, stop, count)
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _parse_lambdas(text: str) -> list:
    return [complex(v) for v in text.split(",")]


def _read_grid_function(path: str) -> GridFunction:
    """(x, value) rows of a CSV file.  Blank and '#' lines are skipped, as
    is a header before the first data row; any later row that is not two
    numbers is an error."""
    xs, vals = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                x, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if xs:
                    raise ValueError(f"{path}, line {reader.line_num}: not an "
                                     f"(x, value) row: {row!r}") from None
                continue
            xs.append(x)
            vals.append(v)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two (x, value) rows")
    xs = np.asarray(xs)
    vals = np.asarray(vals)
    # profiles read from CSV are taken at face value: compactly supported
    # when they vanish at both ends, and assumed twice differentiable
    compact = bool(vals[0] == 0.0 and vals[-1] == 0.0)
    return GridFunction(xs, vals, compact_support=compact, smooth2=True)


def _fmt(v, precision: int) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f) or math.isinf(f):
        return repr(f)
    return format(f, f".{precision}g")


class Emitter:
    """Deterministic writer: '.' decimal, header row, stable key order."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.header = (f"# slhyper {__version__} config {cfg.sha}")

    def _sink(self):
        if self.cfg.out:
            return open(self.cfg.out, "w", encoding="utf-8", newline="")
        return None

    def csv(self, columns: list, rows) -> None:
        sink = self._sink()
        out = sink if sink is not None else sys.stdout
        try:
            out.write(self.header + "\n")
            out.write(",".join(columns) + "\n")
            p = self.cfg.precision
            for row in rows:
                out.write(",".join(_fmt(v, p) for v in row) + "\n")
        finally:
            if sink is not None:
                sink.close()

    def json(self, doc: dict) -> None:
        payload = {"meta": {"version": __version__, "config": self.cfg.sha}}
        payload.update(doc)
        text = json.dumps(payload, indent=2, allow_nan=True,
                          default=_json_default)
        sink = self._sink()
        if sink is not None:
            with sink:
                sink.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")


def _json_default(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"not JSON serializable: {type(v)}")


def _config_from(args) -> RunConfig:
    cfg = RunConfig(op=args.op, L=args.L, N=args.N,
                    lambda_max=args.lambda_max, fmt=args.format,
                    out=args.out, precision=args.precision)
    if cfg.L <= 0 or cfg.N <= 0:
        raise ValueError("numeric parameters must be positive")
    if cfg.lambda_max is not None and cfg.lambda_max <= 0:
        raise ValueError("lambda-max must be positive")
    if not (6 <= cfg.precision <= 17):
        raise ValueError("precision must lie in [6, 17]")
    return cfg


def _measure(cfg: RunConfig):
    spec = load_operator(cfg.op)
    return build_spectral_measure(spec, L=cfg.L, N=cfg.N,
                                  lambda_max=cfg.lambda_max)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    cfg = _config_from(args)
    spec = load_operator(cfg.op)
    boundary = check_left_boundary(spec)
    sf = build_standard_form(spec)
    cert = certify_mp(sf)
    doc = {
        "operator": spec.name,
        "mp_certified": bool(cert.all_ok),
        "sigma": sf.sigma,
        "sigma2": sf.sigma ** 2,
        "checks": {k: bool(v) for k, v in sorted(cert.checks.items())},
        "left_boundary": {k: boundary[k] for k in sorted(boundary)},
    }
    Emitter(cfg).json(doc)
    return 0


def _cmd_kernel(args) -> int:
    cfg = _config_from(args)
    spec = load_operator(cfg.op)
    ev = KernelEvaluator(spec)
    xs = _parse_grid(args.x)
    rows = []
    for lam in _parse_lambdas(getattr(args, "lambda")):
        w, w1, err = ev.eval_grid(lam, np.sort(xs))
        for x, wv, w1v in zip(np.sort(xs), w, w1):
            rows.append((lam.real, lam.imag, x, wv.real, wv.imag,
                         w1v.real, w1v.imag, err))
    Emitter(cfg).csv(["lambda_re", "lambda_im", "x", "w_re", "w_im",
                      "w1_re", "w1_im", "est_error"], rows)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _config_from(args)
    sm = _measure(cfg)
    rows = [(k, sm.lambdas[k], sm.masses[k]) for k in range(len(sm.lambdas))]
    Emitter(cfg).csv(["k", "lambda_k", "mass_k"], rows)
    return 0


def _cmd_transform(args) -> int:
    cfg = _config_from(args)
    h = _read_grid_function(args.h)
    sm = _measure(cfg)
    tbl = forward_transform(h, sm)
    rows = [(lam, v.real, v.imag)
            for lam, v in zip(tbl.lambdas, tbl.values)]
    Emitter(cfg).csv(["lambda", "fh_re", "fh_im"], rows)
    return 0


def _cmd_heatkernel(args) -> int:
    cfg = _config_from(args)
    sm = _measure(cfg)
    xg = _parse_grid(args.x_grid)
    yg = _parse_grid(args.y_grid)
    rows = []
    for x in xg:
        p = heat_kernel_grid(args.t, float(x), yg, sm)
        rows.extend((args.t, float(x), float(y), float(v))
                    for y, v in zip(yg, p))
    Emitter(cfg).csv(["t", "x", "y", "p"], rows)
    return 0


def _cmd_product(args) -> int:
    cfg = _config_from(args)
    sm = _measure(cfg)
    xi = default_xi_grid(sm, args.t, args.x, args.y) \
        if args.xi_grid is None else _parse_grid(args.xi_grid)
    pk = product_density(args.t, args.x, args.y, xi, sm)
    rows = [(float(u), float(q), pk.mass) for u, q in zip(pk.xi, pk.values)]
    Emitter(cfg).csv(["xi", "q", "mass"], rows)
    return 0


def _cmd_translate(args) -> int:
    cfg = _config_from(args)
    h = _read_grid_function(args.h)
    sm = _measure(cfg)
    sf = build_standard_form(sm.spec)
    cert = certify_mp(sf)
    case = None
    if args.t_reg == 0.0:
        case = classify_support(max(args.y, h.grid[0]), args.y, sf,
                                support_params(cert)).case
    out = translate(h, args.y, sm, t_reg=args.t_reg, support_case=case)
    rows = list(zip(out.grid, out.values))
    Emitter(cfg).csv(["x", "value"], rows)
    return 0


def _cmd_convolve(args) -> int:
    cfg = _config_from(args)
    h = _read_grid_function(args.h)
    g = _read_grid_function(args.g)
    sm = _measure(cfg)
    out = convolve_functions(h, g, sm, t_reg=args.t_reg)
    rows = list(zip(out.grid, out.values))
    Emitter(cfg).csv(["x", "value"], rows)
    return 0


def _cmd_support(args) -> int:
    cfg = _config_from(args)
    spec = load_operator(cfg.op)
    sf = build_standard_form(spec)
    cert = certify_mp(sf)
    rep = classify_support(args.x, args.y, sf, support_params(cert))
    doc = {
        "case": rep.case,
        "support": [[lo, hi] for lo, hi in rep.intervals],
        "x": args.x, "y": args.y,
    }
    Emitter(cfg).json(doc)
    return 0


def _cmd_cauchy(args) -> int:
    cfg = _config_from(args)
    h = _read_grid_function(args.h)
    xs = _parse_grid(args.grid)
    sm = _measure(cfg)
    sol = solve_cauchy(h, sm, xs)
    res = np.full_like(sol.values, np.nan)
    res[2:-2, 2:-2] = sol.pde_residual()
    rows = []
    for i, x in enumerate(sol.xs):
        for j, y in enumerate(sol.ys):
            rows.append((float(x), float(y), float(sol.values[i, j]),
                         float(res[i, j])))
    Emitter(cfg).csv(["x", "y", "f", "pde_residual"], rows)
    return 0


class _EigenPair:
    """v(xi, zeta) = w(x(xi)) w(x(zeta)) with derivatives via one kernel
    evaluation per axis; the cheap exact test object for the triangle
    identity."""

    def __init__(self, ev: KernelEvaluator, sf, lam: float):
        self.ev, self.sf, self.lam = ev, sf, lam

    def _wx(self, xi, deriv):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        x = np.array([self.sf.gamma_inv(u) for u in xi])
        order = np.argsort(x)
        w, w1, _ = self.ev.eval_grid(self.lam, x[order])
        w = w.real[np.argsort(order)]
        w1 = w1.real[np.argsort(order)]
        if deriv == 0:
            out = w
        else:
            # w1 is the flux p w'; d/dxi = sqrt(p/r) d/dx, so divide by
            # sqrt(p r)
            scale = 1.0 / np.sqrt(self.sf.spec.p(x) * self.sf.spec.r(x))
            if deriv == 1:
                out = w1 * scale
            else:
                h = 1e-4
                out = (np.atleast_1d(self._wx(xi + h, 1))
                       - np.atleast_1d(self._wx(xi - h, 1))) / (2 * h)
        return out if out.size > 1 else float(out[0])

    def __call__(self, xi, zeta):
        return self._wx(xi, 0) * self._wx(zeta, 0)

    def d_xi(self, xi, zeta):
        return self._wx(xi, 1) * self._wx(zeta, 0)

    def d_zeta(self, xi, zeta):
        return self._wx(xi, 0) * self._wx(zeta, 1)

    def dd_xi(self, xi, zeta):
        return self._wx(xi, 2) * self._wx(zeta, 0)

    def dd_zeta(self, xi, zeta):
        return self._wx(xi, 0) * self._wx(zeta, 2)


def _cmd_triangle(args) -> int:
    cfg = _config_from(args)
    spec = load_operator(cfg.op)
    sf = build_standard_form(spec)
    cert = certify_mp(sf)
    ev = KernelEvaluator(spec)
    v = _EigenPair(ev, sf, args.lam)
    rep = triangle_identity_residual(v, args.c, args.x, args.y, cert,
                                     n=args.n)
    doc = {
        "c": rep.c, "x": rep.x, "y": rep.y, "n": rep.n,
        "H": rep.H, "I0": rep.I0, "I1": rep.I1, "I2": rep.I2,
        "I3": rep.I3, "I4": rep.I4, "lhs": rep.lhs,
        "residual": rep.residual,
    }
    Emitter(cfg).json(doc)
    return 0


def _cmd_solve_inteq(args) -> int:
    cfg = _config_from(args)
    psi = _read_grid_function(args.psi)
    if args.f.startswith("heatkernel:"):
        t, x = (float(v) for v in args.f[len("heatkernel:"):].split(","))
        sol = solve_qt_equation(t, x, psi, _measure(cfg))
    else:
        f = _read_grid_function(args.f)
        sm = _measure(cfg)
        kappa = sm.sigma2 if args.kappa is None else args.kappa
        prob = EquationProblem(f=f, psi=psi, kappa=kappa, rho=args.rho)
        sol = solve_equation(prob, sm)
    rows = list(zip(sol.h.grid, sol.h.values))
    em = Emitter(cfg)
    em.csv(["x", "h"], rows)
    diag = dict(sorted(sol.diagnostics.items()))
    diag_cfg = RunConfig(**{**cfg.__dict__, "out": args.diagnostics})
    Emitter(diag_cfg).json({"diagnostics": diag})
    return 0


def _cmd_selftest(args) -> int:
    cfg = _config_from(args)
    lines = []

    def report(name, value, tol):
        ok = value <= tol
        lines.append(f"{'ok' if ok else 'FAIL'} {name} "
                     f"{_fmt(value, 6)} (tol {_fmt(tol, 6)})")
        return ok

    all_ok = True
    spec = load_operator("builtin:cosine")
    ev = KernelEvaluator(spec)
    xs = np.linspace(0.0, 5.0, 41)
    err = 0.0
    for lam in (0.0, 1.0, 4.0, 10.0):
        w, _, _ = ev.eval_grid(lam, xs)
        err = max(err, float(np.max(np.abs(w.real - np.cos(xs * math.sqrt(lam))))))
    all_ok &= report("kernel-cosine", err, 1e-8)

    spec_b = load_operator("builtin:bessel?alpha=0.5")
    ev_b = KernelEvaluator(spec_b)
    err = 0.0
    for lam in (1.0, 4.0, 10.0):
        w, _, _ = ev_b.eval_grid(lam, xs)
        ref = np.sinc(xs * math.sqrt(lam) / math.pi)
        err = max(err, float(np.max(np.abs(w.real - ref))))
    all_ok &= report("kernel-bessel", err, 1e-7)

    rng = np.random.default_rng(20240817)
    err = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.0, 40.0))
        x = float(rng.uniform(0.0, 6.0))
        err = max(err, abs(ev.eval_w(lam, x).w) - 1.0,
                  abs(ev_b.eval_w(lam, x).w) - 1.0)
    all_ok &= report("kernel-bound", err, 1e-9)

    sm = build_spectral_measure(spec, L=16.0, N=2048, lambda_max=1600.0)
    errc = max(abs(sm.cumulative(v) - 2.0 * math.sqrt(v) / math.pi)
               for v in (1.0, 4.0, 16.0))
    all_ok &= report("spectrum-cosine", errc, 2e-2)

    grid = np.linspace(0.0, 12.0, 1201)
    h = bump_function(2.0, 1.0, grid)
    tbl = forward_transform(h, sm)
    back = inverse_transform(tbl, sm, grid).values
    l2 = math.sqrt(float(np.trapezoid((back - h.values) ** 2, grid)))
    ref = math.sqrt(float(np.trapezoid(h.values ** 2, grid)))
    all_ok &= report("parseval-roundtrip", l2 / ref, 1e-3)

    sf = build_standard_form(spec)
    cert = certify_mp(sf)
    rep = classify_support(1.0, 2.0, sf, support_params(cert))
    case_err = 0.0 if (rep.case == "a" and
                       np.allclose(rep.intervals, [(1, 1), (3, 3)])) else 1.0
    all_ok &= report("support-cosine", case_err, 0.0)

    text = "\n".join([f"slhyper selftest {__version__}"] + lines +
                     [f"result {'PASS' if all_ok else 'FAIL'}"]) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slhyper",
        description="Sturm-Liouville kernels, spectral transforms, and "
                    "hypergroup convolution on a half line")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, op_default=None):
        p.add_argument("--op", default=op_default or "builtin:cosine",
                       help="operator: builtin:<name> or JSON file")
        p.add_argument("--L", type=float, default=16.0)
        p.add_argument("--N", type=int, default=2048)
        p.add_argument("--lambda-max", dest="lambda_max", type=float,
                       default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--precision", type=int, default=12)
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override flags")

    p = sub.add_parser("validate", help="boundary + maximum-principle checks")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("kernel", help="kernel values w_lambda(x)")
    common(p)
    p.add_argument("--lambda", required=True, help="comma list, complex ok")
    p.add_argument("--x", required=True, help="grid start:stop:count or list")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("spectrum", help="spectral measure atoms")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("transform", help="forward transform of a CSV profile")
    common(p)
    p.add_argument("--h", required=True, help="CSV of (x, value)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("heatkernel", help="p(t, x, y) on a grid")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-grid", dest="x_grid", required=True)
    p.add_argument("--y-grid", dest="y_grid", required=True)
    p.set_defaults(func=_cmd_heatkernel)

    p = sub.add_parser("product", help="regularized product kernel q_t")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--xi-grid", dest="xi_grid", default=None)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("translate", help="generalized translation T^y h")
    common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--t-reg", dest="t_reg", type=float, default=1e-3)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("convolve", help="convolution h * g")
    common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t-reg", dest="t_reg", type=float, default=1e-3)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("support", help="support of delta_x * delta_y")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("cauchy", help="solve the characteristic Cauchy problem")
    common(p)
    p.add_argument("--h", required=True, help="boundary profile CSV")
    p.add_argument("--grid", required=True, help="solution grid spec")
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("triangle", help="triangle identity residual report")
    common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--lam", type=float, default=2.0,
                   help="frequency of the eigenfunction test solution")
    p.add_argument("--n", type=int, default=100)
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("solve-inteq",
                       help="convolution equation of the second kind")
    common(p)
    p.add_argument("--f", required=True,
                   help="kernel generator: CSV path or heatkernel:t,x")
    p.add_argument("--psi", required=True, help="right-hand side CSV")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--rho", type=complex, default=1.0)
    p.add_argument("--diagnostics", default=None,
                   help="JSON diagnostics path (default stdout)")
    p.set_defaults(func=_cmd_solve_inteq)

    p = sub.add_parser("selftest", help="run the built-in oracle suite")
    common(p)
    p.set_defaults(func=_cmd_selftest)
    return ap


def _merge_config_file(args, ap: argparse.ArgumentParser) -> None:
    """Override flags with the entries of the --config JSON file.  Each
    value is read as if its JSON text followed the flag on the command
    line: through the flag's type and choices."""
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[args.command]._actions
             if a.option_strings and a.dest != "help"}
    for key, val in doc.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config file: unknown key {key!r}")
        text = val if isinstance(val, str) else json.dumps(val)
        try:
            val = (action.type or str)(text)
        except ValueError:
            raise ValueError(f"config file: invalid {key!r}: {text}") from None
        if action.choices and val not in action.choices:
            raise ValueError(f"config file: invalid {key!r}: {text}")
        setattr(args, action.dest, val)


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _merge_config_file(args, ap)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"slhyper: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
