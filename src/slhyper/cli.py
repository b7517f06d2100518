"""Command line front end.

Every subcommand runs one library operation and writes deterministic CSV,
JSON or text.  The subcommands are one table, COMMANDS, of help text, output
format, own flags and compute function; one dispatcher parses, merges
--config, checks, hashes the resolved configuration, loads the operator
once for the compute function (``args.spec``) and emits.  CSV and JSON
outputs open with the package version and that hash, so identical
invocations of the same build produce byte-identical files.

Each command runs in a process of its own, so the module imports only numpy
and the operator layer, which every command reads; each compute function
imports the layers it runs.  ``validate`` and ``support`` load no scipy,
and no command loads scipy.integrate: the kernel ODE is solved in numpy
(``slhyper.ode``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .operator import (load_operator, build_standard_form, certify_mp,
                       support_params, check_left_boundary, classify_support)

if TYPE_CHECKING:
    from .kernel import KernelEvaluator
    from .spectral import GridFunction

__all__ = ["main"]


# ---------------------------------------------------------------------------
# inputs and outputs


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


def _real_or_complex(text: str) -> float | complex:
    """A number, as a float when its imaginary part is 0: "1" and "1+0j"
    read like a float default, so they give the same real arithmetic."""
    z = complex(text)
    return z.real if z.imag == 0 else z


def _read_grid_function(path: str) -> GridFunction:
    """(x, value) rows of a CSV file.  Blank and '#' lines are skipped, as
    is one header row before the first data row; any other row that is not
    two numbers is an error."""
    from .spectral import GridFunction

    xs, vals = [], []
    header = False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                x, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if xs or header:
                    raise ValueError(f"{path}, line {reader.line_num}: not an "
                                     f"(x, value) row: {row!r}") from None
                header = True
                continue
            xs.append(x)
            vals.append(v)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two (x, value) rows")
    vals = np.asarray(vals)
    # profiles read from CSV are taken at face value: compactly supported
    # when they vanish at both ends, and assumed twice differentiable
    compact = bool(vals[0] == 0.0 and vals[-1] == 0.0)
    return GridFunction(xs, vals, compact_support=compact, smooth2=True)


def _fmt(v, precision: int) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f) or math.isinf(f):
        return repr(f)
    return format(f, f".{precision}g")


class Emitter:
    """Deterministic writer to a path, or stdout when it is None: '.'
    decimal, header row, stable key order."""

    def __init__(self, sha: str, out: str | None, precision: int | None = None):
        self.sha, self.out, self.precision = sha, out, precision
        self.header = f"# slhyper {__version__} config {sha}"

    def text(self, text: str) -> None:
        if self.out:
            with open(self.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    def csv(self, columns: list, rows) -> None:
        p = self.precision
        self.text("".join([self.header + "\n", ",".join(columns) + "\n"] +
                          [",".join(_fmt(v, p) for v in row) + "\n"
                           for row in rows]))

    def json(self, doc: dict) -> None:
        payload = {"meta": {"version": __version__, "config": self.sha}, **doc}
        self.text(json.dumps(payload, indent=2, allow_nan=True,
                             default=_json_default) + "\n")


def _json_default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.generic, np.ndarray)):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _in_domain(args, *named) -> None:
    """Before the build: raise unless every point of the (what, points)
    pairs lies in [a, L], from the operator's left end to where the
    measure's eigenfunctions end."""
    a, L = args.spec.a, args.L
    for what, points in named:
        if np.any(np.less(points, a)):
            raise ValueError(f"{what}: points below a = {a:g}, the "
                             "operator's left end")
        if np.any(np.greater(points, L)):
            raise ValueError(f"{what}: points past L = {L:g}, where the "
                             "eigenfunctions end")


def _measure(args):
    from .spectral import build_spectral_measure

    return build_spectral_measure(args.spec, L=args.L, N=args.N,
                                  lambda_max=args.lambda_max)


# ---------------------------------------------------------------------------
# compute functions: each reads its inputs before it builds the measure and
# returns what its format writes: (columns, rows) for CSV, with solve-inteq
# adding its diagnostics dict; a dict for JSON; (text, exit code) for text


def _validate(args) -> dict:
    spec = args.spec
    boundary = check_left_boundary(spec)
    sf = build_standard_form(spec)
    cert = certify_mp(sf)
    return {
        "operator": spec.name,
        "mp_certified": bool(cert.all_ok),
        "sigma": sf.sigma,
        "sigma2": sf.sigma ** 2,
        "checks": {k: bool(v) for k, v in sorted(cert.checks.items())},
        "left_boundary": {k: boundary[k] for k in sorted(boundary)},
    }


def _kernel(args):
    from .kernel import KernelEvaluator

    ev = KernelEvaluator(args.spec)
    xs = np.sort(_parse_grid(args.x))
    lams = [complex(v) for v in getattr(args, "lambda").split(",")]
    W, W1, errs = ev.eval_many(lams, xs)
    return ["lambda_re", "lambda_im", "x", "w_re", "w_im",
            "w1_re", "w1_im", "est_error"], [
        (lam.real, lam.imag, x, wv.real, wv.imag, w1v.real, w1v.imag, err)
        for lam, w, w1, err in zip(lams, W, W1, errs)
        for x, wv, w1v in zip(xs, w, w1)]


def _spectrum(args):
    sm = _measure(args)
    return ["k", "lambda_k", "mass_k"], [
        (k, lam, m) for k, (lam, m) in enumerate(zip(sm.lambdas, sm.masses))]


def _transform(args):
    from .spectral import forward_transform

    h = _read_grid_function(args.h)
    _in_domain(args, (args.h, h.grid))
    tbl = forward_transform(h, _measure(args))
    return ["lambda", "fh_re", "fh_im"], [
        (lam, v.real, v.imag) for lam, v in zip(tbl.lambdas, tbl.values)]


def _heatkernel(args):
    from .spectral import heat_kernel_grid

    xg, yg = _parse_grid(args.x_grid), _parse_grid(args.y_grid)
    _in_domain(args, ("--x-grid", xg), ("--y-grid", yg))
    p = heat_kernel_grid(args.t, xg, yg, _measure(args))
    return ["t", "x", "y", "p"], [
        (args.t, float(x), float(y), float(v))
        for x, row in zip(xg, p) for y, v in zip(yg, row)]


def _product(args):
    from .spectral import _checked_grid
    from .hconv import default_xi_grid, product_density

    xi = None if args.xi_grid is None else _checked_grid(
        _parse_grid(args.xi_grid), "xi grid")
    _in_domain(args, ("--x", args.x), ("--y", args.y),
               ("--xi-grid", () if xi is None else xi))
    sm = _measure(args)
    if xi is None:
        xi = default_xi_grid(sm, args.t, args.x, args.y)
    pk = product_density(args.t, args.x, args.y, xi, sm)
    return ["xi", "q", "mass"], [
        (float(u), float(q), pk.mass) for u, q in zip(pk.xi, pk.values)]


def _translate(args):
    from .hconv import translate

    h = _read_grid_function(args.h)
    _in_domain(args, (args.h, h.grid), ("--y", args.y))
    out = translate(h, args.y, _measure(args), t_reg=args.t_reg)
    return ["x", "value"], list(zip(out.grid, out.values))


def _convolve(args):
    from .hconv import convolve_functions

    h = _read_grid_function(args.h)
    g = _read_grid_function(args.g)
    _in_domain(args, (args.h, h.grid), (args.g, g.grid))
    out = convolve_functions(h, g, _measure(args), t_reg=args.t_reg)
    return ["x", "value"], list(zip(out.grid, out.values))


def _support(args) -> dict:
    sf = build_standard_form(args.spec)
    rep = classify_support(args.x, args.y, sf, support_params(certify_mp(sf)))
    return {
        "case": rep.case,
        "support": [[lo, hi] for lo, hi in rep.intervals],
        "x": args.x, "y": args.y,
    }


def _cauchy(args):
    from .spectral import _checked_grid
    from .cauchy import solve_cauchy

    h = _read_grid_function(args.h)
    xs = _checked_grid(_parse_grid(args.grid), "solution grid")
    _in_domain(args, (args.h, h.grid), ("--grid", xs))
    sol = solve_cauchy(h, _measure(args), xs)
    res = np.full_like(sol.values, np.nan)
    res[2:-2, 2:-2] = sol.pde_residual()
    return ["x", "y", "f", "pde_residual"], [
        (float(x), float(y), float(sol.values[i, j]), float(res[i, j]))
        for i, x in enumerate(sol.xs) for j, y in enumerate(sol.ys)]


class _EigenPair:
    """v(xi, zeta) = u(xi) u(zeta), u = w_lam o gamma^{-1}, and its
    derivatives: the cheap exact test object for the triangle identity.
    (u, u', u'') comes once per distinct point set from one array gamma_inv
    and one eval_grid: u' = p w' / A, A = sqrt(p r), and, from the standard
    form, u'' = -lam u - (A'/A) u'."""

    def __init__(self, ev: KernelEvaluator, sf, lam: float):
        self.ev, self.sf, self.lam = ev, sf, lam
        self._known: dict = {}

    def _u(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xi = np.asarray(xi, dtype=float)
        key = (xi.shape, xi.tobytes())
        if key not in self._known:
            pts, where = np.unique(xi, return_inverse=True)
            x = self.sf.gamma_inv(pts)
            # roots of nearly equal targets can swap order by an ulp, and
            # eval_grid needs a sorted grid
            order = np.argsort(x, kind="stable")
            x = x[order]
            w, w1, _ = self.ev.eval_grid(self.lam, x)
            spec = self.sf.spec
            u1 = w1.real / np.sqrt(spec.p(x) * spec.r(x))
            u2 = -self.lam * w.real - 2.0 * self.sf._half_log_pr_deriv(x) * u1
            idx = np.argsort(order)[where]
            self._known[key] = tuple(f[idx].reshape(xi.shape)
                                     for f in (w.real, u1, u2))
        return self._known[key]

    def _product(i, j):
        """(xi, zeta) -> u^(i)(xi) u^(j)(zeta)."""
        return lambda self, xi, zeta: self._u(xi)[i] * self._u(zeta)[j]

    __call__, d_xi, d_zeta = _product(0, 0), _product(1, 0), _product(0, 1)
    dd_xi, dd_zeta = _product(2, 0), _product(0, 2)
    del _product


def _triangle(args) -> dict:
    from .kernel import KernelEvaluator
    from .cauchy import triangle_identity_residual

    sf = build_standard_form(args.spec)
    v = _EigenPair(KernelEvaluator(args.spec), sf, args.lam)
    return dataclasses.asdict(triangle_identity_residual(
        v, args.c, args.x, args.y, certify_mp(sf), n=args.n))


def _heat_slice(text: str) -> tuple[float, float] | None:
    """(t, x) of a --f heatkernel:t,x kernel: two finite numbers, t > 0;
    None for a CSV path."""
    if not text.startswith("heatkernel:"):
        return None
    try:
        t, x = (float(v) for v in text[len("heatkernel:"):].split(","))
    except ValueError:
        raise ValueError("--f heatkernel:t,x needs two numbers t,x") from None
    if not (math.isfinite(t) and math.isfinite(x)):
        raise ValueError("--f heatkernel:t,x must be finite")
    if t <= 0:
        raise ValueError("--f heatkernel:t,x needs t > 0")
    return t, x


def _solve_inteq(args):
    from .inteq import EquationProblem, solve_equation, solve_qt_equation

    heat = _heat_slice(args.f)
    psi = _read_grid_function(args.psi)
    f = None if heat else _read_grid_function(args.f)
    _in_domain(args, (args.psi, psi.grid),
               (args.f, heat[1] if heat else f.grid))
    sm = _measure(args)
    if heat:
        sol = solve_qt_equation(*heat, psi, sm)
    else:
        kappa = sm.sigma2 if args.kappa is None else args.kappa
        prob = EquationProblem(f=f, psi=psi, kappa=kappa, rho=args.rho)
        sol = solve_equation(prob, sm)
    return (["x", "h"], list(zip(sol.h.grid, sol.h.values)),
            dict(sorted(sol.diagnostics.items())))


def _selftest(args):
    from .kernel import KernelEvaluator
    from .spectral import (build_spectral_measure, bump_function,
                           forward_transform, inverse_transform)

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
    lams = np.array([0.0, 1.0, 4.0, 10.0])
    k = np.sqrt(lams)[:, None]
    w = ev.eval_many(lams, xs)[0].real
    err = float(np.max(np.abs(w - np.cos(k * xs))))
    all_ok &= report("kernel-cosine", err, 1e-8)

    spec_b = load_operator("builtin:bessel?alpha=0.5")
    ev_b = KernelEvaluator(spec_b)
    w = ev_b.eval_many(lams[1:], xs)[0].real
    err = float(np.max(np.abs(w - np.sinc(k[1:] * xs / math.pi))))
    all_ok &= report("kernel-bessel", err, 1e-7)

    # 50 random (lambda, x) pairs, sorted by x: pair i is entry (i, i) of
    # one batched evaluation per operator
    pairs = np.random.default_rng(20240817).uniform((0.0, 0.0), (40.0, 6.0),
                                                    (50, 2))
    lams, xb = pairs[np.argsort(pairs[:, 1])].T
    err = 0.0
    for e in (ev, ev_b):
        w = e.eval_many(lams, xb)[0].diagonal()
        err = max(err, float(np.max(np.abs(w))) - 1.0)
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
    return text, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# the command table and its dispatcher


class Command(NamedTuple):
    help: str
    fmt: str                # "csv", "json" or "text": its one output format
    flags: tuple            # (option, add_argument keywords) of its own flags
    compute: Callable


OP = ("--op", dict(default="builtin:cosine",
                   help="operator: builtin:<name> or JSON file"))
MEASURE = (OP,
           ("--L", dict(type=float, default=16.0)),
           ("--N", dict(type=int, default=2048)),
           ("--lambda-max", dict(type=float, default=None)))
H = ("--h", dict(required=True, help="CSV of (x, value)"))
T_REG = ("--t-reg", dict(type=float, default=1e-3))


def _req(type_=None, help=None) -> dict:
    return dict(type=type_, required=True, help=help)


COMMANDS = {
    "validate": Command("boundary + maximum-principle checks", "json",
                        (OP,), _validate),
    "kernel": Command("kernel values w_lambda(x)", "csv", (
        OP, ("--lambda", _req(help="comma list, complex ok")),
        ("--x", _req(help="grid start:stop:count or list"))), _kernel),
    "spectrum": Command("spectral measure atoms", "csv", MEASURE, _spectrum),
    "transform": Command("forward transform of a CSV profile", "csv",
                         (*MEASURE, H), _transform),
    "heatkernel": Command("p(t, x, y) on a grid", "csv", (
        *MEASURE, ("--t", _req(float)), ("--x-grid", _req()),
        ("--y-grid", _req())), _heatkernel),
    "product": Command("regularized product kernel q_t", "csv", (
        *MEASURE, ("--t", _req(float)), ("--x", _req(float)),
        ("--y", _req(float)), ("--xi-grid", dict(default=None))), _product),
    "translate": Command("generalized translation T^y h", "csv", (
        *MEASURE, H, ("--y", _req(float)), T_REG), _translate),
    "convolve": Command("convolution h * g", "csv", (
        *MEASURE, H, ("--g", _req()), T_REG), _convolve),
    "support": Command("support of delta_x * delta_y", "json", (
        OP, ("--x", _req(float)), ("--y", _req(float))), _support),
    "cauchy": Command("solve the characteristic Cauchy problem", "csv", (
        *MEASURE, ("--h", _req(help="boundary profile CSV")),
        ("--grid", _req(help="solution grid spec"))), _cauchy),
    "triangle": Command("triangle identity residual report", "json", (
        OP, ("--c", _req(float)), ("--x", _req(float)), ("--y", _req(float)),
        ("--lam", dict(type=float, default=2.0,
                       help="frequency of the eigenfunction test solution")),
        ("--n", dict(type=int, default=100))), _triangle),
    "solve-inteq": Command("convolution equation of the second kind", "csv", (
        *MEASURE,
        ("--f", _req(help="kernel generator: CSV path or heatkernel:t,x")),
        ("--psi", _req(help="right-hand side CSV")),
        ("--kappa", dict(type=float, default=None)),
        ("--rho", dict(type=_real_or_complex, default=1.0)),
        ("--diagnostics", dict(default=None,
                               help="JSON diagnostics path (default stdout)"))),
        _solve_inteq),
    "selftest": Command("run the built-in oracle suite", "text", (),
                        _selftest),
}

# flag -> (test, message), for every command that has the flag; checked
# before any input is read
_CHECKS = {
    "L": (lambda v: v > 0, "numeric parameters must be positive"),
    "N": (lambda v: v > 0, "numeric parameters must be positive"),
    "lambda_max": (lambda v: v is None or v > 0, "lambda-max must be positive"),
    "t": (lambda v: v > 0, "t must be positive"),
    "t_reg": (lambda v: v > 0, "t-reg must be positive"),
    "precision": (lambda v: 6 <= v <= 17, "precision must lie in [6, 17]"),
}

# dest -> reader of the numbers in the text of a flag that holds a list;
# these numbers and every float or complex flag must be finite
_NUMBER_LISTS = {
    "lambda": lambda text: [complex(v) for v in text.split(",")],
    "x": _parse_grid, "x_grid": _parse_grid, "y_grid": _parse_grid,
    "xi_grid": _parse_grid, "grid": _parse_grid,
}


def _check_finite(flags: dict, vals: dict) -> None:
    """Raise unless every number a flag gives is finite."""
    for dest, (opt, kw) in flags.items():
        v = vals[dest]
        if v is None:
            continue
        if kw.get("type") in (float, _real_or_complex):
            numbers = [v]
        elif dest in _NUMBER_LISTS:
            numbers = _NUMBER_LISTS[dest](v)
        else:
            continue
        if not np.all(np.isfinite(numbers)):
            raise ValueError(f"{opt} must be finite")


# output paths and the config file name the outputs, not what they hold
_UNHASHED = ("out", "diagnostics", "config")


def _flags(cmd: Command) -> dict:
    """dest -> (option, add_argument keywords) for every flag of cmd: its
    own, then those its output format implies."""
    flags = list(cmd.flags)
    if cmd.fmt != "text":
        flags.append(("--format", dict(choices=(cmd.fmt,), default=cmd.fmt)))
    if cmd.fmt == "csv":
        flags.append(("--precision", dict(type=int, default=12)))
    flags += [("--out", dict(default=None, help="output path (default stdout)")),
              ("--config", dict(default=None,
                                help="JSON file whose entries override flags"))]
    return {opt[2:].replace("-", "_"): (opt, kw) for opt, kw in flags}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slhyper",
        description="Sturm-Liouville kernels, spectral transforms, and "
                    "hypergroup convolution on a half line")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for opt, kw in _flags(cmd).values():
            p.add_argument(opt, **kw)
    return ap


def _merge_config_file(args, flags: dict) -> None:
    """Override flags with the entries of the --config JSON file.  Each
    value is read as if its JSON text followed the flag on the command
    line: through the flag's type and choices."""
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file: want a JSON object of flag values")
    for key, val in doc.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ValueError(f"config file: unknown key {key!r}")
        kw = flags[dest][1]
        text = val if isinstance(val, str) else json.dumps(val)
        try:
            val = (kw.get("type") or str)(text)
        except ValueError:
            raise ValueError(f"config file: invalid {key!r}: {text}") from None
        if val not in kw.get("choices", (val,)):
            raise ValueError(f"config file: invalid {key!r}: {text}")
        setattr(args, dest, val)


def _run(args) -> int:
    """Merge --config, check the values, hash the resolved configuration,
    load the operator, compute and emit; returns the exit code."""
    cmd = COMMANDS[args.command]
    flags = _flags(cmd)
    if args.config:
        _merge_config_file(args, flags)
    vals = {dest: getattr(args, dest) for dest in flags}
    _check_finite(flags, vals)
    for dest, (ok, message) in _CHECKS.items():
        if dest in vals and not ok(vals[dest]):
            raise ValueError(message)
    doc = {"command": args.command,
           **{k: v for k, v in vals.items() if k not in _UNHASHED}}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=repr)
    sha = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    em = Emitter(sha, args.out, vals.get("precision"))
    # every command but selftest reads the operator: it is loaded once here
    args.spec = load_operator(args.op) if "op" in vals else None
    result = cmd.compute(args)
    if cmd.fmt == "text":
        text, code = result
        em.text(text)
        return code
    if cmd.fmt == "json":
        em.json(result)
        return 0
    columns, rows, *diagnostics = result
    em.csv(columns, rows)
    for diag in diagnostics:
        Emitter(sha, args.diagnostics).json({"diagnostics": diag})
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"slhyper: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
