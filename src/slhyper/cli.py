"""Command line front end.

Every subcommand runs one library operation and writes deterministic CSV,
JSON or text.  The subcommands are one table, COMMANDS, of help text, output
format, own flags and compute function; one dispatcher parses, merges
--config, loads the operator once for the compute function (``args.spec``),
checks every value before any profile is read, hashes the resolved
configuration and emits.  CSV and JSON outputs open with the package
version and that hash, so identical invocations of the same build produce
byte-identical files.

Each command runs in a process of its own, so the module imports only numpy
and the operator layer, which every command reads; each compute function
imports the layers it runs.  ``validate``, ``support``, ``kernel`` and
``triangle`` load no scipy.  The measure commands and ``selftest`` add
scipy's compiled LAPACK extension alone (``kernel._lapack``), for the
eigensolve and the eigenfunction splines' fit, and no scipy package
module; every spline is evaluated in numpy (``kernel.RowSpline``).
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
from .expr import sqrt_ratio
from .operator import (load_operator, build_standard_form, certify_mp,
                       support_params, check_left_boundary, classify_support)

if TYPE_CHECKING:
    from .kernel import KernelEvaluator
    from .spectral import GridFunction

__all__ = ["main"]


# ---------------------------------------------------------------------------
# inputs and outputs


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec: either "start:stop:count" or a comma list, of one point
    or more either way; the commands whose grids need two points (cauchy's
    --grid, product's --xi-grid) check them with the library's own rule,
    spectral._checked_grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {text!r}: want start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid needs at least 1 point")
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
    two finite numbers is an error."""
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
            if not (math.isfinite(x) and math.isfinite(v)):
                raise ValueError(f"{path}, line {reader.line_num}: not "
                                 f"finite: {row!r}")
            xs.append(x)
            vals.append(v)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two (x, value) rows")
    vals = np.asarray(vals)
    # profiles read from CSV are taken at face value: compactly supported
    # when they vanish at both ends, and assumed twice differentiable
    compact = bool(vals[0] == 0.0 and vals[-1] == 0.0)
    return GridFunction(xs, vals, compact_support=compact, smooth2=True)


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

    def csv(self, columns: dict) -> None:
        """columns: name -> array.  The arrays broadcast against each other
        and give one row per element, in C order.  A complex column is
        written as <name>_re,<name>_im, an integer column with %d and every
        other column with %.<precision>g."""
        names, fmts, cols = [], [], []
        for name, col in zip(columns, np.broadcast_arrays(*columns.values())):
            parts = ((f"{name}_re", col.real), (f"{name}_im", col.imag)) \
                if np.iscomplexobj(col) else ((name, col),)
            for part, values in parts:
                names.append(part)
                fmts.append("%d" if values.dtype.kind in "iu"
                            else f"%.{self.precision}g")
                cols.append(values.ravel().tolist())
        row = ",".join(fmts) + "\n"
        self.text("".join([self.header + "\n", ",".join(names) + "\n"] +
                          [row % values for values in zip(*cols)]))

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
    """Before the build: spectral._check_domain on each (what, points)."""
    from .spectral import _check_domain

    for what, points in named:
        _check_domain(points, args.spec.a, args.L, f"{what}: ")


def _measure(args):
    from .spectral import build_spectral_measure

    return build_spectral_measure(args.spec, L=args.L, N=args.N,
                                  lambda_max=args.lambda_max)


# ---------------------------------------------------------------------------
# compute functions: each reads its inputs before it builds the measure and
# returns what its format writes: a dict of named columns for CSV (see
# Emitter.csv), which solve-inteq pairs with its diagnostics dict; a dict for
# JSON; (text, exit code) for text


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
        "violations": dict(sorted(cert.violations.items())),
        "left_boundary": {k: boundary[k] for k in sorted(boundary)},
    }


def _kernel(args):
    from .kernel import KernelEvaluator

    ev = KernelEvaluator(args.spec)
    xs = np.sort(_parse_grid(args.x))
    lams = np.array([complex(v) for v in getattr(args, "lambda").split(",")])
    W, W1, errs = ev.eval_many(lams, xs)
    return {"lambda": lams[:, None], "x": xs, "w": W, "w1": W1,
            "est_error": errs[:, None]}


def _spectrum(args):
    sm = _measure(args)
    return {"k": np.arange(len(sm.lambdas)), "lambda_k": sm.lambdas,
            "mass_k": sm.masses}


def _transform(args):
    from .spectral import forward_transform

    h = _read_grid_function(args.h)
    _in_domain(args, (args.h, h.grid))
    tbl = forward_transform(h, _measure(args))
    return {"lambda": tbl.lambdas, "fh": tbl.values.astype(complex)}


def _heatkernel(args):
    from .spectral import heat_kernel_grid

    xg, yg = _parse_grid(args.x_grid), _parse_grid(args.y_grid)
    _in_domain(args, ("--x-grid", xg), ("--y-grid", yg))
    p = heat_kernel_grid(args.t, xg, yg, _measure(args))
    return {"t": args.t, "x": xg[:, None], "y": yg, "p": p}


# the largest |1 - mass| product writes: q_t is a probability density, so a
# larger deviation is mass the xi grid or the measure's [a, L] cut off
_MASS_TOL = 1e-3


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
    if not abs(1.0 - pk.mass) <= _MASS_TOL:
        raise ValueError(f"q_t has mass {pk.mass:.6g}, not 1 within "
                         f"{_MASS_TOL:g}: widen --xi-grid or raise --L")
    return {"xi": pk.xi, "q": pk.values, "mass": pk.mass}


def _translate(args):
    from .hconv import translate

    h = _read_grid_function(args.h)
    _in_domain(args, (args.h, h.grid), ("--y", args.y))
    out = translate(h, args.y, _measure(args), t_reg=args.t_reg)
    return {"x": out.grid, "value": out.values}


def _convolve(args):
    from .hconv import convolve_functions

    h = _read_grid_function(args.h)
    g = _read_grid_function(args.g)
    _in_domain(args, (args.h, h.grid), (args.g, g.grid))
    out = convolve_functions(h, g, _measure(args), t_reg=args.t_reg)
    return {"x": out.grid, "value": out.values}


def _support(args) -> dict:
    sf = build_standard_form(args.spec)
    rep = classify_support(args.x, args.y, sf, support_params(certify_mp(sf)))
    return {
        "case": rep.case,
        "support": [[lo, hi] for lo, hi in rep.intervals],
        "x": args.x, "y": args.y,
    }


def _cauchy(args):
    from .cauchy import _checked_problem, solve_cauchy

    h = _read_grid_function(args.h)
    xs, _ = _checked_problem(h, _parse_grid(args.grid), None)
    _in_domain(args, (args.h, h.grid), ("--grid", xs))
    sol = solve_cauchy(h, _measure(args), xs)
    res = np.full_like(sol.values, np.nan)
    res[2:-2, 2:-2] = sol.pde_residual()
    return {"x": sol.xs[:, None], "y": sol.ys, "f": sol.values,
            "pde_residual": res}


class _EigenPair:
    """v(xi, zeta) = u(xi) u(zeta), u = w_lam o gamma^{-1}, and its
    derivatives: the cheap exact test object for the triangle identity.
    (u, u', u'') comes once per distinct point set from one array gamma_inv
    and one eval_grid: u' = p w' / A, A = sqrt(p r) (``sqrt_ratio``), and,
    from the standard form, u'' = -lam u - (A'/A) u'."""

    def __init__(self, ev: KernelEvaluator, sf, lam: float):
        self.ev, self.sf, self.lam = ev, sf, lam
        self._known: dict = {}

    def _u(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xi = np.asarray(xi, dtype=float)
        key = (xi.shape, xi.tobytes())
        if key not in self._known:
            pts, where = np.unique(xi, return_inverse=True)
            x = self.sf.gamma_inv(pts)
            w, w1, _ = self.ev.eval_grid(self.lam, x)
            spec = self.sf.spec
            u1 = w1.real / sqrt_ratio([spec.p, spec.r], x=x)
            u2 = -self.lam * w.real - 2.0 * self.sf._half_log_pr_deriv(x) * u1
            self._known[key] = tuple(f[where].reshape(xi.shape)
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
    from .cauchy import _checked_panels, triangle_identity_residual

    _checked_panels(args.n)
    sf = build_standard_form(args.spec)
    v = _EigenPair(KernelEvaluator(args.spec), sf, args.lam)
    return dataclasses.asdict(triangle_identity_residual(
        v, args.c, args.x, args.y, certify_mp(sf), n=args.n))


def _heat_slice(text: str) -> tuple[float, float] | None:
    """(t, x) of a --f heatkernel:t,x kernel, or None for a CSV path."""
    from .spectral import _positive_time

    if not text.startswith("heatkernel:"):
        return None
    try:
        t, x = (float(v) for v in text[len("heatkernel:"):].split(","))
    except ValueError:
        raise ValueError("--f heatkernel:t,x needs two numbers t,x") from None
    if not math.isfinite(x):
        raise ValueError("--f heatkernel:t,x must be finite")
    return _positive_time(t, "--f heatkernel:t,x"), x


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
    return ({"x": sol.h.grid, "h": sol.h.values},
            dict(sorted(sol.diagnostics.items())))


def _selftest(args):
    from .kernel import KernelEvaluator
    from .spectral import (build_spectral_measure, bump_function,
                           forward_transform, inverse_transform)

    lines = []

    def report(name, value, tol):
        ok = value <= tol
        lines.append(f"{'ok' if ok else 'FAIL'} {name} "
                     f"{value:.6g} (tol {tol:.6g})")
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

    # 50 random (lambda, x) pairs: pair i is entry (i, i) of one batched
    # evaluation per operator
    lams, xb = np.random.default_rng(20240817).uniform(
        (0.0, 0.0), (40.0, 6.0), (50, 2)).T
    err = 0.0
    for e in (ev, ev_b):
        w = e.eval_many(lams, xb)[0].diagonal()
        err = max(err, float(np.max(np.abs(w))) - 1.0)
    all_ok &= report("kernel-bound", err, 1e-9)

    del e, ev_b  # the measure reuses the cosine table, not the Bessel one
    sm = build_spectral_measure(spec, L=16.0, N=2048, lambda_max=1600.0,
                                evaluator=ev)
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
# flags that name an input file: the hash covers the file's bytes
_INPUTS = ("op", "h", "g", "f", "psi")


def _input_key(text: str) -> str:
    """The SHA-256 of the bytes of the file text names, or text itself for a
    builtin operator, a heatkernel:t,x kernel or a file that cannot be read
    (the command reports it when it reads the file)."""
    try:
        if not text.startswith(("builtin:", "heatkernel:")):
            with open(text, "rb") as fh:
                return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        pass
    return text


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
    """Merge --config, load the operator, check the values before any
    profile is read, hash the resolved configuration, compute and emit;
    returns the exit code."""
    cmd = COMMANDS[args.command]
    flags = _flags(cmd)
    if args.config:
        _merge_config_file(args, flags)
    vals = {dest: getattr(args, dest) for dest in flags}
    _check_finite(flags, vals)
    if not 6 <= vals.get("precision", 12) <= 17:
        raise ValueError("precision must lie in [6, 17]")
    # every command but selftest reads the operator: it is loaded once here
    args.spec = load_operator(args.op) if "op" in vals else None
    if "L" in vals:
        from .spectral import _checked_sizes, _positive_time

        _checked_sizes(args.spec, args.L, args.N, args.lambda_max)
        for dest in vals.keys() & {"t", "t_reg"}:
            _positive_time(vals[dest], flags[dest][0])
    doc = {"command": args.command,
           **{k: _input_key(v) if k in _INPUTS else v
              for k, v in vals.items() if k not in _UNHASHED}}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=repr)
    sha = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    em = Emitter(sha, args.out, vals.get("precision"))
    result = cmd.compute(args)
    if cmd.fmt == "text":
        text, code = result
        em.text(text)
        return code
    if cmd.fmt == "json":
        em.json(result)
        return 0
    columns, *diagnostics = result if isinstance(result, tuple) else (result,)
    em.csv(columns)
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
