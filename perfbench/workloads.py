"""The benchmark's four workloads.

Each workload draws its inputs from the seed alone (``pass_inputs`` once per
timed pass, each pass on its own stream of one seed sequence) and hands the
program only those generated inputs.  ``setup`` does the work a workload
merely queries afterwards; it takes no inputs, so it is the same for every
seed; ``ops`` is the fixed
list of operations of one pass, each a single top-level public call or one
CLI command, paired with the check of its output.  NOTES.md records why
each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles as orc

MODULES = ("expr", "operator", "kernel", "spectral", "hconv", "cauchy",
           "inteq", "cli")


def load_library() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"slhyper.{m}")
                              for m in MODULES})


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], float]


def rng(seed: int, k: int) -> np.random.Generator:
    """The generator of pass k."""
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def bump(grid: np.ndarray, center: float, width: float) -> np.ndarray:
    """exp(-1/(1-u^2)) on |u| < 1, the profile of ``bump_function``."""
    u = (grid - center) / width
    out = np.zeros_like(grid)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def stratified_log(r: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One log-uniform draw from each of n equal log-width bins of [lo, hi],
    so every seed covers the whole range with the same share of each part."""
    edges = np.linspace(math.log10(lo), math.log10(hi), n + 1)
    return 10.0 ** (edges[:-1] + r.uniform(0.0, 1.0, n) * np.diff(edges))


def equation_inputs(grid, h0, x) -> dict:
    """Criterion 12's equation rho h + h * f = psi with rho = 1: f is the flat
    heat slice p(1/4, x, .) and psi = h0 + h0 * f, so the solution is the
    bump h0 = (center, width).  Closed forms, so no library call makes the
    inputs."""
    f = orc.image_heat_kernel(0.25, x, grid)
    h0_vals = bump(grid, *h0)
    psi = h0_vals + orc.cosine_convolve_exact(lambda z: bump(z, *h0), grid, f)
    return {"eq_h0": h0_vals, "eq_f": f, "eq_psi": psi, "eq_x": x}


def _grid_fn(lib, grid, values):
    return lib.spectral.GridFunction(grid, values, compact_support=True,
                                     smooth2=True)


class _Results(dict):
    """Outputs of earlier operations of the same pass."""

    def keep(self, key, value):
        self[key] = value
        return value


# ---------------------------------------------------------------------------


class MeasureBuild:
    """build_spectral_measure from a cold evaluator, once per builtin family,
    at the test-fixture sizes; L varies by +-1% with the seed."""

    name = "measure_build"
    rss = "self"
    FAMILIES = (("cosine", "cosine", 16.0, 2048),
                ("bessel", "bessel?alpha=0.5", 12.0, 4096),
                ("whittaker", "whittaker?alpha=0.25&kappa=1.0", 12.0, 4096))
    LAMBDA_MAX = 1600.0

    def pass_inputs(self, seed, k):
        r = rng(seed, k)
        return {"L": {short: base * (1.0 + r.uniform(-0.01, 0.01))
                      for short, _, base, _ in self.FAMILIES},
                "bump": {short: (r.uniform(2.0, 3.0), r.uniform(1.5, 2.0))
                         for short, _, _, _ in self.FAMILIES}}

    def setup(self, lib, ctx):
        return {short: lib.operator.builtin_operator(name)
                for short, name, _, _ in self.FAMILIES}

    def ops(self, lib, state, inp, ctx):
        ops = []
        for short, _, _, n in self.FAMILIES:
            spec, L = state[short], inp["L"][short]

            def call(spec=spec, L=L, n=n):
                return lib.spectral.build_spectral_measure(
                    spec, L=L, N=n, lambda_max=self.LAMBDA_MAX)

            def check(sm, short=short, L=L):
                # inside the computational interval [a_eff, L] of every
                # family (Whittaker clips a_eff to about 0.034; w_values
                # extrapolates below it, see NOTES.md)
                grid = np.linspace(0.05, 0.75 * L, 1501)
                vals = bump(grid, *inp["bump"][short])
                h = _grid_fn(lib, grid, vals)
                tbl = lib.spectral.forward_transform(h, sm)
                r_vals = np.asarray(sm.spec.r(grid), dtype=float) + np.zeros_like(grid)
                # Whittaker eigenfunctions oscillate in log x, so at
                # lambda_max 1600 the round trip of these bumps is
                # truncation-limited (~6e-3); no test checks it, and only
                # the energy half of the Parseval check applies
                back = (None if short == "whittaker"
                        else (tbl.values * sm.masses) @ sm.w_values(grid))
                base = (orc.cosine_measure(sm.lambdas, sm.masses) if short == "cosine"
                        else orc.measure_atoms(sm.lambdas, sm.masses, sm.sigma2))
                return orc.worst(base, orc.parseval(grid, vals, back, tbl.values,
                                                    sm.masses, r_vals))

            ops.append(Op(f"build.{short}", call, check))
        return ops


class SpectralSums:
    """Spectral sums on one prebuilt cosine measure: seeded bump profiles on
    shared grids through every transform-level public call."""

    name = "spectral_sums"
    rss = "self"
    GRID = np.linspace(0.0, 12.0, 1201)
    HEAT_YS = np.linspace(0.0, 3.0, 13)
    CAUCHY_XS = np.linspace(0.0, 6.0, 201)

    def pass_inputs(self, seed, k):
        r = rng(seed, k)
        u = r.uniform
        # supports of h1 and h2 end before 4.5 and 7, so h1 * h2 and the
        # translates of h2 stay inside the grid.  The pass has an odd number
        # of operations (13), so the median latency is one operation's
        # (solve_cauchy), not the midpoint of a gap between two.
        return {
            "h1": bump(self.GRID, u(2.0, 3.0), u(1.0, 1.5)),
            "h2": bump(self.GRID, u(3.0, 4.5), u(1.5, 2.5)),
            "h3": bump(self.GRID, u(2.0, 3.0), u(1.5, 2.0)),
            "heat": [(u(0.25, 1.0), u(0.0, 3.0)) for _ in range(3)],
            "product": [(u(0.1, 0.5), u(1.0, 3.0), u(1.0, 3.0)) for _ in range(3)],
            "translate_y": u(0.5, 2.5),
            "nu": [(u(0.5, 4.0), u(0.2, 1.0)) for _ in range(3)],
            **equation_inputs(self.GRID, (u(2.5, 3.5), u(1.0, 1.4)), u(0.5, 1.5)),
        }

    def setup(self, lib, ctx):
        spec = lib.operator.builtin_operator("cosine")
        return lib.spectral.build_spectral_measure(spec, L=16.0, N=6144,
                                                   lambda_max=1600.0)

    def ops(self, lib, sm, inp, ctx):
        sp, hc = lib.spectral, lib.hconv
        G = self.GRID
        h1, h2, h3 = (_grid_fn(lib, G, inp[k]) for k in ("h1", "h2", "h3"))
        res = _Results()
        ops = [
            Op("forward_transform",
               lambda: res.keep("tbl", sp.forward_transform(h1, sm)),
               lambda tbl: orc.transform_bounded(G, h1.values, np.ones_like(G),
                                                 tbl.values)),
            Op("inverse_transform",
               lambda: sp.inverse_transform(res["tbl"], sm, G),
               lambda back: orc.parseval(G, h1.values, back.values,
                                         res["tbl"].values, sm.masses,
                                         np.ones_like(G))),
        ]
        for i, (t, x) in enumerate(inp["heat"]):
            ops.append(Op(f"heat_kernel_grid.{i}",
                          lambda t=t, x=x: sp.heat_kernel_grid(t, x, self.HEAT_YS, sm),
                          lambda p, t=t, x=x: orc.heat_images(t, x, self.HEAT_YS, p)))
        for i, (t, x, y) in enumerate(inp["product"]):
            ops.append(Op(f"product_density.{i}",
                          lambda t=t, x=x, y=y: hc.product_density(
                              t, x, y, hc.default_xi_grid(sm, t, x, y), sm),
                          lambda pk: orc.product_kernel(pk.values, pk.mass)))
        y = inp["translate_y"]
        nu = inp["nu"]
        prob = lib.inteq.EquationProblem(f=sp.GridFunction(G, inp["eq_f"]),
                                         psi=sp.GridFunction(G, inp["eq_psi"]),
                                         kappa=0.0)
        ops += [
            Op("translate",
               lambda: hc.translate(h2, y, sm, t_reg=1e-6, out_grid=G),
               lambda out: orc.translate_cosine(G, h2.values, y, G, out.values)),
            Op("convolve_functions",
               lambda: hc.convolve_functions(h1, h2, sm, t_reg=1e-8, out_grid=G),
               lambda out: orc.transform_product(
                   sp.forward_transform(sp.GridFunction(G, out.values), sm).values,
                   sp.forward_transform(h1, sm).values,
                   sp.forward_transform(h2, sm).values)),
            Op("convolve_measures",
               lambda: hc.convolve_measures([(0.0, 1.0)], nu, sm),
               lambda mc: orc.delta_identity(mc.mu_hat, mc.nu_hat, mc.product)),
            Op("solve_cauchy",
               lambda: lib.cauchy.solve_cauchy(h3, sm, self.CAUCHY_XS),
               lambda sol: orc.dalembert(G, h3.values, sol.xs, sol.ys, sol.values)),
            Op("solve_equation",
               lambda: lib.inteq.solve_equation(prob, sm),
               lambda sol: orc.worst(orc.equation(sol.diagnostics),
                                     orc.recovery(G, inp["eq_h0"], sol.h.values))),
        ]
        return ops


class KernelSweep:
    """Kernel ODE work: eval_grid over a stratified log-uniform lambda range
    on three families, complex lambda on a strip boundary, and the callers
    that loop over lambda, on two prebuilt cosine measures."""

    name = "kernel_sweep"
    rss = "self"
    XS = np.linspace(0.0, 10.0, 201)
    GRID = np.linspace(0.0, 11.0, 1101)
    SHIFT_XS = np.linspace(0.2, 6.0, 30)
    FAMILIES = (("cosine", "cosine"), ("bessel", "bessel?alpha=0.5"),
                ("whittaker", "whittaker?alpha=0.25&kappa=1.0"))
    STRIP_KAPPA = -0.25      # strip of half width 1/2 around sigma2 = 0

    def pass_inputs(self, seed, k):
        r = rng(seed, k)
        u = r.uniform
        x_nu, x_pf = u(1.0, 2.0, 2)
        return {
            # stratified draws and fixed sizes keep each pass's total work
            # nearly the same for every seed
            "real": {short: stratified_log(r, 1e-2, 1e3, 12)
                     for short, _ in self.FAMILIES},
            "tau": (np.arange(6) + u(0.0, 1.0, 6)) * (10.0 / 6.0),
            "shift_h": (u(3.5, 4.5), 2.0),
            "strip_f": (u(2.5, 3.5), u(1.0, 1.5)),
            # x + y = 3 fixes the default xi grids of approx_nu and
            # product_formula_residual
            "nu_xy": (x_nu, 3.0 - x_nu),
            "pf_txy": (u(0.2, 0.3), x_pf, 3.0 - x_pf),
            "pf_lams": np.sort(u(0.5, 10.0, 3)),
        }

    def setup(self, lib, ctx):
        op = lib.operator
        specs = {short: op.builtin_operator(name) for short, name in self.FAMILIES}
        evs = {short: lib.kernel.KernelEvaluator(spec) for short, spec in specs.items()}
        build = lib.spectral.build_spectral_measure
        # the small measure keeps the per-atom ODE loops (shifted Cauchy,
        # strip boundary) to 38 lambdas; approx_nu and the product formula
        # need lambda_max 1600 to meet the tests' tolerances
        small = build(specs["cosine"], L=12.0, N=1024, lambda_max=100.0,
                      evaluator=evs["cosine"])
        wide = build(specs["cosine"], L=10.0, N=2048, lambda_max=1600.0,
                     evaluator=evs["cosine"])
        sigma2 = {short: op.build_standard_form(spec).sigma ** 2
                  for short, spec in specs.items()}
        return SimpleNamespace(evs=evs, sm=small, wide=wide, sigma2=sigma2)

    def _real_check(self, short, lam, sigma2):
        xs = self.XS

        def check(out):
            w = out[0]
            r = orc.kernel_bound(w) if lam >= sigma2 else 0.0
            if short == "cosine":
                r = orc.worst(r, orc.kernel_cosine(lam, xs, w))
            elif short == "bessel":
                r = orc.worst(r, orc.kernel_sinc(lam, xs, w))
            return orc.worst(r, orc.require(bool(np.all(np.isfinite(w)))))
        return check

    def ops(self, lib, st, inp, ctx):
        sm, hc, ca, ie = st.sm, lib.hconv, lib.cauchy, lib.inteq
        xs = self.XS
        ops = []
        for short, _ in self.FAMILIES:
            ev = st.evs[short]
            for i, lam in enumerate(inp["real"][short]):
                ops.append(Op(f"eval_grid.{short}.{i}",
                              lambda ev=ev, lam=lam: ev.eval_grid(lam, xs),
                              self._real_check(short, lam, st.sigma2[short])))
        strip = ie.SpectralStrip(self.STRIP_KAPPA, sm.sigma2)
        for i, lam in enumerate(strip.boundary(inp["tau"])):
            ops.append(Op(f"eval_grid.complex.{i}",
                          lambda lam=lam: st.evs["cosine"].eval_grid(lam, xs),
                          lambda out, lam=lam: orc.kernel_cosine(lam, xs, out[0])))

        G = self.GRID
        h = _grid_fn(lib, G, bump(G, *inp["shift_h"]))
        res = _Results()

        def shifted_check(sol):
            ref = ca.solve_cauchy(h, sm, self.SHIFT_XS).values
            errs = [float(np.max(np.abs(res["a0"].values - ref))),
                    float(np.max(np.abs(sol.values - ref)))]
            return orc.shifted_refinement(errs)

        ops += [
            Op("solve_cauchy_shifted.0",
               lambda: res.keep("a0", ca.solve_cauchy_shifted(h, 0.1, sm, self.SHIFT_XS)),
               lambda sol: orc.require(bool(np.all(np.isfinite(sol.values))))),
            Op("solve_cauchy_shifted.1",
               lambda: ca.solve_cauchy_shifted(h, 0.01, sm, self.SHIFT_XS),
               shifted_check),
        ]

        f = _grid_fn(lib, G, bump(G, *inp["strip_f"]))
        ops.append(Op("wiener_levy_check",
                      lambda: ie.wiener_levy_check(f, strip, 1.0, sm, n=16),
                      lambda chk: orc.strip_check(
                          chk, ie.wiener_levy_check(f, ie.SpectralStrip(0.0, 0.0),
                                                    1.0, sm, n=16))))

        big = st.wide
        x, y = inp["nu_xy"]

        def nu_check(na):
            kidx = [int(np.argmin(np.abs(big.lambdas - l))) for l in na.moment_lambdas]
            wx = big.w_values(np.array([x]))[kidx, 0]
            wy = big.w_values(np.array([y]))[kidx, 0]
            return orc.weak_limit(na.cauchy_gaps, na.moments[-1], wx * wy)

        ops.append(Op("approx_nu", lambda: hc.approx_nu(x, y, big), nu_check))

        # one (t, x, y) at several lambda, as criterion 7 queries it
        t, px, py = inp["pf_txy"]
        lams = [0.0] + [float(big.lambdas[np.argmin(np.abs(big.lambdas - l))])
                        for l in inp["pf_lams"]]
        for i, lam in enumerate(lams):
            ops.append(Op(f"product_formula_residual.{i}",
                          lambda lam=lam: hc.product_formula_residual(lam, t, px, py, big),
                          orc.product_residual))
        return ops


# Inputs on which the triangle command fails: the eigen-pair test object asks
# eval_grid for a grid with repeated nodes, which solve_ivp rejects.  Run
# with fixed inputs so that every run shows the defect.
TRIANGLE_DUPLICATE_NODES = ("--c", "0.370262", "--x", "3.363179", "--y", "1.541461")


class CliSession:
    """The README commands, one after another, each as its own process."""

    name = "cli_session"
    rss = "children"
    # explicit small measures, each the cheapest tried (N 512..4096, lambda_max
    # 100..900) whose output meets the command's oracle with margin
    SMALL = ["--N", "512", "--lambda-max", "100"]
    FINE = ["--N", "4096", "--lambda-max", "100"]
    MEDIUM = ["--N", "1024", "--lambda-max", "400"]
    WIDE = ["--N", "2048", "--lambda-max", "900"]

    def pass_inputs(self, seed, k):
        r = rng(seed, k)
        u = r.uniform
        grid = np.linspace(0.0, 12.0, 601)
        # bumps as (center, width)
        return {
            "grid": grid,
            "h": (u(4.0, 5.0), u(2.5, 3.0)),
            "g": (u(4.5, 5.5), u(1.5, 2.5)),
            **equation_inputs(grid, (u(2.5, 3.5), u(2.0, 2.5)), round(u(0.5, 1.5), 6)),
            "lams": np.round(u(1.0, 16.0, 2), 6),
            "heat_t": round(u(0.25, 1.0), 6),
            "product": tuple(round(v, 6) for v in (u(1.0, 3.0), u(1.0, 2.0))),
            "translate_y": round(u(1.0, 2.0), 6),
            "support": tuple(round(v, 6) for v in (u(2.0, 4.0), u(0.5, 2.0))),
        }

    def setup(self, lib, ctx):
        work = Path(ctx["workdir"])
        work.mkdir(parents=True, exist_ok=True)
        return work

    @staticmethod
    def _write_profile(path: Path, grid, values) -> None:
        path.write_text("".join(f"{float(x)!r},{float(v)!r}\n"
                                for x, v in zip(grid, values)),
                        encoding="utf-8")

    def ops(self, lib, work, inp, ctx):
        grid = inp["grid"]
        h_vals, g_vals = bump(grid, *inp["h"]), bump(grid, *inp["g"])
        files = {"h": work / "h.csv", "g": work / "g.csv", "psi": work / "psi.csv"}
        for path, vals in zip(files.values(), (h_vals, g_vals, inp["eq_psi"])):
            self._write_profile(path, grid, vals)
        outs = {}

        def out(name, suffix="csv"):
            path = work / f"out-{name}.{suffix}"
            path.unlink(missing_ok=True)
            outs[name] = path
            return str(path)

        def run(argv):
            if ctx.get("in_process"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = lib.cli.main(argv)
                return rc, err.getvalue()
            proc = subprocess.run([sys.executable, "-m", "slhyper.cli", *argv],
                                  env=ctx["env"], capture_output=True, text=True,
                                  timeout=150)
            return proc.returncode, proc.stderr

        def cmd(name, argv, check):
            def checked(result):
                rc, err = result
                if rc != 0:
                    raise RuntimeError(f"exit {rc}: {err.strip()[-200:]}")
                return check(outs[name])
            return Op(f"cli.{name}", lambda: run(argv), checked)

        small, fine, medium, wide = self.SMALL, self.FINE, self.MEDIUM, self.WIDE
        lam_txt = ",".join(repr(float(v)) for v in inp["lams"])
        px, py = inp["product"]
        sx, sy = inp["support"]
        t_heat = inp["heat_t"]
        y_tr = inp["translate_y"]
        x_eq = inp["eq_x"]

        def kernel_check(path):
            _, rows = read_csv(path)
            return orc.worst(*(orc.kernel_cosine(complex(lr, li), [x], complex(wr, wi))
                               for lr, li, x, wr, wi in rows[:, :5]))

        def cauchy_check(path):
            _, rows = read_csv(path)
            xs = np.unique(rows[:, 0])
            f = rows[:, 2].reshape(len(xs), -1)
            return orc.dalembert(grid, h_vals, xs, xs, f)

        def triangle_check(path):
            doc = json.loads(path.read_text())
            return orc.require(all(math.isfinite(v) for v in doc.values()
                                   if isinstance(v, float)))

        def probe(name, argv, symptom, check):
            """A command with a known defect: exit 1 with the symptom counts as
            that defect; once fixed, the output gets the normal check."""
            def checked(result):
                rc, err = result
                if rc == 1 and symptom in err:
                    raise orc.KnownDefect(f"{' '.join(argv[:-2])}: {err.strip()}")
                if rc != 0:
                    raise RuntimeError(f"exit {rc}: {err.strip()[-200:]}")
                return check(outs[name])
            return Op(f"cli.{name}", lambda: run(argv), checked)

        ops = [
            cmd("validate", ["validate", "--op", "builtin:cosine", "--format", "json",
                             "--out", out("validate", "json")],
                lambda p: orc.require(_validated(json.loads(p.read_text())))),
            cmd("kernel", ["kernel", "--lambda", lam_txt, "--x", "0:10:101",
                           "--precision", "17", "--out", out("kernel")],
                kernel_check),
            cmd("spectrum_bessel", ["spectrum", "--op", "builtin:bessel?alpha=0.5",
                                    "--L", "12", "--N", "1024", "--lambda-max", "100",
                                    "--out", out("spectrum_bessel")],
                lambda p: orc.measure_atoms(read_csv(p)[1][:, 1], read_csv(p)[1][:, 2])),
            probe("spectrum_default", ["spectrum", "--N", "512",
                                       "--out", out("spectrum_default")],
                  "non-positive atom mass",
                  lambda p: orc.cosine_measure(read_csv(p)[1][:, 1], read_csv(p)[1][:, 2])),
            cmd("spectrum", ["spectrum", *small, "--out", out("spectrum")],
                lambda p: orc.cosine_measure(read_csv(p)[1][:, 1], read_csv(p)[1][:, 2])),
            cmd("transform", ["transform", "--h", str(files["h"]), *small,
                              "--out", out("transform")],
                lambda p: orc.transform_bounded(grid, h_vals, np.ones_like(grid),
                                                read_csv(p)[1][:, 1]
                                                + 1j * read_csv(p)[1][:, 2])),
            cmd("heatkernel", ["heatkernel", "--t", repr(t_heat), "--x-grid", "0:3:7",
                               "--y-grid", "0:3:13", *fine, "--out", out("heatkernel")],
                lambda p: orc.worst(*(orc.heat_images(t, x, [y], p_)
                                      for t, x, y, p_ in read_csv(p)[1]))),
            cmd("product", ["product", "--t", "0.5", "--x", repr(px), "--y", repr(py),
                            *fine, "--out", out("product")],
                lambda p: orc.product_kernel(read_csv(p)[1][:, 1], read_csv(p)[1][0, 2])),
            cmd("translate", ["translate", "--h", str(files["h"]), "--y", repr(y_tr),
                              "--t-reg", "1e-4", *medium, "--out", out("translate")],
                lambda p: orc.translate_cosine(grid, h_vals, y_tr, read_csv(p)[1][:, 0],
                                               read_csv(p)[1][:, 1])),
            cmd("convolve", ["convolve", "--h", str(files["h"]), "--g", str(files["g"]),
                             "--t-reg", "1e-6", *small, "--out", out("convolve")],
                lambda p: orc.convolve_cosine(lambda z: bump(z, *inp["h"]), grid,
                                              g_vals, read_csv(p)[1][:, 1])),
            cmd("support", ["support", "--x", repr(sx), "--y", repr(sy), "--format",
                            "json", "--out", out("support", "json")],
                lambda p: _support_check(json.loads(p.read_text()), sx, sy)),
            cmd("cauchy", ["cauchy", "--h", str(files["h"]), "--grid", "0:6:61",
                           *wide, "--out", out("cauchy")],
                cauchy_check),
            cmd("triangle", ["triangle", "--c", "0.5", "--x", "3.0", "--y", "1.5",
                             "--lam", "2.0", "--n", "12", "--format", "json",
                             "--out", out("triangle", "json")],
                triangle_check),
            probe("triangle_duplicate_nodes",
                  ["triangle", *TRIANGLE_DUPLICATE_NODES, "--lam", "2.0", "--n", "12",
                   "--format", "json", "--out", out("triangle_duplicate_nodes", "json")],
                  "not properly sorted", triangle_check),
            cmd("solve_inteq", ["solve-inteq", "--f", f"heatkernel:0.25,{x_eq!r}",
                                "--psi", str(files["psi"]), *medium,
                                "--out", out("solve_inteq"),
                                "--diagnostics", str(work / "out-diagnostics.json")],
                lambda p: orc.worst(
                    orc.equation(json.loads((work / "out-diagnostics.json")
                                            .read_text())["diagnostics"]),
                    orc.recovery(grid, inp["eq_h0"], read_csv(p)[1][:, 1]))),
            cmd("selftest", ["selftest", "--out", out("selftest", "txt")],
                lambda p: orc.require(p.read_text().rstrip().endswith("result PASS"))),
            cmd("kernel_repeat", ["kernel", "--lambda", lam_txt, "--x", "0:10:101",
                                  "--precision", "17", "--out", out("kernel_repeat")],
                lambda p: orc.identical(p.read_bytes(), outs["kernel"].read_bytes())),
        ]
        return ops

    def import_probe(self, ctx, reps: int = 3) -> float:
        """Median wall time of ``import slhyper.cli`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import slhyper.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(reps):
            proc = subprocess.run([sys.executable, "-c", code], env=ctx["env"],
                                  capture_output=True, text=True, timeout=120,
                                  check=True)
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        return sorted(times)[len(times) // 2]


def read_csv(path: Path):
    """Columns and float rows of a CLI CSV output (comment header skipped)."""
    lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines()
             if l and not l.startswith("#")]
    cols = lines[0].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return cols, rows


def _validated(doc: dict) -> bool:
    """test_validate_json_fields."""
    return (doc["operator"] == "cosine" and bool(doc["mp_certified"])
            and all(doc["checks"].values()) and bool(doc["left_boundary"]["finite"]))


def _support_check(doc: dict, x: float, y: float) -> float:
    """test_classify_support_case_a: two atoms at |x - y| and x + y (1e-9)."""
    if doc["case"] != "a" or len(doc["support"]) != 2:
        return math.inf
    got = np.array(sorted(doc["support"]))
    want = np.array([[abs(x - y)] * 2, [x + y] * 2])
    return orc.ratio(np.max(np.abs(got - want)), 1e-9)


WORKLOADS = {w.name: w for w in (MeasureBuild(), SpectralSums(), KernelSweep(),
                                 CliSession())}


def env_for_children(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env
