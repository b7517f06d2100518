"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with the measured figure before
asserting, so a full run reads as a scorecard.
"""

import math

import numpy as np
import pytest

from slhyper.operator import (builtin_operator, build_standard_form,
                              certify_mp, classify_support, support_params)
from slhyper.kernel import KernelEvaluator
from slhyper.spectral import (GridFunction, build_spectral_measure,
                              bump_function, forward_transform,
                              heat_kernel_grid)
from slhyper.hconv import (approx_nu, convolve_functions,
                           convolve_measures, default_xi_grid,
                           product_density, product_formula_residual)
from slhyper.cauchy import (solve_cauchy, solve_cauchy_shifted,
                            positivity_report, triangle_identity_residual)
from slhyper.inteq import (EquationProblem, SpectralStrip, _transform_samples,
                           l1_kappa_norm, solve_equation, solve_qt_equation,
                           wiener_levy_check)
from slhyper.cli import main as cli_main


def _line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1, 2, 3: kernel oracles and boundedness --------------------------------


def test_criterion_01_kernel_cosine():
    ev = KernelEvaluator(builtin_operator("cosine"))
    xs = np.linspace(0.0, 5.0, 101)
    err = 0.0
    for lam in (0.0, 1.0, 4.0, 10.0):
        w, _, _ = ev.eval_grid(lam, xs)
        err = max(err, float(np.max(np.abs(w.real - np.cos(xs * math.sqrt(lam))))))
    _line(1, "kernel oracle cosine", err <= 1e-8, f"max err {err:.3e}")


def test_criterion_02_kernel_bessel():
    ev = KernelEvaluator(builtin_operator("bessel?alpha=0.5"))
    xs = np.linspace(0.0, 5.0, 101)
    err = 0.0
    for lam in (0.0, 1.0, 4.0, 10.0):
        w, _, _ = ev.eval_grid(lam, xs)
        ref = np.sinc(xs * math.sqrt(lam) / math.pi) if lam else np.ones_like(xs)
        err = max(err, float(np.max(np.abs(w.real - ref))))
    _line(2, "kernel oracle bessel", err <= 1e-7, f"max err {err:.3e}")


def test_criterion_03_boundedness():
    rng = np.random.default_rng(57721566)
    evs = [KernelEvaluator(builtin_operator("cosine")),
           KernelEvaluator(builtin_operator("bessel?alpha=0.5"))]
    pairs = np.array([(rng.uniform(0.0, 60.0), rng.uniform(0.0, 8.0))
                      for _ in range(200)])
    # sorted by x, pair i is entry (i, i) of one batched evaluation
    lams, xs = pairs[np.argsort(pairs[:, 1])].T
    worst = max(float(np.max(np.abs(ev.eval_many(lams, xs)[0].diagonal()))) - 1.0
                for ev in evs)
    _line(3, "kernel bound", worst <= 1e-9, f"max |w|-1 = {worst:.3e}")


# -- 4: spectral measure -----------------------------------------------------


def test_criterion_04_spectral_measure(sm_cosine_wide):
    sm = sm_cosine_wide
    err = max(abs(sm.cumulative(v) - 2.0 * math.sqrt(v) / math.pi)
              for v in (1.0, 4.0, 16.0))
    atom_floor = float(sm.lambdas.min())
    ok = err <= 0.02 and atom_floor >= -0.05
    _line(4, "cumulative measure", ok,
          f"max err {err:.3e}, smallest atom {atom_floor:.3e}")


# -- 5: Parseval -------------------------------------------------------------


def test_criterion_05_parseval(sm_cosine):
    grid = np.linspace(0.0, 12.0, 2401)
    h = bump_function(2.0, 1.0, grid)
    tbl = forward_transform(h, sm_cosine)
    back = (tbl.values * sm_cosine.masses) @ sm_cosine.w_values(grid)
    l2 = math.sqrt(float(np.trapezoid((back - h.values) ** 2, grid)))
    ref2 = float(np.trapezoid(h.values ** 2, grid))
    rt = l2 / math.sqrt(ref2)
    ratio = float(np.sum(np.abs(tbl.values) ** 2 * sm_cosine.masses)) / ref2
    ok = rt <= 1e-3 and 0.99 <= ratio <= 1.01
    _line(5, "parseval", ok, f"roundtrip {rt:.3e}, energy ratio {ratio:.6f}")


# -- 6: heat kernel ----------------------------------------------------------


def test_criterion_06_heat_kernel(sm_cosine):
    worst = wm = 0.0
    yg = np.linspace(0.0, 15.9, 3001)
    for t in (0.25, 1.0):
        for x in np.linspace(0.0, 3.0, 7):
            ys = np.linspace(0.0, 3.0, 13)
            p = heat_kernel_grid(t, float(x), ys, sm_cosine)
            ref = (np.exp(-(x - ys) ** 2 / (4 * t))
                   + np.exp(-(x + ys) ** 2 / (4 * t))) / math.sqrt(4 * math.pi * t)
            worst = max(worst, float(np.max(np.abs(p - ref))))
            mass = float(np.trapezoid(heat_kernel_grid(t, float(x), yg, sm_cosine), yg))
            wm = max(wm, abs(mass - 1.0))
    ok = worst <= 1e-5 and wm <= 1e-4
    _line(6, "heat kernel", ok, f"max err {worst:.3e}, mass dev {wm:.3e}")


# -- 7: time-shifted product formula -----------------------------------------


def test_criterion_07_product_formula(sm_cosine, sm_bessel):
    pairs = ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0))
    resid = qmin = massdev = 0.0
    for sm in (sm_cosine, sm_bessel):
        for lam in (0.0, 1.0, 4.0):
            lam_atom = 0.0 if lam == 0.0 else \
                float(sm.lambdas[np.argmin(np.abs(sm.lambdas - lam))])
            for t in (0.1, 0.5):
                for (x, y) in pairs:
                    resid = max(resid, product_formula_residual(
                        lam_atom, t, x, y, sm))
        for t in (0.1, 0.5):
            for (x, y) in pairs:
                pk = product_density(t, x, y,
                                     default_xi_grid(sm, t, x, y), sm)
                qmin = min(qmin, float(pk.values.min()))
                massdev = max(massdev, abs(pk.mass - 1.0))
    xi0 = np.linspace(0.0, 8.0, 4001)
    q0 = product_density(0.25, 1.0, 1.0, xi0, sm_cosine)
    spot = abs(float(q0.values[0]) - (1.0 + math.exp(-4.0)) / math.sqrt(math.pi))
    ok = resid <= 1e-4 and qmin >= -1e-8 and massdev <= 1e-4 and spot <= 1e-6
    _line(7, "product formula", ok,
          f"resid {resid:.3e}, q_min {qmin:.3e}, mass dev {massdev:.3e}, "
          f"spot {spot:.3e}")


# -- 8: weak limit -----------------------------------------------------------


def test_criterion_08_weak_limit(sm_cosine, sm_bessel):
    final = limerr = 0.0
    monotone = True
    for sm in (sm_cosine, sm_bessel):
        for (x, y) in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
            na = approx_nu(x, y, sm)
            monotone &= bool(np.all(np.diff(na.cauchy_gaps) <= 0.0))
            final = max(final, float(na.cauchy_gaps[-1]))
            kidx = [int(np.argmin(np.abs(sm.lambdas - l)))
                    for l in na.moment_lambdas]
            wx = sm.w_values(np.array([x]))[kidx, 0]
            wy = sm.w_values(np.array([y]))[kidx, 0]
            limerr = max(limerr, float(np.max(np.abs(na.moments[-1] - wx * wy))))
    ok = monotone and final <= 1e-3 and limerr <= 1e-3
    _line(8, "weak limit", ok,
          f"gaps decreasing {monotone}, final gap {final:.3e}, "
          f"limit err {limerr:.3e}")


# -- 9: support classification -----------------------------------------------


def test_criterion_09_support(sm_bessel_conc, sm_whittaker):
    # cosine: two atoms
    spec_c = builtin_operator("cosine")
    sf_c = build_standard_form(spec_c)
    rep_c = classify_support(1.0, 2.0, sf_c, support_params(certify_mp(sf_c)))
    cos_ok = rep_c.case == "a" and np.allclose(rep_c.intervals,
                                               [(1.0, 1.0), (3.0, 3.0)])
    # bessel: interval with concentrated q_t mass
    sf_b = build_standard_form(sm_bessel_conc.spec)
    params_b = support_params(certify_mp(sf_b))
    t = 1e-3
    out_mass = 0.0
    bes_ok = True
    for (x, y) in ((1.0, 2.0), (2.0, 3.0), (1.0, 1.0)):
        rep = classify_support(x, y, sf_b, params_b)
        bes_ok &= np.allclose(rep.intervals, [(abs(x - y), x + y)])
        xi = default_xi_grid(sm_bessel_conc, t, x, y, n=6001)
        pk = product_density(t, x, y, xi, sm_bessel_conc)
        infl = 3.0 * math.sqrt(t)
        outside = (xi < abs(x - y) - infl) | (xi > x + y + infl)
        out_mass = max(out_mass, float(np.trapezoid(
            np.where(outside, np.abs(pk.values), 0.0) * xi ** 2, xi)))
    bes_ok &= out_mass <= 0.02
    # whittaker: degenerate full support and strict positivity
    sf_w = build_standard_form(sm_whittaker.spec)
    rep_w = classify_support(1.0, 2.0, sf_w, None)
    g = np.linspace(0.01, 10.0, 2000)
    h = bump_function(2.5, 1.5, g)
    sol = solve_cauchy(h, sm_whittaker, np.linspace(0.25, 6.0, 116))
    posrep = positivity_report(sol, strict=True)
    whi_ok = (rep_w.case == "degenerate_full"
              and posrep["strict_positive_fraction"] == 1.0)
    ok = cos_ok and bes_ok and whi_ok
    _line(9, "support classification", ok,
          f"cosine atoms {cos_ok}, bessel outside mass {out_mass:.3e}, "
          f"degenerate positivity fraction "
          f"{posrep['strict_positive_fraction']:.4f}")


# -- 10: Cauchy problem ------------------------------------------------------


def test_criterion_10_cauchy(sm_cosine_dense, sm_cosine_shift):
    grid = np.linspace(0.0, 16.0, 3201)
    h = bump_function(4.0, 2.0, grid)
    xs = np.linspace(0.0, 10.0, 201)
    sol = solve_cauchy(h, sm_cosine_dense, xs)
    bd = float(np.max(np.abs(sol.values[:, 0] - h(xs))))
    sym = float(np.max(np.abs(sol.values - sol.values.T)))
    mn = float(sol.values.min())
    over = float(np.max(sol.values)) - float(h.values.max())
    # shifted-boundary solutions: errors must fall at least 4x per decade
    xs_s = np.linspace(0.2, 10.0, 99)
    ys_s = np.linspace(0.2, 6.0, 59)
    ref = solve_cauchy(h, sm_cosine_shift, xs_s, ys_s)
    errs = []
    for a_m in (0.1, 0.01, 0.001):
        s = solve_cauchy_shifted(h, a_m, sm_cosine_shift, xs_s, ys_s)
        errs.append(float(np.max(np.abs(s.values - ref.values))))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = (bd <= 1e-3 and sym <= 1e-8 and mn >= -1e-6 and over <= 1e-6
          and all(r >= 4.0 for r in ratios))
    _line(10, "cauchy problem", ok,
          f"boundary {bd:.3e}, symmetry {sym:.3e}, min {mn:.3e}, "
          f"over bound {over:.3e}, shifted ratios "
          + "/".join(f"{r:.1f}" for r in ratios))


# -- 11: triangle identity ---------------------------------------------------


class _DAlembert:
    """Exact solution v = (F(xi - zeta) + F(xi + zeta))/2 of the plain wave
    equation; the phi = psi = 0 case."""

    def __init__(self):
        self.F = lambda u: np.exp(-(u - 1.0) ** 2)
        self.F1 = lambda u: -2.0 * (u - 1.0) * self.F(u)
        self.F2 = lambda u: (4.0 * (u - 1.0) ** 2 - 2.0) * self.F(u)

    def __call__(self, xi, zeta):
        return 0.5 * (self.F(xi - zeta) + self.F(xi + zeta))

    def d_xi(self, xi, zeta):
        return 0.5 * (self.F1(xi - zeta) + self.F1(xi + zeta))

    def d_zeta(self, xi, zeta):
        return 0.5 * (-self.F1(xi - zeta) + self.F1(xi + zeta))

    def dd_xi(self, xi, zeta):
        return 0.5 * (self.F2(xi - zeta) + self.F2(xi + zeta))

    def dd_zeta(self, xi, zeta):
        return 0.5 * (self.F2(xi - zeta) + self.F2(xi + zeta))


class _BesselEigen:
    """Exact separated eigen-solution for the alpha = 1/2 radial operator
    in standard-form coordinates (gamma(x) = x - 1)."""

    def __init__(self, lam):
        self.rt = math.sqrt(lam)
        self.lam = lam

    def _w(self, u):
        return np.sinc(self.rt * (u + 1.0) / np.pi)

    def _w1(self, u):
        z = u + 1.0
        return np.cos(self.rt * z) / z - np.sin(self.rt * z) / (self.rt * z ** 2)

    def _w2(self, u):
        z = u + 1.0
        return (-self.rt * np.sin(self.rt * z) / z
                - 2.0 * np.cos(self.rt * z) / z ** 2
                + 2.0 * np.sin(self.rt * z) / (self.rt * z ** 3))

    def __call__(self, xi, zeta):
        return self._w(xi) * self._w(zeta)

    def d_xi(self, xi, zeta):
        return self._w1(xi) * self._w(zeta)

    def d_zeta(self, xi, zeta):
        return self._w(xi) * self._w1(zeta)

    def dd_xi(self, xi, zeta):
        return self._w2(xi) * self._w(zeta)

    def dd_zeta(self, xi, zeta):
        return self._w(xi) * self._w2(zeta)


def test_criterion_11_triangle_identity():
    spec_c = builtin_operator("cosine")
    cert_c = certify_mp(build_standard_form(spec_c))
    rep = triangle_identity_residual(_DAlembert(), 0.2, 3.0, 1.5, cert_c,
                                     n=100)
    cos_resid = rep.residual
    spec_b = builtin_operator("bessel?alpha=0.5")
    cert_b = certify_mp(build_standard_form(spec_b))
    v = _BesselEigen(2.0)
    resids = [triangle_identity_residual(v, -0.5, 3.0, 1.0, cert_b, n=n).residual
              for n in (40, 80, 160)]
    ratios = [resids[i] / resids[i + 1] for i in range(len(resids) - 1)]
    ok = cos_resid <= 1e-4 and all(r >= 1.5 for r in ratios)
    _line(11, "triangle identity", ok,
          f"cosine resid {cos_resid:.3e}, bessel refinement ratios "
          + "/".join(f"{r:.2f}" for r in ratios))


# -- 12: integral equation solver --------------------------------------------


def test_criterion_12_wiener_levy(sm_cosine, sm_bessel):
    recov = resid = 0.0
    same_qt = True
    for sm, x_hi in ((sm_cosine, 12.0), (sm_bessel, 10.0)):
        g = np.linspace(0.0, x_hi, 2001)
        h0 = bump_function(3.0, 1.2, g)
        f = GridFunction(g, heat_kernel_grid(0.25, 1.0, g, sm))
        conv = convolve_functions(h0, f, sm, t_reg=1e-6, out_grid=g)
        psi = GridFunction(g, h0.values + conv.values)
        sol = solve_equation(EquationProblem(f=f, psi=psi, kappa=sm.sigma2), sm)
        # the q_t equation is this equation, its kernel the same heat slice
        qt = solve_qt_equation(0.25, 1.0, psi, sm)
        same_qt &= (np.array_equal(qt.h.values, sol.h.values)
                    and np.array_equal(qt.g.values, sol.g.values)
                    and qt.diagnostics == sol.diagnostics)
        rv = np.asarray(sm.spec.r(g), dtype=float) + np.zeros_like(g)
        rel = (float(np.trapezoid(np.abs(sol.h.values - h0.values) * rv, g))
               / float(np.trapezoid(np.abs(h0.values) * rv, g)))
        recov = max(recov, rel)
        resid = max(resid, sol.diagnostics["transform_residual"])
    # a scaled bump drives 1 + Ff through zero: ok=false with a witness
    g = np.linspace(0.0, 12.0, 2401)
    b = bump_function(1.0, 0.8, g)
    fb = forward_transform(b, sm_cosine)
    bad = GridFunction(g, (-2.0 / fb.values[0].real) * b.values)
    chk = wiener_levy_check(bad, SpectralStrip(0.0, 0.0), 1.0, sm_cosine)
    wit = abs(1.0 + _transform_samples(bad, [chk.witness], sm_cosine)[0]) \
        if np.isfinite(chk.witness.real) else np.inf
    ok = (recov <= 1e-3 and resid <= 1e-4 and (not chk.ok) and wit <= 1e-6
          and same_qt)
    _line(12, "wiener-levy solver", ok,
          f"recovery {recov:.3e}, transform resid {resid:.3e}, "
          f"witness |1+Ff| {wit:.3e}, q_t equation bit-identical {same_qt}")


# -- 13: algebra properties ---------------------------------------------------


def test_criterion_13_algebra(sm_cosine):
    grid = np.linspace(0.0, 12.0, 2401)
    h = bump_function(2.0, 1.0, grid)
    g = bump_function(3.0, 1.5, grid)
    hg = convolve_functions(h, g, sm_cosine, t_reg=1e-8, out_grid=grid)
    fhg = forward_transform(hg, sm_cosine)
    prod = forward_transform(h, sm_cosine).values \
        * forward_transform(g, sm_cosine).values
    triv = float(np.max(np.abs(fhg.values - prod))) \
        / float(np.max(np.abs(prod)))
    n_h = l1_kappa_norm(h, 0.0, sm_cosine)
    n_g = l1_kappa_norm(g, 0.0, sm_cosine)
    n_hg = l1_kappa_norm(GridFunction(hg.grid, hg.values), 0.0, sm_cosine)
    submult = n_hg / (n_h * n_g)
    mc = convolve_measures([(0.0, 1.0)], [(2.0, 1.0)], sm_cosine)
    delta = float(np.max(np.abs(mc.product - mc.nu_hat)))
    ok = triv <= 1e-4 and submult <= 1.0 + 1e-6 and delta <= 1e-12
    _line(13, "algebra properties", ok,
          f"trivialization {triv:.3e}, submult factor {submult:.9f}, "
          f"delta identity {delta:.3e}")


# -- 14: determinism ----------------------------------------------------------


def test_criterion_14_determinism(tmp_path):
    out1 = tmp_path / "selftest1.txt"
    out2 = tmp_path / "selftest2.txt"
    rc1 = cli_main(["selftest", "--out", str(out1)])
    rc2 = cli_main(["selftest", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    _line(14, "determinism", ok,
          f"exit codes {rc1}/{rc2}, byte identical {same}")
