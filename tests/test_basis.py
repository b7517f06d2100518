"""One eigenfunction basis per grid: every rerouted spectral sum equals, bit
for bit, its composition of forward_transform, inverse_transform and
synthesize (the transform-domain products inverse_transform on the grids
they hold and synthesize on others, the kernel sums synthesize), and
evaluates each of its grids at most once; the measure's memo of bases,
bounded by the size of the spline's coefficient table, serves equal grids
across calls."""

import numpy as np
import pytest

from slhyper.cauchy import solve_cauchy
from slhyper.hconv import (DEFAULT_T_SCHEDULE, approx_nu, convolve_functions,
                           default_xi_grid, product_density, translate)
from slhyper.inteq import (EquationProblem, SpectralStrip, _resolvent,
                           solve_equation, solve_qt_equation,
                           wiener_levy_check)
from slhyper.spectral import (Basis, GridFunction, TransformTable, _r_weights,
                              bump_function, forward_transform,
                              heat_kernel_grid, inverse_transform)

GRID = np.linspace(0.0, 12.0, 1201)
GRID2 = np.linspace(0.0, 11.0, 1001)
XS = np.linspace(0.0, 6.0, 201)


def _ft(h, sm):
    return forward_transform(h, sm).values


def _inverse(coef, sm, grid):
    return inverse_transform(TransformTable(sm.lambdas, coef), sm, grid).values


def _output(coef, sm, grid, *held_grids):
    """coef's inverse transform on grid as translate and
    convolve_functions take it: inverse_transform on a grid equal to one of
    held_grids, the call's input grids, and synthesize on any other."""
    if any(np.array_equal(grid, g) for g in held_grids):
        return _inverse(coef, sm, grid)
    return sm.synthesize(coef, grid)


def _problem(psi_grid):
    f = GridFunction(GRID, 0.3 * np.exp(-GRID ** 2))
    return EquationProblem(f=f, psi=bump_function(3.0, 1.2, psi_grid),
                           kappa=0.0)


def _counted_w_values(sm, monkeypatch):
    """Sizes of the point sets handed to sm.w_values, in order, starting
    from an empty memo of bases."""
    monkeypatch.setattr(sm, "_kept", [])
    calls = []
    w_values = sm.w_values

    def counted(xq):
        calls.append(np.size(xq))
        return w_values(xq)

    monkeypatch.setattr(sm, "w_values", counted)
    return calls


@pytest.fixture
def w_calls(sm_cosine, monkeypatch):
    """Sizes of the point sets handed to sm_cosine.w_values, in order,
    starting from an empty memo of bases."""
    return _counted_w_values(sm_cosine, monkeypatch)


# ---------------------------------------------------------------------------
# bit identity with the compositions


def _reference_resolvent(f, rho, sm, grid):
    ff = _ft(f, sm)
    denom = rho + ff
    fg = 1.0 / denom - rho
    g = inverse_transform(TransformTable(sm.lambdas, fg), sm, grid).values
    g_back = _ft(GridFunction(grid, g), sm)
    recheck = np.max(np.abs(g_back - fg)) / max(np.max(np.abs(fg)), 1e-300)
    return ff, fg, g, g_back, np.max(np.abs((rho + fg) * denom - 1.0)), recheck


@pytest.mark.parametrize("psi_grid", [GRID, GRID2], ids=["one_grid", "two_grids"])
def test_solve_equation_bit_identical(sm_cosine, psi_grid):
    sm, prob, t_reg = sm_cosine, _problem(psi_grid), 1e-6
    rho, psi = prob.rho, prob.psi
    check = wiener_levy_check(prob.f, SpectralStrip(prob.kappa, sm.sigma2),
                              rho, sm)
    ff, _, g, g_back, rt, recheck = _reference_resolvent(prob.f, rho, sm,
                                                         prob.f.grid)
    fpsi = _ft(psi, sm)
    conv = _inverse(np.exp(-t_reg * sm.lambdas) * fpsi * g_back, sm,
                    psi.grid)
    h = np.real_if_close(rho * psi.values + conv, tol=1e6)
    fh = _ft(GridFunction(psi.grid, h), sm)
    resid = np.max(np.abs(fh * (rho + ff) - fpsi)) / max(np.max(np.abs(fpsi)),
                                                         1e-300)
    sol = solve_equation(prob, sm)
    assert np.array_equal(sol.h.values, h)
    assert np.array_equal(sol.g.values, g)
    assert sol.diagnostics == {
        "min_modulus": check.min_modulus, "witness": check.witness,
        "transform_residual": resid, "resolvent_round_trip": rt,
        "resolvent_recheck": recheck}


def test_solve_equation_transforms_each_function_once(sm_cosine, monkeypatch):
    """One solve_equation call takes the forward transform of f, of the
    resolvent kernel g, of psi and of h once each: the transform of g that
    the resolvent's recheck takes is the one that psi * g reads."""
    prob = _problem(GRID2)
    seen = []
    forward = Basis.forward

    def spy(self, values):
        seen.append(values)
        return forward(self, values)

    monkeypatch.setattr(Basis, "forward", spy)
    sol = solve_equation(prob, sm_cosine)
    want = (prob.f.values, sol.g.values, prob.psi.values, sol.h.values)
    assert len(seen) == len(want)
    assert all(a is b for a, b in zip(seen, want))


@pytest.mark.parametrize("out_grid", [None, GRID2])
def test_resolvent_kernel_bit_identical(sm_cosine, out_grid):
    f = _problem(GRID).f
    grid = f.grid if out_grid is None else out_grid
    _, fg, g, _, rt, recheck = _reference_resolvent(f, 1.0, sm_cosine, grid)
    bf = sm_cosine.basis(f.grid)
    res, _ = _resolvent(bf.forward(f.values), 1.0, sm_cosine,
                        sm_cosine.basis(grid, bf))
    assert np.array_equal(res.g.values, g)
    assert np.array_equal(res.fg.values, fg)
    assert res.round_trip_residual == rt
    assert res.forward_recheck == recheck


@pytest.mark.parametrize("out_grid", [GRID, GRID2])
def test_convolve_functions_bit_identical(sm_cosine, out_grid):
    sm = sm_cosine
    h, g = bump_function(2.5, 1.2, GRID), bump_function(3.5, 2.0, GRID)
    ref = _output(np.exp(-1e-8 * sm.lambdas) * _ft(h, sm) * _ft(g, sm), sm,
                  out_grid, GRID)
    out = convolve_functions(h, g, sm, t_reg=1e-8, out_grid=out_grid)
    assert np.array_equal(out.values, ref)


@pytest.mark.parametrize("out_grid", [GRID, GRID2])
def test_translate_bit_identical(sm_cosine, out_grid):
    sm, y = sm_cosine, 1.3
    h = bump_function(3.5, 2.0, GRID)
    coef = np.exp(-1e-6 * sm.lambdas) * _ft(h, sm)
    ref = _output(coef * sm.w_values(y)[:, 0], sm, out_grid, GRID)
    out = translate(h, y, sm, t_reg=1e-6, out_grid=out_grid)
    assert np.array_equal(out.values, ref)


@pytest.mark.parametrize("ys", [None, np.linspace(0.0, 5.0, 151)])
def test_solve_cauchy_bit_identical(sm_cosine, ys):
    sm = sm_cosine
    h = bump_function(2.5, 1.7, GRID)
    ref = sm.synthesize(_ft(h, sm)[:, None] * sm.w_values(XS),
                        XS if ys is None else ys)
    assert np.array_equal(solve_cauchy(h, sm, XS, ys).values, ref)


def test_approx_nu_bit_identical(sm_cosine):
    sm, x, y = sm_cosine, 1.0, 1.5
    xi = np.linspace(sm._a_eff, 6.0, 3001)
    nu = approx_nu(x, y, sm, xi_grid=xi)
    W_probe = sm.evaluator.eval_many(nu.moment_lambdas, xi)[0].real
    rw = _r_weights(sm.spec, xi)
    wxy = sm.w_values([x, y])
    for t, moments in zip((0.1, 0.03, 0.01, 0.003, 0.001), nu.moments):
        vals = sm.synthesize(np.exp(-t * sm.lambdas) * wxy[:, 0] * wxy[:, 1],
                             xi)
        assert np.array_equal(moments, W_probe @ (vals * rw))
    assert np.array_equal(nu.density.values, vals)
    assert nu.mass == float(np.sum(vals * rw))


# ---------------------------------------------------------------------------
# one evaluation per grid


def test_solve_equation_evaluates_its_grid_once(sm_cosine, w_calls):
    solve_equation(_problem(GRID), sm_cosine)
    assert w_calls == [len(GRID)]


def test_convolve_functions_evaluates_its_grid_once(sm_cosine, w_calls):
    h, g = bump_function(2.5, 1.2, GRID), bump_function(3.5, 2.0, GRID)
    convolve_functions(h, g, sm_cosine, t_reg=1e-8, out_grid=GRID)
    assert w_calls == [len(GRID)]


def test_translate_evaluates_its_grid_once(sm_cosine, w_calls):
    translate(bump_function(3.5, 2.0, GRID), 1.3, sm_cosine, t_reg=1e-6,
              out_grid=GRID)
    assert sorted(w_calls) == [1, len(GRID)]


def test_solve_cauchy_evaluates_xs_once(sm_cosine, w_calls):
    solve_cauchy(bump_function(2.5, 1.7, GRID), sm_cosine, XS)
    assert w_calls == [len(GRID), len(XS)]


def test_product_density_evaluates_only_x_and_y(sm_cosine, w_calls):
    xi = default_xi_grid(sm_cosine, 0.3, 2.0, 1.5)
    product_density(0.3, 2.0, 1.5, xi, sm_cosine)
    assert w_calls == [2]


def test_approx_nu_never_evaluates_its_xi_grid(sm_cosine, w_calls):
    # one synthesis per t, each contracting the coefficients first: the
    # eigenfunctions are evaluated at (x, y) only
    xi = np.linspace(sm_cosine._a_eff, 6.0, 3001)
    approx_nu(1.0, 1.5, sm_cosine, xi_grid=xi)
    assert w_calls == [2] * len(DEFAULT_T_SCHEDULE)


def test_each_grid_is_evaluated_once_when_the_memo_cannot_keep_it(
        sm_cosine_512, monkeypatch):
    """On the cosine 16/512 measure, whose coefficient table has 514 rows,
    the memo keeps no basis of a 601-point grid.  translate,
    convolve_functions, solve_equation and solve_qt_equation still
    evaluate each distinct grid of a call once, besides their one-point
    sets: equal grids, by content, share one basis within the call.  An
    output grid that is none of the call's input grids is not evaluated:
    synthesize contracts first there."""
    sm = sm_cosine_512
    assert sm._w.c.shape[0] == 514
    calls = _counted_w_values(sm, monkeypatch)
    g1, g2 = np.linspace(0.0, 12.0, 601), np.linspace(0.0, 11.0, 601)
    h, g = bump_function(3.5, 2.0, g1), bump_function(2.5, 1.2, g2)
    f1 = GridFunction(g1, 0.3 * np.exp(-g1 ** 2))
    cases = [
        (lambda: translate(h, 1.3, sm, 1e-6), [1, 601]),
        (lambda: translate(h, 1.3, sm, 1e-6, out_grid=g1.copy()), [1, 601]),
        (lambda: translate(h, 1.3, sm, 1e-6, out_grid=g2), [1, 601]),
        (lambda: convolve_functions(h, h, sm, 1e-8), [601]),
        (lambda: convolve_functions(h, h, sm, 1e-8, out_grid=g2), [601]),
        (lambda: convolve_functions(h, g, sm, 1e-8), [601, 601]),
        (lambda: convolve_functions(h, g, sm, 1e-8, out_grid=g2), [601, 601]),
        (lambda: solve_equation(EquationProblem(f1, h, 0.0), sm), [601]),
        (lambda: solve_equation(EquationProblem(f1, g, 0.0), sm), [601, 601]),
        (lambda: solve_qt_equation(0.25, 1.0, h, sm), [1, 601]),
    ]
    for call, want in cases:
        calls.clear()
        call()
        assert sorted(calls) == want
    assert sm._kept == []


# ---------------------------------------------------------------------------
# the memo of bases across calls


def test_equal_grid_is_not_evaluated_again(sm_cosine, w_calls):
    sm = sm_cosine
    coef = np.exp(-0.1 * sm.lambdas)
    W = sm.basis(GRID).W
    again = sm.basis(GRID.copy())
    out = _inverse(coef, sm, list(GRID))
    assert w_calls == [len(GRID)]
    fresh = sm.w_values(GRID)
    assert np.array_equal(again.W, fresh) and np.array_equal(W, fresh)
    assert np.array_equal(out, (sm.masses * coef) @ fresh)


def test_grid_changed_in_place_is_evaluated_again(sm_cosine, w_calls):
    grid = GRID.copy()
    sm_cosine.basis(grid)
    grid[600] += 1e-3
    W = sm_cosine.basis(grid).W
    assert w_calls == [len(GRID), len(GRID)]
    assert np.array_equal(W, sm_cosine.w_values(grid))


def test_kept_values_are_read_only(sm_cosine, w_calls):
    W = sm_cosine.basis(GRID).W
    with pytest.raises(ValueError):
        W[0, 0] = 2.0
    assert sm_cosine.w_values(GRID).flags.writeable


def test_reused_grid_outlives_one_off_grids(sm_cosine, w_calls):
    # the order of the benchmark's spectral sums: a transform and its
    # inverse on one grid, product kernels on grids of their own, then the
    # first grid again
    sm = sm_cosine
    tbl = forward_transform(bump_function(3.0, 1.5, GRID), sm)
    inverse_transform(tbl, sm, GRID)
    for top in (5.0, 6.0, 7.0):
        sm.basis(np.linspace(sm._a_eff, top, 3001))
    translate(bump_function(3.5, 2.0, GRID), 1.3, sm, t_reg=1e-6,
              out_grid=GRID)
    assert w_calls == [len(GRID), 3001, 3001, 3001, 1]


def test_oversize_values_are_not_kept(sm_cosine, w_calls):
    sm = sm_cosine
    sm.basis(GRID)
    big = np.linspace(sm._a_eff, 12.0, sm._w.c.shape[0] + 1)
    assert sm.basis(big).W.size > sm._w.c.size
    sm.basis(big)
    sm.basis(GRID)
    assert w_calls == [len(GRID), len(big), len(big)]


def test_three_grids_of_a_pass_are_each_evaluated_once(sm_cosine, w_calls):
    """The grids of the benchmark's spectral sums, 1201 points for the
    transforms, 13 for a heat kernel and 201 for a Cauchy solve, alternated
    over three rounds: each is evaluated once (the heat kernel's x once a
    round), and the kept values never outgrow the coefficient table.  A
    basis the size of the table then evicts all three."""
    sm = sm_cosine
    h = bump_function(2.5, 1.7, GRID)
    ys = np.linspace(0.0, 3.0, 13)

    def kept():
        return sum(b.W.size for b in sm._kept)

    for _ in range(3):
        forward_transform(h, sm)
        assert kept() <= sm._w.c.size
        heat_kernel_grid(0.5, 1.0, ys, sm)
        assert kept() <= sm._w.c.size
        solve_cauchy(h, sm, XS)
        assert kept() <= sm._w.c.size
    assert w_calls == [len(GRID), 1, len(ys), len(XS), 1, 1]
    whole = sm.basis(np.linspace(sm._a_eff, sm.L, sm._w.c.shape[0]))
    assert sm._kept == [whole] and kept() == sm._w.c.size
