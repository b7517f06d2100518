"""Kernel evaluation: closed-form oracles and shifted origins."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.interpolate import BSpline, make_interp_spline

from slhyper.expr import parse_expression
from slhyper.operator import OperatorSpec, builtin_operator, load_operator
from slhyper.kernel import (KernelEvaluator, RowSpline, _design,
                            _fit_in_place, _term_count)


@pytest.fixture(scope="module")
def ev_cosine():
    return KernelEvaluator(builtin_operator("cosine"))


@pytest.fixture(scope="module")
def ev_bessel():
    return KernelEvaluator(builtin_operator("bessel?alpha=0.5"))


def _restricted(ev: KernelEvaluator, a_m: float) -> KernelEvaluator:
    """The kernel of ev's operator restricted to (a_m, b): the solution with
    w = 1 and p w' = 0 at the shifted origin a_m."""
    return KernelEvaluator(replace(ev.spec, a=a_m))


def _closed_form_table(name: str, x: np.ndarray, J: int) -> np.ndarray:
    """(eta_j, zeta_j) for j < J, shape (2, J, len(x)), of cosine (p = r = 1)
    and of Bessel-Kingman alpha = 1/2 (p = r = x^2)."""
    j = np.arange(J)[:, None]
    if name == "cosine":
        # eta_j = x^(2j) / (2j)!, zeta_j = x^(2j+1) / (2j+1)!
        fact = np.array([math.factorial(k) for k in range(2 * J)], dtype=float)
        return np.stack([x ** (2 * j) / fact[0::2, None],
                         x ** (2 * j + 1) / fact[1::2, None]])
    # eta_j = Gamma(alpha+1) x^(2j) / (4^j j! Gamma(alpha+j+1)), and zeta_j
    # its integral against r = x^(2 alpha + 1)
    alpha = 0.5
    c = np.array([math.exp(math.lgamma(alpha + 1) - k * math.log(4.0)
                           - math.lgamma(k + 1) - math.lgamma(alpha + k + 1))
                  for k in range(J)])[:, None]
    e = 2 * j + 2 * alpha + 2
    return np.stack([c * x ** (2 * j), c * x ** e / e])


@pytest.mark.parametrize("name, three_rows, summed_rows", [
    ("cosine", 3e-9, 1.8e-4),
    ("bessel?alpha=0.5", 2.4e-8, 2.1e-4),
], ids=["cosine", "bessel?alpha=0.5"])
def test_series_table_matches_closed_form(name, three_rows, summed_rows):
    """The series table, on the evaluator's own nodes and midway between
    them, against the closed-form eta_j and zeta_j, each row's error
    relative to its largest value.  The first three rows carry most of
    every sum; the first 19 are the terms a sum at |lambda| S <= 1 takes.
    Measured 1.4e-9 and 8.9e-5 (cosine), 1.2e-8 and 1.0e-4 (Bessel); the
    bounds are twice that."""
    ev = KernelEvaluator(builtin_operator(name))
    xs = ev._xs
    x = np.sort(np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0]))
    for J, bound in ((3, three_rows), (19, summed_rows)):
        want = _closed_form_table(name, x, J)
        rel = np.abs(ev._terms(x, J) - want) / np.max(np.abs(want), axis=2,
                                                      keepdims=True)
        assert np.max(rel) <= bound


@pytest.mark.parametrize("shape", [(0, 300), (1, 300), (70, 300), (122, 300)])
def test_row_spline_is_one_make_interp_spline(shape):
    """Fitting the rows, each one column of a node-major table, a block at
    a time in place (``_fit_in_place``) gives the coefficients, knots and
    values of one make_interp_spline call over the whole table, bit for
    bit, whatever the number of rows; 122 rows end in a partial block."""
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(0.0, 5.0, shape[-1]))
    Y = rng.standard_normal(shape)
    c = Y.T.copy()
    t = _fit_in_place(xs, c, lambda cols, out: np.copyto(out, c[:, cols]))
    got = RowSpline(t, c)
    want = make_interp_spline(xs, Y, k=3, axis=1)
    assert want.k == 3
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.c, want.c)
    xq = np.linspace(0.1, 4.9, 37)
    # values run along the last axis, as make_interp_spline's along axis -1
    assert got(xq).shape == want(xq).shape == shape[:-1] + (37,)
    assert np.array_equal(got(xq), want(xq))


def test_series_table_grows_to_the_rows_a_sum_reads():
    """A new evaluator tabulates the 19 rows a sum at |lambda| S <= 1
    reads.  On Whittaker the sums at lambda 1600 and 5000 read 24 and 40
    rows, and the table grows to them; every row, grown 19 -> 24 -> 40 ->
    61 or straight to 61, is the same array, bit for bit."""
    spec = builtin_operator("whittaker?alpha=0.25&kappa=1.0")
    grown, straight = KernelEvaluator(spec), KernelEvaluator(spec)
    assert _term_count(1.0) == 19
    assert grown._table.shape[1] == straight._table.shape[1] == 19
    xs = np.linspace(0.05, 3.0, 11)
    for lam, rows in ((1600.0, 24), (5000.0, 40)):
        grown.eval_many([lam], xs)
        assert grown._table.shape[1] == rows
    grown._terms(xs, 61)
    straight._terms(xs, 61)
    assert grown._table.shape == straight._table.shape == (2, 61, len(grown._xs))
    assert np.array_equal(grown._table, straight._table)


def _spline_case(lead, seed=5, points=300):
    """make_interp_spline through random rows of shape lead + (80,), and
    points: interior, every knot, both end knots and past them."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 5.0, 80))
    spl = make_interp_spline(xs, rng.standard_normal(lead + (80,)), k=3,
                             axis=len(lead))
    ends = [xs[0], xs[-1], xs[0] - 0.5, xs[-1] + 0.5, xs[0] - 1e-9,
            xs[-1] + 1e-9]
    xq = np.concatenate([rng.uniform(xs[0], xs[-1], points), spl.t, ends])
    return spl, xq


def test_design_is_bspline_design_matrix():
    """The numpy collocation band is scipy's BSpline.design_matrix, bit for
    bit, sign of zero included, on every point of the base interval, knots
    and both ends included: each row's four entries sit at scipy's columns,
    and the matrix is zero off them."""
    spl, xq = _spline_case(())
    xq = xq[(xq >= spl.t[3]) & (xq <= spl.t[-4])]
    band, first = _design(spl.t, xq)
    want = BSpline.design_matrix(xq, spl.t, 3)
    assert band.shape == (len(xq), 4)
    cols = first[:, None] + np.arange(4)
    assert np.array_equal(cols.ravel(), want.indices)
    dense = want.toarray()
    rows = np.arange(len(xq))[:, None]
    assert np.array_equal(band, dense[rows, cols])
    assert np.array_equal(np.signbit(band), np.signbit(dense[rows, cols]))
    dense[rows, cols] = 0.0
    assert not np.any(dense)


def _point_sets(xq):
    """xq cut into sets of 1, 2, 3 and 5 consecutive points, and whole: the
    point-by-point and the vectorized evaluation both run."""
    return [xq[i:i + n] for n in (1, 2, 3, 5) for i in range(0, len(xq), n)] + [xq]


# the ids are the cases' names from when a (2, 61) case was lead1
@pytest.mark.parametrize("lead, points", [((), 300), ((1,), 300),
                                          ((205,), 4910)],
                         ids=["lead0", "lead2", "lead205"])
def test_row_spline_values_are_bspline_values(lead, points):
    """RowSpline values equal BSpline.__call__'s bit for bit, sign of zero
    included, for 1-D, one-column and 205-column coefficients, inside, at
    the knots and past both end knots, where both extrapolate from the end
    pieces, whatever the number of points.  205 columns at 5,000 points
    span 32 blocks of the band product's rows.  Every case's coefficients
    are also read through a Fortran-ordered view, one spline per row of
    the array beneath."""
    spl, xq = _spline_case(lead, points=points)
    # the point-by-point sets of 5,000 points would take seconds
    sets = _point_sets(xq) if points < 1000 else [xq[:3], xq]
    # exact zeros: a spline that vanishes on its last pieces, with
    # coefficients of both signs of zero
    zero = spl.c.copy()
    zero[-6:] = -0.0
    zero[-6::2] = 0.0
    for c in (spl.c, zero, np.ascontiguousarray(spl.c.T).T):
        want_spl = BSpline.construct_fast(spl.t, c, 3, axis=len(lead))
        got_spl = RowSpline(spl.t, c)
        for x in sets:
            got, want = got_spl(x), want_spl(x)
            assert got.shape == want.shape == lead + (len(x),)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_lambda_zero_is_one(ev_cosine, ev_bessel):
    xs = np.linspace(0.0, 6.0, 13)
    for ev in (ev_cosine, ev_bessel):
        w, w1, _ = ev.eval_grid(0.0, xs)
        assert np.allclose(w.real, 1.0, atol=1e-14)
        assert np.allclose(w1.real, 0.0, atol=1e-14)


def test_lambda_zero_needs_no_ode_solve(ev_cosine, monkeypatch):
    # w_0 = 1 exactly, alone, in a batch and from a shifted origin; the
    # points past the series table would otherwise take an ODE solve
    xs = np.linspace(0.0, 12.0, 25)
    W, W1, err = ev_cosine.eval_many([0.0, 3.0], xs)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ivp called for lambda = 0")

    monkeypatch.setattr("slhyper.kernel.solve_ivp", no_solve)
    w, w1, e = ev_cosine.eval_grid(0.0, xs)
    assert np.all(w == 1.0) and np.all(w1 == 0.0) and e == 0.0
    ws, w1s, es = _restricted(ev_cosine, 0.5).eval_grid(0.0, xs[2:])
    assert np.all(ws == 1.0) and np.all(w1s == 0.0) and es == 0.0
    assert np.all(W[0] == 1.0) and np.all(W1[0] == 0.0) and err[0] == 0.0
    assert np.allclose(W[1].real, np.cos(math.sqrt(3.0) * xs), atol=1e-9)


def test_cosine_oracle_with_flux(ev_cosine):
    xs = np.linspace(0.0, 5.0, 51)
    lam = 3.0
    w, w1, _ = ev_cosine.eval_grid(lam, xs)
    rt = math.sqrt(lam)
    assert np.allclose(w.real, np.cos(rt * xs), atol=1e-9)
    # second return is the flux p w'; p = 1 here
    assert np.allclose(w1.real, -rt * np.sin(rt * xs), atol=1e-8)


def test_bessel_flux_is_p_times_derivative(ev_bessel):
    lam = 2.0
    rt = math.sqrt(lam)
    xs = np.array([0.5, 1.0, 2.5])
    _, w1, _ = ev_bessel.eval_grid(lam, xs)
    dw = np.cos(rt * xs) / xs - np.sin(rt * xs) / (rt * xs ** 2)
    assert np.allclose(w1.real, xs ** 2 * dw, rtol=1e-7, atol=1e-9)


def _log_uniform(lo, hi, n, seed):
    # one draw per stratum, so the batch spans the whole range
    u = (np.arange(n) + np.random.default_rng(seed).uniform(size=n)) / n
    return lo * (hi / lo) ** u


def _cosine_ref(lams, xs):
    rt = np.sqrt(np.asarray(lams, dtype=complex))[:, None]
    return np.cos(rt * xs), -rt * np.sin(rt * xs)


def _bessel_half_ref(lams, xs):
    rt = np.sqrt(np.asarray(lams, dtype=float))[:, None]
    kx = rt * xs
    return np.sinc(kx / np.pi), xs * np.cos(kx) - np.sin(kx) / rt


def _assert_oracle(w, w1, ref_w, ref_w1):
    # the tolerances of test_cosine_oracle_with_flux, relative to
    # max(1, |w|) where the kernel grows
    assert np.all(np.abs(w - ref_w) <= 1e-9 * np.maximum(1.0, np.abs(ref_w)))
    assert np.all(np.abs(w1 - ref_w1) <= 1e-8 * np.maximum(1.0, np.abs(ref_w1)))


def test_eval_many_real_batch_oracle(ev_cosine, ev_bessel):
    xs = np.linspace(0.0, 5.0, 51)
    lams = _log_uniform(1e-2, 1e3, 24, seed=7)
    for ev, ref in ((ev_cosine, _cosine_ref), (ev_bessel, _bessel_half_ref)):
        w, w1, err = ev.eval_many(lams, xs)
        assert w.shape == w1.shape == (len(lams), len(xs))
        assert err.shape == (len(lams),) and np.all(err >= 0.0)
        _assert_oracle(w, w1, *ref(lams, xs))


def test_eval_many_complex_batch_oracle(ev_cosine):
    xs = np.linspace(0.0, 5.0, 51)
    lams = np.array([3 + 2j, 3 - 2j, -0.25 + 1j, 40 + 6j, 0.5, 400 + 20j])
    w, w1, _ = ev_cosine.eval_many(lams, xs)
    _assert_oracle(w, w1, *_cosine_ref(lams, xs))


def test_batching_keeps_single_lambda_accuracy(ev_cosine):
    xs = np.linspace(0.0, 5.0, 51)
    probes = np.array([0.01, 1.0])
    batch = np.sort(np.concatenate([probes, _log_uniform(1e-2, 1e3, 198, seed=3)]))
    W, W1, _ = ev_cosine.eval_many(batch, xs)
    for lam in probes:
        k = int(np.flatnonzero(batch == lam)[0])
        w, w1, _ = ev_cosine.eval_grid(lam, xs)
        ref_w, ref_w1 = _cosine_ref([lam], xs)
        _assert_oracle(w[None], w1[None], ref_w, ref_w1)
        _assert_oracle(W[k:k + 1], W1[k:k + 1], ref_w, ref_w1)
        assert np.max(np.abs(W[k] - w)) <= 1e-9
        assert np.max(np.abs(W1[k] - w1)) <= 1e-9


def test_repeated_grid_nodes(ev_cosine):
    w, w1, _ = ev_cosine.eval_grid(2.0, [1.0, 3.0, 3.0])
    rt = math.sqrt(2.0)
    assert np.allclose(w.real, np.cos(rt * np.array([1.0, 3.0, 3.0])), atol=1e-9)
    assert w[1] == w[2] and w1[1] == w1[2]


def test_negative_lambda_gives_cosh(ev_cosine):
    xs = np.linspace(0.0, 3.0, 7)
    w, _, _ = ev_cosine.eval_grid(-1.0, xs)
    assert np.allclose(w.real, np.cosh(xs), rtol=1e-9)


def test_point_outside_domain_rejected(ev_cosine):
    with pytest.raises(ValueError):
        ev_cosine.eval_grid(1.0, np.array([-0.5]))


def test_shifted_kernel_converges_to_plain(ev_cosine):
    # w(.; a_m) on [a_m, b) approaches the unshifted kernel as a_m -> a
    lam = 4.0
    xs = np.linspace(0.5, 4.0, 29)
    ref, _, _ = ev_cosine.eval_grid(lam, xs)
    errs = []
    for a_m in (0.1, 0.01):
        w, _, _ = _restricted(ev_cosine, a_m).eval_grid(lam, xs)
        errs.append(float(np.max(np.abs(w - ref))))
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2


def test_shifted_kernel_initial_data(ev_bessel):
    # at a_m the solution takes its initial data exactly, and just past a_m
    # it is still close to them
    a_m = 0.25
    w, w1, _ = _restricted(ev_bessel, a_m).eval_grid(
        3.0, np.array([a_m, a_m + 1e-6, 1.0]))
    assert w[0] == 1.0 and w1[0] == 0.0
    assert w[1] == pytest.approx(1.0, abs=1e-9)
    assert w1[1] == pytest.approx(0.0, abs=1e-4)


def test_shifted_kernel_empty_grid(ev_cosine):
    # no points: shape (0,) for one lambda and (K, 0) for K of them
    ev = _restricted(ev_cosine, 0.5)
    w, w1, _ = ev.eval_grid(2.0, [])
    assert w.shape == w1.shape == (0,)
    w, w1, err = ev.eval_many(np.array([1.0, 4.0]), [])
    assert w.shape == w1.shape == (2, 0) and err.shape == (2,)


@pytest.mark.parametrize("op", ["cosine", "bessel?alpha=0.5",
                                "whittaker?alpha=0.25&kappa=1.0"])
def test_eval_many_takes_points_in_any_order(op):
    """Permuted and repeated points give the sorted call's columns and error
    estimates bit for bit, series and ODE pairs alike: the series works
    point by point, and the ODE solve evaluates the distinct points in
    ascending order and scatters them back."""
    ev = KernelEvaluator(builtin_operator(op))
    xs = np.linspace(0.0, 6.0, 61)
    lams = [0.3, 4.0, 37.0, 400.0, 3.0 + 2.0j]
    W, W1, err = ev.eval_many(lams, xs)
    idx = np.r_[np.random.default_rng(7).permutation(len(xs)), 60, 0, 30, 30]
    P, P1, perr = ev.eval_many(lams, xs[idx])
    assert np.array_equal(P, W[:, idx]) and np.array_equal(P1, W1[:, idx])
    assert np.array_equal(perr, err)


def test_nan_points_raise(ev_cosine):
    """A NaN point is an error, from the origin a and from a shifted one,
    not w = 1 or values from memory that no solve wrote."""
    with pytest.raises(ValueError, match="points must not be NaN"):
        ev_cosine.eval_grid(4.0, [0.5, math.nan])
    with pytest.raises(ValueError, match="points must not be NaN"):
        _restricted(ev_cosine, 0.5).eval_grid(4.0, [1.0, math.nan])


def test_shifted_points_past_b_raise():
    """On (0, 5) a solution from the shifted origin 0.5 is not evaluated at
    x = 7, past b, nor at 0.25, before its origin."""
    spec = OperatorSpec("box", 0.0, 5.0, parse_expression("1"),
                        parse_expression("1"))
    spec.validate()
    ev = KernelEvaluator(spec)
    shifted = _restricted(ev, 0.5)
    for xs in ([1.0, 7.0], [0.25, 1.0]):
        with pytest.raises(ValueError, match=r"points outside \[0\.5, 5\)"):
            shifted.eval_grid(4.0, xs)
    with pytest.raises(ValueError, match=r"points outside \[0, 5\)"):
        ev.eval_grid(4.0, [1.0, 7.0])
    w, _, _ = shifted.eval_grid(4.0, [3.0, 1.0])
    assert np.allclose(w.real, np.cos(2.0 * np.array([2.5, 0.5])), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 80.0), x=st.floats(0.0, 10.0))
def test_boundedness_property(lam, x):
    ev = _shared_bessel()
    w, _, err = ev.eval_grid(lam, [x])
    assert abs(w[0]) <= 1.0 + 1e-9
    assert err >= 0.0


_BESSEL_CACHE = []


def _shared_bessel():
    if not _BESSEL_CACHE:
        _BESSEL_CACHE.append(KernelEvaluator(builtin_operator("bessel?alpha=1.0")))
    return _BESSEL_CACHE[0]


def test_jacobi_kernel_closed_form(tmp_path):
    """p = r = sinh(x)^2 on (0, oo), loaded from JSON: w_lambda(x) =
    sin(kx) / (k sinh x) with lambda = 1 + k^2.  Measured 1.0e-9 on 241
    points of [0, 6] at lambda 1.25 and 5; the bound is 2e-9."""
    path = tmp_path / "jac.json"
    path.write_text('{"name": "jacobi", "a": 0.0, "b": "inf", '
                    '"p": "sinh(x)^2", "r": "sinh(x)^2", "eta": "0"}')
    xs = np.linspace(0.0, 6.0, 241)
    lams = np.array([1.25, 5.0])
    W = KernelEvaluator(load_operator(str(path))).eval_many(lams, xs)[0]
    k = np.sqrt(lams - 1.0)[:, None]
    s = np.where(xs > 0.0, xs, 1.0)
    want = np.where(xs > 0.0, np.sin(k * s) / (k * np.sinh(s)), 1.0)
    assert np.max(np.abs(W - want)) <= 2e-9


def test_kernel_from_minus_infinity_closed_form():
    """p = 1, r = e^x on (-oo, oo), where the series table starts toward
    a = -oo: w_lambda(x) = J_0(2 sqrt(lambda) e^{x/2}).  Measured 2.2e-10
    on 261 points of [-10, 3]; the bound is 1e-9."""
    from scipy.special import j0

    spec = OperatorSpec("liouville", -math.inf, math.inf,
                        parse_expression("1"), parse_expression("exp(x)"))
    spec.validate()
    xs = np.linspace(-10.0, 3.0, 261)
    lams = np.array([0.01, 0.5, 2.0, 10.0, 50.0])
    W = KernelEvaluator(spec).eval_many(lams, xs)[0]
    want = j0(2.0 * np.sqrt(lams)[:, None] * np.exp(xs / 2.0))
    assert np.max(np.abs(W - want)) <= 1e-9


@pytest.mark.parametrize("coef", ["p", "r"])
def test_series_table_needs_finite_coefficient_slopes(coef):
    """The table's quadrature takes the exact slopes of its integrands from
    p' and r'.  Here the quotient is 1 + x/(x + 1e-300) in floats, but its
    symbolic derivative overflows to inf - inf, so the evaluator names the
    coefficient rather than build a table of NaN."""
    exprs = {"p": "1", "r": "1"}
    exprs[coef] = "1 + (1e300*x)/(1e300*x + 1)"
    spec = OperatorSpec("overflow", 0.0, math.inf, parse_expression(exprs["p"]),
                        parse_expression(exprs["r"]))
    spec.validate()
    with pytest.raises(ValueError, match=f"derivative of {coef} is not finite"):
        KernelEvaluator(spec)


def test_a_span_past_the_period_budget_is_an_error_before_any_solve(
        ev_cosine, monkeypatch):
    """At lambda 1e12 the ODE span [x0, 1] holds 1e6 / (2 pi) periods, and
    DOP853's steps follow them: eval_many raises, from a and from a shifted
    origin alike, naming lambda and the count, instead of running the
    solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ivp called past the period budget")

    monkeypatch.setattr("slhyper.kernel.solve_ivp", no_solve)
    with pytest.raises(ValueError, match=r"lambda = 1e\+12 spans about "
                       r"1\.59e\+05 periods of w on \[.*, 1\]"):
        ev_cosine.eval_many([1e12], np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError, match=r"lambda = 1e\+12\+1j spans"):
        _restricted(ev_cosine, 0.5).eval_many([1e12 + 1j], [1.0])


def test_the_period_budget_is_checked_before_the_series(ev_cosine):
    """At lambda 1e20 the series' scaled terms overflow (tau^-j), so the
    budget comes first, and numpy does not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"lambda = 1e\+20 spans about "
                           r"1\.59e\+09 periods"):
            ev_cosine.eval_many([1e20], np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("budget, fails", [(15.0, True), (16.5, False)])
def test_period_estimate_counts_the_oscillations(ev_cosine, monkeypatch,
                                                 budget, fails):
    """lambda = 100 hands off to the ODE at x0 = 0.1406 on cosine, and
    cos(10 x) spans 10 (10 - x0) / (2 pi) = 15.69 periods on [x0, 10]: the
    estimate reads that, and a budget just above it lets the solve run."""
    monkeypatch.setattr("slhyper.kernel._MAX_PERIODS", budget)
    xs = np.linspace(0.0, 10.0, 11)
    if fails:
        with pytest.raises(ValueError, match=r"spans about 15\.7 periods"):
            ev_cosine.eval_many([100.0], xs)
    else:
        w = ev_cosine.eval_many([100.0], xs)[0]
        assert np.allclose(w[0].real, np.cos(10.0 * xs), atol=1e-9)
