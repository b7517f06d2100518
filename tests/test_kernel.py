"""Kernel evaluation: closed-form oracles, shifted origins, and the
frequency-shift modification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhyper.operator import builtin_operator
from slhyper.kernel import KappaShiftedOperator, KernelEvaluator


@pytest.fixture(scope="module")
def ev_cosine():
    return KernelEvaluator(builtin_operator("cosine"))


@pytest.fixture(scope="module")
def ev_bessel():
    return KernelEvaluator(builtin_operator("bessel?alpha=0.5"))


def test_lambda_zero_is_one(ev_cosine, ev_bessel):
    xs = np.linspace(0.0, 6.0, 13)
    for ev in (ev_cosine, ev_bessel):
        w, w1, _ = ev.eval_grid(0.0, xs)
        assert np.allclose(w.real, 1.0, atol=1e-14)
        assert np.allclose(w1.real, 0.0, atol=1e-14)


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


def test_negative_lambda_gives_cosh(ev_cosine):
    xs = np.linspace(0.0, 3.0, 7)
    w, _, _ = ev_cosine.eval_grid(-1.0, xs)
    assert np.allclose(w.real, np.cosh(xs), rtol=1e-9)


def test_eval_w_matches_eval_grid(ev_bessel):
    val = ev_bessel.eval_w(5.0, 1.3)
    w, _, _ = ev_bessel.eval_grid(5.0, np.array([1.3]))
    assert val.w == pytest.approx(complex(w[0]), rel=1e-10)
    assert val.est_error >= 0.0


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
        w, _ = ev_cosine.eval_w_shifted(lam, a_m, xs)
        errs.append(float(np.max(np.abs(w - ref))))
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2


def test_shifted_kernel_initial_data(ev_bessel):
    # just past a_m the solution is still close to its unit initial value
    a_m = 0.25
    w, w1 = ev_bessel.eval_w_shifted(3.0, a_m, np.array([a_m + 1e-6, 1.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-9)
    assert w1[0] == pytest.approx(0.0, abs=1e-4)


def test_kappa_shift_ratio(ev_cosine):
    # the modified kernel is w_{kappa+lam}/w_kappa for the base operator
    ks = KappaShiftedOperator(ev_cosine, -1.0, 0.0)
    xs = np.array([0.5, 1.5])
    got = ks.eval_w(2.0, xs)
    w_num, _, _ = ev_cosine.eval_grid(1.0, xs)
    w_den, _, _ = ev_cosine.eval_grid(-1.0, xs)
    assert np.allclose(got, w_num / w_den, rtol=1e-9)
    assert np.allclose(ks.shift_measure_atoms(np.array([0.0, 2.0])),
                       [1.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 80.0), x=st.floats(0.0, 10.0))
def test_boundedness_property(lam, x):
    ev = _shared_bessel()
    assert abs(ev.eval_w(lam, x).w) <= 1.0 + 1e-9


_BESSEL_CACHE = []


def _shared_bessel():
    if not _BESSEL_CACHE:
        _BESSEL_CACHE.append(KernelEvaluator(builtin_operator("bessel?alpha=1.0")))
    return _BESSEL_CACHE[0]
