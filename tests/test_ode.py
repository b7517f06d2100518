"""The numpy DOP853 (slhyper.ode) against scipy's solve_ivp, on the systems
and tolerances the kernel hands it."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from slhyper import ode
from slhyper.kernel import KernelEvaluator
from slhyper.operator import builtin_operator

XS = np.linspace(0.05, 12.0, 241)
REAL = np.geomspace(1e-2, 1e3, 12)
COMPLEX = np.array([2.0 + 1.5j, 9.0 - 0.5j, 0.3j, 40.0])


def _kernel_solves(name, run, monkeypatch):
    """The arguments and results of every ODE solve that run(evaluator)
    makes through the port."""
    calls = []

    def spy(*args):
        sol = ode.solve_ivp(*args)
        calls.append((args, sol))
        return sol

    monkeypatch.setattr("slhyper.kernel.solve_ivp", spy)
    run(KernelEvaluator(builtin_operator(name)))
    return calls


@pytest.mark.parametrize("name, run, n_state", [
    ("cosine", lambda ev: ev.eval_many(REAL, XS), 24),
    ("whittaker?alpha=0.25&kappa=1.0", lambda ev: ev.eval_many(REAL, XS), 24),
    ("cosine", lambda ev: ev.eval_many(COMPLEX, XS), 16),
    ("whittaker?alpha=0.25&kappa=1.0",
     lambda ev: KernelEvaluator(replace(ev.spec, a=1.0)).eval_many(
         np.array([3.0, 7.5 + 0.5j]), XS[XS > 1.0]),
     8),
], ids=["cosine-real", "whittaker-real", "cosine-paired", "whittaker-shifted"])
def test_port_matches_scipy_on_the_kernel_systems(name, run, n_state, monkeypatch):
    """The stacked real state of 12 lambdas in [1e-2, 1e3], the paired
    (Re, Im) state of complex lambdas and a start at the shifted origin 1
    (the kernel of the operator restricted to (1, inf)), each with the
    tolerances _integrate passes, against scipy's DOP853.  The port takes
    scipy's operations, so the values agree to rounding; the tolerance
    leaves room for scipy versions whose initial-step rule differs."""
    [((fun, t0, y0, t_eval, rtol, atol), sol)] = _kernel_solves(name, run,
                                                                 monkeypatch)
    assert y0.shape == (n_state,) and len(t_eval) > 1
    ref = scipy_solve_ivp(fun, (t0, float(t_eval[-1])), y0, t_eval=t_eval,
                          method="DOP853", rtol=rtol, atol=atol)
    assert ref.success
    assert sol.y.shape == ref.y.shape
    peak = max(1.0, float(np.max(np.abs(ref.y))))
    assert np.max(np.abs(sol.y - ref.y)) <= 1e-10 * peak


def test_step_size_too_small_is_an_error():
    # y' = y^2, y(0) = 1 blows up at t = 1, where scipy's DOP853 fails too
    def fun(t, y):
        return y * y

    t_eval = np.array([0.5, 2.0])
    ref = scipy_solve_ivp(fun, (0.0, 2.0), np.ones(1), t_eval=t_eval,
                          method="DOP853", rtol=1e-10, atol=1e-12)
    assert not ref.success
    with pytest.raises(RuntimeError, match="spacing between numbers"):
        ode.solve_ivp(fun, 0.0, np.ones(1), t_eval, 1e-10, 1e-12)
