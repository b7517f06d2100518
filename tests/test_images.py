"""Oracles from a change of variable.  Under x = phi(u), phi' > 0, the
operator (p, r) becomes (p(phi) / phi', r(phi) phi'), whose kernel is
w(phi(u)) and whose measure, truncated to (phi^-1(a), phi^-1(L)], has the
same atoms and masses (Liouville's transformation; Zettl, Sturm-Liouville
Theory, 2005).  The image goes through another grid, another series table
and another hand-off, so the comparison is not circular.

Whittaker alpha = 1/4, kappa = 1, p = x^1.5 e^(-1/x) and r = x^-0.5
e^(-1/x) on (0, oo), becomes p = r = exp(u/2 - e^-u) on the line under
x = e^u.  Its image file is written from its expression text."""

import json
import math
import warnings

import numpy as np
import pytest

from slhyper.cli import main
from slhyper.kernel import KernelEvaluator
from slhyper.operator import (OperatorSpec, builtin_operator, load_operator,
                              parse_expression)
from slhyper.spectral import _finite_volume, build_spectral_measure

WHITTAKER_LOG = {"name": "wlog", "a": "-inf", "b": "inf",
                 "p": "exp(0.5*x - exp(-x))", "r": "exp(0.5*x - exp(-x))"}


@pytest.fixture
def wlog(tmp_path):
    path = tmp_path / "wlog.json"
    path.write_text(json.dumps(WHITTAKER_LOG))
    return path


def whittaker_eta1() -> float:
    """eta_1(1) of Whittaker alpha = 1/4, kappa = 1: int_0^1 r(xi) int_xi^1
    dt / p(t) dxi, where r(xi) int_xi^1 dt / p(t) = xi^-1/2 (2 D(xi^-1/2)
    - sqrt(pi) erfi(1) e^(-1/xi)), D Dawson's function; one smooth
    quadrature, 0.66192837."""
    from scipy.integrate import quad
    from scipy.special import dawsn, erfi

    return quad(lambda xi: xi ** -0.5 * (
        2.0 * dawsn(xi ** -0.5)
        - math.sqrt(math.pi) * erfi(1.0) * math.exp(-1.0 / xi)),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def test_whittaker_log_form_kernel_takes_the_first_term(wlog):
    """At lambda = 1e-3 the kernel at u = 0 (x = 1) is 1 - lambda eta_1(1)
    up to the dropped lambda^2 term, about 2e-7.  The u-form reads
    0.99934329 against 0.99933807, 5.2e-6 off; the bound is 1.1e-5.  The
    x-form is 3.4e-5 off (test_bessel_kingman.py,
    test_whittaker_kernel_takes_the_whole_first_term, a strict xfail)."""
    lam = 1e-3
    w = KernelEvaluator(load_operator(str(wlog))).eval_many([lam], [0.0])[0]
    assert abs(w[0, 0] - (1.0 - lam * whittaker_eta1())) <= 1.1e-5


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "the left-infinite series table starts where 1/p is 6.9e304, and the "
    "masses of the atoms fitted there come out negative (ROADMAP item 11's "
    "start rule)"))
def test_whittaker_log_form_measure_has_the_atoms_of_the_x_form(wlog):
    """The u-form measure on (-oo, log 12] against the x-form's on (0, 12],
    over their lowest 20 atoms.  The 1e-3 bound is a placeholder, to be
    measured once the build succeeds."""
    try:
        sm = build_spectral_measure(load_operator(str(wlog)),
                                    L=math.log(12.0), N=2048,
                                    lambda_max=1600.0)
    except ValueError as exc:
        if "non-positive atom mass" not in str(exc):
            pytest.fail(f"the build fails otherwise: {exc}")
        raise
    ref = build_spectral_measure(
        builtin_operator("whittaker?alpha=0.25&kappa=1.0"), L=12.0, N=4096,
        lambda_max=1600.0)
    assert np.allclose(sm.lambdas[:20], ref.lambdas[:20], rtol=1e-3)
    assert np.allclose(sm.masses[:20], ref.masses[:20], rtol=1e-3)


def test_underflowing_cell_masses_are_an_error_not_a_warning(wlog, tmp_path,
                                                             capsys):
    """The u-form's cell masses reach 2e-306 at the left end of its grid,
    where the product of two of them underflows; the off-diagonal takes
    their roots apart, and the build fails only at the atom masses, with a
    message that names the operator and the atom, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", "--op", str(wlog), "--L", "2.4849",
                     "--N", "2048", "--lambda-max", "1600",
                     "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "wlog: non-positive atom mass" in err and "at atom 0," in err
    assert "stebz" not in err


def test_a_matrix_that_is_not_finite_names_its_node():
    """p = sqrt(0.5 - x) is NaN past x = 0.5, and so is the finite-volume
    matrix there; the error names the operator and the first such node
    before any LAPACK call."""
    spec = OperatorSpec("half", 0.0, math.inf,
                        parse_expression("sqrt(0.5 - x)"), parse_expression("1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^half: the finite-volume "
                           r"matrix is not finite at node 31 \(x = 0\.5"):
            _finite_volume(spec, 0.0, 1.0, 63, 1.0, 100.0)
