"""DOP853, the explicit Runge-Kutta method of order 8(5,3) (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, II.4-II.6), for the
kernel ODE.

``solve_ivp`` takes the steps that ``scipy.integrate.solve_ivp(fun, (t0,
t_eval[-1]), y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)``
takes and returns the same values: it is a port of that path through
scipy's ``_ivp`` package (``rk.py``, ``common.py`` and
``dop853_coefficients.py``), operation for operation, with the tableau as
the float64 values of scipy's constants.  It runs forward, on a real state,
to the last of t_eval, without options.  Importing scipy.integrate loads
scipy.optimize and scipy.special too, which cost a command line process
several times what its kernel solve does.

The port is derived from SciPy, used under its BSD-3-Clause license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = ["solve_ivp"]

# step controller
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
# the error estimate is of order 7, so the step scales as error^(-1/8)
_EXPONENT = -1 / 8

# The tableau: nodes _C, stage weights _A (row s holds a[s, :s]; rows 13-15
# are the three extra stages of the interpolant, row 12 is the solution
# weights b), the fifth- and third-order error weights _E5 and _E3, and the
# rows _D of the degree-7 interpolant.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = [v for row in _A_ROWS for v in row]
_B = _A[12, :12]


class Solution(NamedTuple):
    """The values at t_eval, shape (len(y0), len(t_eval)), and the number
    of right-hand side evaluations, which the benchmark's trace counts."""

    y: np.ndarray
    nfev: int


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """The first step: an Euler step of size h0 estimates the second
    derivative, and the step is the one whose error estimate is 0.01
    (Hairer, Norsett & Wanner, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_EXPONENT)
    return min(100 * h0, h1, interval_length)


def _error_norm(K: np.ndarray, h, scale: np.ndarray) -> float:
    """DOP853's RMS error estimate of a step: the fifth-order estimate,
    damped by the third-order one where the two disagree."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun: Callable, t0: float, y0: np.ndarray, t_eval: np.ndarray,
              rtol: float, atol: float) -> Solution:
    """Solve y' = fun(t, y), y(t0) = y0, from t0 to t_eval[-1], and return
    the solution at t_eval, which must increase strictly and lie past t0.

    Each step is accepted when its error norm, the RMS over components of
    the error relative to atol + rtol max(|y|, |y_new|), is below 1.  The
    values at the points of t_eval inside a step come from the step's
    interpolant.  Raises RuntimeError when rejected steps shrink below ten
    float spacings of t.  rtol is used as given: scipy raises an rtol below
    100 machine epsilons to that, which the kernel's tolerances reach only
    past 8e5 state components.
    """
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    t_bound = t_eval[-1]
    t, y = t0, np.asarray(y0, dtype=float)
    fy = f(t, y)
    h_abs = _initial_step(f, t, y, fy, t_bound, rtol, atol)
    # the stages: 0-11 of the step, 12 the derivative at its end, 13-15
    # the extra stages of the interpolant
    K = np.empty((16, y.size))
    out = np.empty((y.size, len(t_eval)))
    done = 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"ODE integration failed at t = {t!r}: the required step "
                    "size is less than the spacing between numbers")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = f(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = f(t + h, y_new)
            K[12] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, fy
        t, y, fy = t_new, y_new, f_new
        upto = int(np.searchsorted(t_eval, t, side="right"))
        if upto > done:
            out[:, done:upto] = _interpolate(f, K, t_old, y_old, f_old, h, y,
                                             fy, t_eval[done:upto])
            done = upto
    return Solution(out, nfev)


def _interpolate(f, K, t_old, y_old, f_old, h, y, fy, ts):
    """The step's degree-7 interpolant at the points ts of [t_old, t_old +
    h], shape (len(y), len(ts)), from three more stages of f."""
    for s in range(13, 16):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = f(t_old + _C[s] * h, y_old + dy)
    F = np.empty((7, len(y)))
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (fy + f_old)
    F[3:] = h * np.dot(_D, K)
    x = ((ts - t_old) / h)[:, None]
    v = np.zeros((len(ts), len(y)))
    for i, row in enumerate(reversed(F)):
        v += row
        v *= x if i % 2 == 0 else 1 - x
    v += y_old
    return v.T
