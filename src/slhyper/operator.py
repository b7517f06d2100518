"""Operator definitions, the standard-form transformation and the
monotonicity certificate used by the convolution machinery.

An operator is the differential expression ``-(1/r)(p u')'`` on an open
interval ``(a, b)``.  The standard form re-parametrises it through the
monotone map ``gamma(x) = int_c^x sqrt(r/p)`` into ``-(1/A)(A u')'`` with
``A = sqrt(p r) o gamma^{-1}``.  ``gamma`` and ``gamma_inv`` take arrays
and chain their quadratures from point to point; assumption MP's
``phi_eta`` and ``psi_eta`` are written once, in ``mp_coefficients``.
"""

from __future__ import annotations

import json
import math
import urllib.parse
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .expr import CoefficientExpr, parse_expression

__all__ = [
    "OperatorSpec",
    "StandardForm",
    "MpCertificate",
    "SupportParams",
    "check_left_boundary",
    "build_standard_form",
    "certify_mp",
    "support_params",
    "load_operator",
    "builtin_operator",
]

_QUAD_OPTS = dict(limit=200, epsabs=1e-12, epsrel=1e-11)
_VALIDATE_PROBES = 1000
_MP_PROBES = 512

_real_quad = quad


def quad(*args, **kwargs):  # noqa: A001 - deliberate local shadow
    """scipy.integrate.quad with roundoff chatter silenced; accuracy is
    audited by the refinement traces, not by per-call warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _real_quad(*args, **kwargs)


def probe_points(a: float, b: float) -> np.ndarray:
    """Log-spaced probe of (a,b), clustered at the left endpoint."""
    if math.isinf(a):
        lo = -1e4 if math.isinf(b) else b - 1e4
        hi = 1e4 if math.isinf(b) else b - 1e-8 * max(1.0, abs(b))
        return np.linspace(lo, hi, _VALIDATE_PROBES)
    span = 1e4 if math.isinf(b) else (b - a) * (1 - 1e-12)
    offs = np.geomspace(span * 1e-12, span, _VALIDATE_PROBES)
    return a + offs


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients p, r of -(1/r)(p u')' on (a,b), with an optional
    monotonicity parameter eta (a function of the standard coordinate)."""

    name: str
    a: float
    b: float
    p: CoefficientExpr
    r: CoefficientExpr
    eta: CoefficientExpr | None = None

    def validate(self) -> None:
        pts = probe_points(self.a, self.b)
        pv = self.p(pts)
        rv = self.r(pts)
        if not (np.all(np.isfinite(pv)) and np.all(np.isfinite(rv))):
            raise ValueError(f"{self.name}: coefficient not finite on probe grid")
        if np.any(pv < 0) or np.any(rv < 0):
            i = int(np.argmax((pv < 0) | (rv < 0)))
            raise ValueError(f"{self.name}: negative coefficient at x={pts[i]}")
        # exact zeros are tolerated only as a contiguous underflow prefix at
        # a singular left endpoint (e.g. exp(-1/x) below the float range)
        zero = (pv == 0) | (rv == 0)
        if np.any(zero):
            k = int(np.argmin(zero))  # first strictly positive index
            if zero[-1] or np.any(zero[k:]):
                i = k + int(np.argmax(zero[k:]))
                raise ValueError(f"{self.name}: vanishing coefficient at x={pts[i]}")


def _left_cut_sequence(a: float, c: float, k_max: int = 14):
    if math.isinf(a):
        return [c - 4.0 ** k for k in range(1, k_max + 1)]
    return [a + (c - a) * 4.0 ** (-k) for k in range(1, k_max + 1)]


def _tail_limit(increments: list[float]) -> float:
    """Extrapolated limit of a series of refinement increments, or +inf.

    The cut sequence shrinks geometrically, so for a convergent integral the
    increments decay at least geometrically; the tail is summed from the
    observed ratio.  Non-decaying increments signal divergence.
    """
    total = sum(increments)
    last, prev = abs(increments[-1]), abs(increments[-2])
    if last <= 1e-12 * (1.0 + abs(total)):
        return total
    q = last / prev if prev > 0 else 1.0
    if q <= 0.75:
        return total + increments[-1] * q / (1.0 - q)
    return math.inf


def check_left_boundary(spec: OperatorSpec, c: float | None = None) -> dict:
    """Convergence check of the nested integral int_a^c int_y^c dx/p r(y) dy."""
    if c is None:
        c = spec.a + 1.0 if math.isinf(spec.b) else 0.5 * (spec.a + spec.b)
        if math.isinf(spec.a):
            c = 0.0

    def inner(y):
        val, _ = quad(lambda x: 1.0 / spec.p(x), y, c, **_QUAD_OPTS)
        return val

    def integrand(y):
        rv = spec.r(y)
        return 0.0 if rv == 0.0 else rv * inner(y)

    trace = []
    incs = []
    prev_cut = c
    total = 0.0
    for cut in _left_cut_sequence(spec.a, c):
        # stop refining once the integrand leaves the representable float
        # range (steep exponential coefficients); the tail is extrapolated
        mid = 0.5 * (cut + prev_cut)
        if not all(math.isfinite(integrand(y)) for y in (cut, mid)):
            break
        piece, _ = quad(integrand, cut, prev_cut, **_QUAD_OPTS)
        if not math.isfinite(piece):
            break
        total += piece
        incs.append(piece)
        trace.append(total)
        prev_cut = cut
    value = _tail_limit(incs) if len(incs) >= 3 else math.inf
    return {"finite": math.isfinite(value), "value": value,
            "refinement_trace": trace}


class StandardForm:
    """gamma, A, sigma and the Liouville potential of an operator."""

    def __init__(self, spec: OperatorSpec, c: float):
        self.spec = spec
        self.c = c
        self._p1 = spec.p.diff()
        self._r1 = spec.r.diff()
        self.gamma_a = self._compute_gamma_a()
        self._check_gamma_b_diverges()
        self.sigma, self.sigma_trace = self._estimate_sigma()

    # -- gamma ------------------------------------------------------------

    def _sqrt_rp(self, x):
        return math.sqrt(self.spec.r(x) / self.spec.p(x))

    def gamma(self, x):
        """int_c^x sqrt(r/p) for a number, one quadrature from c, or for an
        array, by quadrature over the increments of its sorted points."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty_like(flat)
        prev_x, prev_g = self.c, 0.0
        for i in np.argsort(flat):
            out[i] = prev_g + quad(self._sqrt_rp, prev_x, flat[i], **_QUAD_OPTS)[0]
            prev_x, prev_g = flat[i], out[i]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def gamma_inv(self, xi):
        """x with gamma(x) = xi, for a number or an array.  The sorted
        targets are solved outward from gamma(c) = 0, each bracketed and
        integrated from the previous root; roots of nearly equal targets
        may come out of order within brentq's xtol."""
        xi = np.asarray(xi, dtype=float)
        flat = xi.ravel()
        out = np.empty_like(flat)
        order = np.argsort(flat, kind="stable")
        split = int(np.searchsorted(flat[order], 0.0))
        for run in (order[split:], order[:split][::-1]):
            x, g = self.c, 0.0
            for i in run:
                x, g = self._root_from(x, g, flat[i])
                out[i] = x
        return float(out[0]) if xi.ndim == 0 else out.reshape(xi.shape)

    def _root_from(self, x0: float, g0: float, t: float) -> tuple[float, float]:
        """(x, gamma(x)) with gamma(x) = t, from x0 where gamma(x0) = g0: the
        bracket grows outward by the Newton step, doubled until it holds
        the root, and toward a finite end by a quarter of what is left.
        Where the integral is not finite, as where p and r both underflow,
        the far end is bisected back toward the near one.  Later far ends
        halve the way to the nearest such point; a target that twice the
        slope at the near end would not reach before it counts as out of
        range."""
        a, b = self.spec.a, self.spec.b
        sign = 1.0 if t >= g0 else -1.0

        def excess(x):
            return g0 + quad(self._sqrt_rp, x0, x, **_QUAD_OPTS)[0] - t

        slope = self._sqrt_rp(x0)
        step = abs(t - g0) / slope if 0.0 < slope < math.inf else 1.0
        near = far = x0
        edge = None
        f_far = g0 - t
        while sign * f_far < 0.0:
            if step > 1e12:
                raise ValueError("gamma_inv: target beyond reachable range")
            near = far
            if sign > 0:
                far = far + step if math.isinf(b) else \
                    min(far + step, b - 1e-15 * max(1.0, abs(b)))
            else:
                far = far - step if math.isinf(a) else \
                    max(far - step, a + (far - a) / 4.0)
            if edge is not None and sign * (far - edge) >= 0.0:
                # f_far is still the excess at near
                far = 0.5 * (near + edge)
                if far in (near, edge) or \
                        abs(f_far) > 2.0 * self._sqrt_rp(near) * abs(edge - near):
                    raise ValueError("gamma_inv: target beyond reachable range")
            f_far = excess(far)
            while not math.isfinite(f_far):
                edge, far = far, 0.5 * (near + far)
                if far in (near, edge):
                    raise ValueError("gamma_inv: target beyond reachable range")
                f_far = excess(far)
            step *= 2.0
        if f_far == 0.0:
            return far, t
        x = brentq(excess, near, far, xtol=1e-12, rtol=8.9e-16)
        return x, t + excess(x)

    def _pieces(self, cuts) -> list[float]:
        """|int sqrt(r/p)| from c to the first cut and between consecutive
        cuts, each integrated over increasing x."""
        edges = [self.c, *cuts]
        return [quad(self._sqrt_rp, min(u, v), max(u, v), **_QUAD_OPTS)[0]
                for u, v in zip(edges, edges[1:])]

    def _compute_gamma_a(self) -> float:
        return -_tail_limit(self._pieces(_left_cut_sequence(self.spec.a, self.c)))

    def _check_gamma_b_diverges(self) -> None:
        b = self.spec.b
        if math.isinf(b):
            cuts = [self.c + 4.0 ** k for k in range(1, 12)]
        else:
            cuts = [b - (b - self.c) * 4.0 ** (-k) for k in range(1, 12)]
        incs = self._pieces(cuts)
        if incs[-1] < 1e-6 * (1.0 + sum(incs[:-1])):
            raise ValueError(
                f"{self.spec.name}: gamma stays bounded near b (gamma(b) must diverge)")

    # -- A and derived quantities ------------------------------------------

    def _half_log_pr_deriv(self, x):
        """g(x) = A'/(2A) at xi=gamma(x), i.e. (pr)'/(4pr) * sqrt(p/r)."""
        p, r = self.spec.p(x), self.spec.r(x)
        p1, r1 = self._p1(x), self._r1(x)
        return (p1 * r + p * r1) / (4.0 * p * r) * np.sqrt(p / r)

    def mp_coefficients(self, eta: CoefficientExpr, x, xi):
        """(phi_eta, psi_eta) of assumption MP at the points x, whose
        standard coordinates are xi = gamma(x):
        phi = 2g - eta and psi = eta'/2 - eta^2/4 + g eta, g = A'/(2A)."""
        g = self._half_log_pr_deriv(x)
        eta_v = eta(xi)
        phi = 2.0 * g - eta_v
        psi = eta.derivative(xi) / 2.0 - eta_v ** 2 / 4.0 + g * eta_v
        return phi, psi

    def _estimate_sigma(self):
        a, b, c = self.spec.a, self.spec.b, self.c
        if math.isinf(b):
            xs = [c + 4.0 ** k for k in range(0, 26)]
        else:
            xs = [b - (b - c) * 4.0 ** (-k) for k in range(1, 26)]
        trace = []
        for x in xs:
            trace.append(self._half_log_pr_deriv(x))
            if len(trace) >= 3 and abs(trace[-1] - trace[-2]) <= 1e-6 \
                    and abs(trace[-1] - trace[-3]) <= 1e-6:
                sigma = trace[-1]
                if sigma < 0 and sigma > -1e-9:
                    sigma = 0.0
                if sigma < 0:
                    raise ValueError(f"sigma estimate negative: {sigma}; trace={trace}")
                return sigma, trace
        raise ValueError(f"sigma estimate did not stabilize; trace={trace}")


def build_standard_form(spec: OperatorSpec, c: float | None = None) -> StandardForm:
    if c is None:
        if math.isinf(spec.a):
            c = 0.0 if math.isinf(spec.b) else spec.b - 1.0
        else:
            c = spec.a + 1.0 if math.isinf(spec.b) else 0.5 * (spec.a + spec.b)
    if not (spec.a < c < spec.b):
        raise ValueError("c must be strictly interior")
    return StandardForm(spec, c)


# ---------------------------------------------------------------------------
# Assumption MP certificate


@dataclass(frozen=True)
class MpCertificate:
    sf: StandardForm
    eta: CoefficientExpr
    grid_xi: np.ndarray       # standard-form coordinates of the probes
    grid_s: np.ndarray        # xi - gamma(a) (only when gamma(a) finite)
    phi_values: np.ndarray
    psi_values: np.ndarray
    checks: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def _mp_probe_xs(sf: StandardForm) -> np.ndarray:
    a, b, c = sf.spec.a, sf.spec.b, sf.c
    x_far = c + 1e6 if math.isinf(b) else b - (b - c) * 1e-6
    if math.isinf(a):
        lo = np.array([c - 4.0 ** k for k in range(20, 0, -1)])
        hi = np.geomspace(1e-4, x_far - c, _MP_PROBES - len(lo)) + c
        return np.concatenate([lo, hi])
    offs = np.geomspace((c - a) * 1e-8, x_far - a, _MP_PROBES)
    return a + offs


def certify_mp(sf: StandardForm, eta: CoefficientExpr | None = None) -> MpCertificate:
    if eta is None:
        eta = sf.spec.eta if sf.spec.eta is not None else parse_expression("0", "x")
    xs = _mp_probe_xs(sf)
    # drop probes where steep coefficients leave the float range
    with np.errstate(all="ignore"):
        pv, rv = sf.spec.p(xs), sf.spec.r(xs)
        keep = (pv > 0) & (rv > 0) & np.isfinite(rv / pv) \
            & np.isfinite(sf._half_log_pr_deriv(xs))
    xs = xs[keep]
    xi = sf.gamma(xs)
    phi, psi = sf.mp_coefficients(eta, xs, xi)

    slack = 1e-9
    eta_v = eta(xi)
    checks = {
        "eta_nonnegative": bool(np.all(eta_v >= -slack)),
        "phi_decreasing": bool(np.all(np.diff(phi) <= slack)),
        "psi_decreasing": bool(np.all(np.diff(psi) <= slack)),
        "phi_vanishes_at_infinity": bool(phi[-1] <= 1e-6 * abs(phi[0]) + 1e-9),
    }
    s = xi - sf.gamma_a if math.isfinite(sf.gamma_a) else np.full_like(xi, np.nan)
    return MpCertificate(sf=sf, eta=eta, grid_xi=xi, grid_s=s,
                         phi_values=phi, psi_values=psi, checks=checks)


@dataclass(frozen=True)
class SupportParams:
    x0: float
    x1: float
    eta_at_origin: float


def support_params(cert: MpCertificate, atol: float = 1e-10) -> SupportParams:
    if not cert.all_ok:
        raise ValueError("MP not certified")
    if not math.isfinite(cert.sf.gamma_a):
        raise ValueError("support parameters need a finite gamma(a); "
                         "the operator is degenerate (full support)")
    s = cert.grid_s
    psi0 = cert.psi_values[0]
    same = np.abs(cert.psi_values - psi0) <= atol
    if np.all(same):
        x0 = math.inf
    else:
        first_diff = int(np.argmin(same))
        x0 = float(s[first_diff - 1]) if first_diff > 0 else 0.0
    small_phi = np.abs(cert.phi_values) <= atol
    if small_phi[0]:
        x1 = 0.0
    elif not np.any(small_phi):
        x1 = math.inf
    else:
        x1 = float(s[int(np.argmax(small_phi))])
    eta0 = float(np.asarray(cert.eta(cert.grid_xi[0]), dtype=float))
    return SupportParams(x0=x0, x1=x1, eta_at_origin=eta0)


# ---------------------------------------------------------------------------
# Built-in operators and definition files


def builtin_operator(name: str) -> OperatorSpec:
    """Built-ins: "cosine", "bessel?alpha=...", "whittaker?alpha=...&kappa=..."."""
    base, _, query = name.partition("?")
    params = dict(urllib.parse.parse_qsl(query))
    if base == "cosine":
        return OperatorSpec("cosine", 0.0, math.inf,
                            parse_expression("1"), parse_expression("1"),
                            eta=parse_expression("0"))
    if base == "bessel":
        alpha = float(params.get("alpha", 0.5))
        if alpha < -0.5:
            raise ValueError("bessel: alpha must be >= -1/2")
        e = repr(2.0 * alpha + 1.0)
        coeff = parse_expression(f"x^{e}")
        return OperatorSpec(f"bessel[alpha={alpha}]", 0.0, math.inf,
                            coeff, coeff, eta=parse_expression("0"))
    if base == "whittaker":
        alpha = float(params.get("alpha", 0.25))
        kappa = float(params.get("kappa", 1.0))
        zeta0 = 1.0 - 2.0 * alpha
        if zeta0 <= 0 or kappa <= 0:
            raise ValueError("whittaker: needs alpha < 1/2 and kappa > 0")
        p = parse_expression(f"x^{repr(1.0 + zeta0)} * exp(-{repr(kappa)}/x)")
        r = parse_expression(f"x^{repr(zeta0 - 1.0)} * exp(-{repr(kappa)}/x)")
        # constant eta = lim A'/A; with this choice phi_eta = kappa*e^{-kappa*z} -> 0
        eta = parse_expression(repr(zeta0))
        return OperatorSpec(f"whittaker[alpha={alpha},kappa={kappa}]",
                            0.0, math.inf, p, r, eta=eta)
    raise ValueError(f"unknown builtin operator {base!r}")


def load_operator(source: str) -> OperatorSpec:
    """Load from "builtin:<name>" or a JSON definition file."""
    if source.startswith("builtin:"):
        return builtin_operator(source[len("builtin:"):])
    with open(source, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    a = float(doc["a"]) if doc["a"] not in ("-inf", "-Infinity") else -math.inf
    b = float(doc["b"]) if doc["b"] not in ("inf", "Infinity") else math.inf
    eta = parse_expression(doc["eta"]) if "eta" in doc else None
    spec = OperatorSpec(doc.get("name", source), a, b,
                        parse_expression(doc["p"]), parse_expression(doc["r"]), eta=eta)
    spec.validate()
    return spec
