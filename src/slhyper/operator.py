"""Operator definitions, the standard-form transformation and the
monotonicity certificate used by the convolution machinery.

An operator is the differential expression ``-(1/r)(p u')'`` on an open
interval ``(a, b)``.  The standard form re-parametrises it through the
monotone map ``gamma(x) = int_c^x sqrt(r/p)`` into ``-(1/A)(A u')'`` with
``A = sqrt(p r) o gamma^{-1}``.  ``gamma`` is tabulated once, on cells
that shrink geometrically toward both ends; ``gamma``, ``gamma_inv`` (both
on arrays), ``gamma(a)`` and the divergence check of ``gamma(b)`` read that
table.  Assumption MP's ``phi_eta`` and ``psi_eta`` are written once, in
``mp_coefficients``.  The support of delta_x * delta_y
(``classify_support``) reads only the standard form and the parameters
of its certificate.  The module needs numpy alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import urllib.parse
from dataclasses import dataclass, field, replace

import numpy as np

from .expr import CoefficientExpr, parse_expression

__all__ = [
    "OperatorSpec",
    "StandardForm",
    "MpCertificate",
    "SupportParams",
    "SupportReport",
    "check_left_boundary",
    "build_standard_form",
    "certify_mp",
    "support_params",
    "classify_support",
    "load_operator",
    "builtin_operator",
]

_VALIDATE_PROBES = 1000
_MP_PROBES = 512
# the gamma table: nodes per halving of the distance to an end, and
# halvings per side (to |x - c| = 2^60 at an infinite end)
_NODES_PER_HALVING = 8
_HALVINGS = 60
# below this a coefficient is a subnormal float whose spacing, 2^-1074, is
# more than 1e-13 of it, so sqrt(r/p) has lost digits
_COEF_FLOOR = 2.0 ** -1074 / 1e-13
_NEWTON_STEPS = 4
# check_left_boundary: cells per piece between two cuts, and the relative
# tolerance and the most halvings of each step of its inner integral
_PIECE_CELLS = 16
_ADAPT_RTOL = 1e-13
_ADAPT_DEPTH = 30
# support_params: psi equal to psi(0), and phi zero, to within this
_SUPPORT_ATOL = 1e-10

# the 8-point Gauss-Legendre rule, bit for bit the nodes and weights of
# np.polynomial.legendre.leggauss(8), written out so that importing the
# package does not load numpy.polynomial
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])


def _seg_integral(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of f over each segment [lo_i, hi_i]."""
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    tot = np.zeros_like(mid)
    for xg, wg in zip(_GL_X, _GL_W):
        with np.errstate(all="ignore"):
            tot += wg * f(mid + half * xg)
    return tot * half


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
        if not self.a < self.b:
            raise ValueError(f"{self.name}: the interval needs a < b, not "
                             f"a = {self.a:g} and b = {self.b:g}")
        pts = probe_points(self.a, self.b)
        with np.errstate(all="ignore"):
            pv, rv = self.p(pts), self.r(pts)
        # +inf is tolerated only as a contiguous overflow suffix toward b
        # (e.g. sinh(x)^2 past the float range), the mirror of the zeros below
        n = len(pts) - int(np.argmin(((pv == np.inf) | (rv == np.inf))[::-1]))
        pts, pv, rv = pts[:n], pv[:n], rv[:n]
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
    """Extrapolated limit of a sequence given by its increments, or +inf.

    The sequences here sample at points that approach an end geometrically
    (the cuts of an integral, the probes of sigma), so the increments of a
    convergent one decay at least geometrically; the tail is summed from
    the observed ratio.  Non-decaying increments signal divergence.
    """
    total = sum(increments)
    last, prev = abs(increments[-1]), abs(increments[-2])
    if last <= 1e-12 * (1.0 + abs(total)):
        return total
    q = last / prev if prev > 0 else 1.0
    if q <= 0.75:
        return total + increments[-1] * q / (1.0 - q)
    return math.inf


def _adaptive_integral(f, lo: np.ndarray, hi: np.ndarray,
                       depth: int = _ADAPT_DEPTH) -> np.ndarray:
    """Integral of f over each segment [lo_i, hi_i]: the 8-point
    Gauss-Legendre sums over its two halves, each segment halved again
    while they differ from the sum over the whole by more than
    _ADAPT_RTOL of their value, at most depth times.  Segments whose
    halves are not finite are not refined."""
    whole = _seg_integral(f, lo, hi)
    mid = (lo + hi) / 2
    halves = _seg_integral(f, lo, mid) + _seg_integral(f, mid, hi)
    with np.errstate(invalid="ignore"):
        bad = np.isfinite(halves) & ~(np.abs(halves - whole)
                                      <= _ADAPT_RTOL * np.abs(halves))
    if depth and bad.any():
        halves[bad] = (_adaptive_integral(f, lo[bad], mid[bad], depth - 1)
                       + _adaptive_integral(f, mid[bad], hi[bad], depth - 1))
    return halves


def _interior_point(spec: OperatorSpec) -> float:
    """The anchor c of the standard form and the left-boundary check:
    a + 1, (a + b) / 2, b - 1 or 0, as a and b are finite or not."""
    if math.isinf(spec.a):
        return 0.0 if math.isinf(spec.b) else spec.b - 1.0
    return spec.a + 1.0 if math.isinf(spec.b) else 0.5 * (spec.a + spec.b)


def check_left_boundary(spec: OperatorSpec) -> dict:
    """Convergence check of the nested integral int_a^c int_y^c dx/p r(y) dy,
    with c the standard form's anchor (``_interior_point``).

    The outer integral is summed piece by piece between the cuts of
    ``_left_cut_sequence``, each piece split into _PIECE_CELLS equal cells
    with the 8-point Gauss-Legendre rule.  The inner integral at all those
    nodes is one cumulative table of int dx/p from c toward a, each step
    between neighbouring nodes integrated by ``_adaptive_integral``, so an
    exponentially singular 1/p keeps its accuracy.  Refinement stops at the
    first piece that is not finite, where the coefficients have left the
    float range, and the value is the tail limit of the pieces
    (``_tail_limit``)."""
    c = _interior_point(spec)
    cuts = np.array([c, *_left_cut_sequence(spec.a, c)])
    frac = np.arange(_PIECE_CELLS) / _PIECE_CELLS
    edges = np.append((cuts[:-1, None] + np.diff(cuts)[:, None] * frac).ravel(),
                      cuts[-1])
    # the nodes run from c toward a: edges descend, so half < 0
    half = (edges[1:] - edges[:-1]) / 2
    ys = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_X).ravel()
    steps = _adaptive_integral(lambda x: 1.0 / spec.p(x), ys,
                               np.concatenate([[c], ys[:-1]]))
    with np.errstate(all="ignore"):
        rv = spec.r(ys)
        f = np.where(rv == 0.0, 0.0, rv * np.cumsum(steps))
    cells = -half * (f.reshape(-1, len(_GL_W)) @ _GL_W)
    trace = []
    incs = []
    total = 0.0
    for piece in cells.reshape(-1, _PIECE_CELLS).sum(axis=1).tolist():
        if not math.isfinite(piece):
            break
        total += piece
        incs.append(piece)
        trace.append(total)
    value = _tail_limit(incs) if len(incs) >= 3 else math.inf
    return {"finite": math.isfinite(value), "value": value,
            "refinement_trace": trace}


def _outward_nodes(c: float, end: float) -> np.ndarray:
    """c, then _NODES_PER_HALVING nodes per halving of the distance to a
    finite end; toward an infinite end |x - c| = 2^(k/8) - 1, up to 2^60."""
    k = np.arange(_HALVINGS * _NODES_PER_HALVING + 1) / _NODES_PER_HALVING
    if math.isinf(end):
        return c + math.copysign(1.0, end) * (2.0 ** k - 1.0)
    x = end + (c - end) * 2.0 ** -k
    x[0] = c
    return x


def _quarterings(inc: np.ndarray, n_full: int, k_max: int) -> list[float]:
    """|int sqrt(r/p)| over each of the first k_max full quarterings of the
    distance from c to an end, from the first n_full cell integrals."""
    per = 2 * _NODES_PER_HALVING
    k = min(n_full // per, k_max)
    return np.abs(inc[:k * per]).reshape(k, per).sum(axis=1).tolist()


class StandardForm:
    """gamma, A, sigma and the Liouville potential of an operator."""

    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self.c = _interior_point(spec)
        self._p1 = spec.p.diff()
        self._r1 = spec.r.diff()
        x_a, inc_a, full_a = self._side(spec.a)
        x_b, inc_b, full_b = self._side(spec.b)
        x = np.concatenate([x_a[:0:-1], x_b])
        g = np.concatenate([np.cumsum(inc_a)[::-1], [0.0], np.cumsum(inc_b)])
        # cells whose integral is below the spacing of gamma add no node
        self._g, keep = np.unique(g, return_index=True)
        self._x = x[keep]
        left = _quarterings(inc_a, full_a, 14)
        self.gamma_a = -_tail_limit(left) if len(left) >= 3 else -math.inf
        right = _quarterings(inc_b, full_b, 11)
        if right and right[-1] < 1e-6 * (1.0 + sum(right[:-1])):
            raise ValueError(
                f"{spec.name}: gamma stays bounded near b (gamma(b) must diverge)")
        self.sigma = self._estimate_sigma()

    # -- gamma ------------------------------------------------------------

    def _sqrt_rp(self, x):
        """sqrt(r/p) where p and r keep their digits, nan elsewhere."""
        with np.errstate(all="ignore"):
            p, r = self.spec.p(x), self.spec.r(x)
            s = np.sqrt(r / p)
        return np.where((np.minimum(p, r) >= _COEF_FLOOR) & (s > 0.0)
                        & (s < math.inf), s, math.nan)

    def _side(self, end: float) -> tuple[np.ndarray, np.ndarray, int]:
        """Nodes from c toward end, the signed integral of sqrt(r/p) over
        each cell between them, and the number of full cells.  The cells
        stop before the first one where p or r loses its digits; one last
        partial cell reaches the edge of that run, found by bisection."""
        x = _outward_nodes(self.c, end)
        inc = _seg_integral(self._sqrt_rp, x[:-1], x[1:])
        bad = ~np.isfinite(inc + self._sqrt_rp(x[1:]))
        if not bad.any():
            return x, inc, len(inc)
        n = int(np.argmax(bad))
        near, far = x[n], x[n + 1]
        while (mid := 0.5 * (near + far)) not in (near, far):
            if np.isfinite(self._sqrt_rp(mid)):
                near = mid
            else:
                far = mid
        edge = _seg_integral(self._sqrt_rp, x[n], near)
        if np.isfinite(edge):
            return np.append(x[:n + 1], near), np.append(inc[:n], edge), n
        return x[:n + 1], inc[:n], n

    def gamma(self, x):
        """int_c^x sqrt(r/p), for a number or an array: the table value at
        the node below x, or at the end node off the table, plus one
        Gauss-Legendre integral from that node; nan where p or r has lost
        its digits."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self._x, x, side="right") - 1,
                    0, len(self._x) - 1)
        out = self._g[i] + _seg_integral(self._sqrt_rp, self._x[i], x)
        return float(out) if out.ndim == 0 else out

    def gamma_inv(self, xi):
        """x with gamma(x) = xi, for a number or an array: linear
        interpolation within the target's table cell, then Newton steps
        with slope sqrt(r/p), each clipped to that cell.  Targets off the
        table raise ValueError."""
        xi = np.asarray(xi, dtype=float)
        g, nodes = self._g, self._x
        if not np.all((xi >= g[0]) & (xi <= g[-1])):
            raise ValueError("gamma_inv: target beyond reachable range")
        i = np.clip(np.searchsorted(g, xi, side="right") - 1, 0, len(g) - 2)
        lo, hi = nodes[i], nodes[i + 1]
        x = lo + (xi - g[i]) / (g[i + 1] - g[i]) * (hi - lo)
        for _ in range(_NEWTON_STEPS):
            excess = g[i] + _seg_integral(self._sqrt_rp, lo, x) - xi
            x = np.clip(x - excess / self._sqrt_rp(x), lo, hi)
        return float(x) if x.ndim == 0 else x

    # -- A and derived quantities ------------------------------------------

    def _half_log_pr_deriv(self, x):
        """g(x) = A'/(2A) at xi=gamma(x), i.e. (pr)'/(4pr) * sqrt(p/r),
        written as (p'/p + r'/r) / 4 * sqrt(p/r) so that no product p r
        is formed: it overflows where p and r each stay finite."""
        p, r = self.spec.p(x), self.spec.r(x)
        p1, r1 = self._p1(x), self._r1(x)
        return (p1 / p + r1 / r) / 4.0 * np.sqrt(p / r)

    def mp_coefficients(self, eta: CoefficientExpr, x, xi):
        """(phi_eta, psi_eta) of assumption MP at the points x, whose
        standard coordinates are xi = gamma(x):
        phi = 2g - eta and psi = eta'/2 - eta^2/4 + g eta, g = A'/(2A)."""
        g = self._half_log_pr_deriv(x)
        eta_v = eta(xi)
        phi = 2.0 * g - eta_v
        psi = eta.derivative(xi) / 2.0 - eta_v ** 2 / 4.0 + g * eta_v
        return phi, psi

    def _estimate_sigma(self) -> float:
        """sigma = lim A'/(2A) at b: the tail limit (``_tail_limit``) of
        A'/(2A) at c + 4^k toward an infinite b, or b - (b - c) 4^-k
        toward a finite one, the values that are not finite dropped."""
        b, c = self.spec.b, self.c
        if math.isinf(b):
            xs = c + 4.0 ** np.arange(0, 26)
        else:
            xs = b - (b - c) * 4.0 ** -np.arange(1, 26)
        with np.errstate(all="ignore"):
            g = self._half_log_pr_deriv(xs)
        g = g[np.isfinite(g)]
        sigma = _tail_limit(np.diff(g, prepend=0.0).tolist()) \
            if len(g) >= 3 else math.inf
        if not -1e-9 <= sigma < math.inf:
            raise ValueError(f"sigma estimate {sigma} from A'/2A = {g}")
        return max(sigma, 0.0)


def build_standard_form(spec: OperatorSpec) -> StandardForm:
    """The standard form anchored at ``_interior_point(spec)``."""
    return StandardForm(spec)


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
    violations: dict = field(default_factory=dict)  # failed check: first x

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def _mp_probe_xs(sf: StandardForm) -> np.ndarray:
    a, b, c = sf.spec.a, sf.spec.b, sf.c
    x_far = c + 1e6 if math.isinf(b) else b - (b - c) * 1e-6
    if math.isinf(a):
        lo = np.array([c - 4.0 ** k for k in range(20, 0, -1)])
        hi = np.geomspace(1e-4, x_far - c, _MP_PROBES - len(lo)) + c
        if math.isfinite(sf.gamma_a):
            # as far as the finite branch reaches: xi - gamma(a) <= 1e6
            hi = hi[sf.gamma(hi) - sf.gamma_a <= 1e6]
        return np.concatenate([lo, hi])
    offs = np.geomspace((c - a) * 1e-8, x_far - a, _MP_PROBES)
    return a + offs


def certify_mp(sf: StandardForm) -> MpCertificate:
    """Assumption MP with the operator's eta, or 0 when it has none.  Each
    failed check names in violations the first probe x where it fails: for
    a decreasing check, the probe where the value rises; for the limit at
    infinity, the last probe."""
    eta = sf.spec.eta if sf.spec.eta is not None else parse_expression("0")
    xs = _mp_probe_xs(sf)
    # drop probes where steep coefficients leave the float range
    xi = sf.gamma(xs)
    with np.errstate(all="ignore"):
        keep = np.isfinite(xi) & np.isfinite(sf._half_log_pr_deriv(xs))
    xs, xi = xs[keep], xi[keep]
    phi, psi = sf.mp_coefficients(eta, xs, xi)

    slack = 1e-9
    # whether each check holds at each probe
    holds = {
        "eta_nonnegative": np.broadcast_to(eta(xi) >= -slack, xs.shape),
        "phi_decreasing": np.append(True, np.diff(phi) <= slack),
        "psi_decreasing": np.append(True, np.diff(psi) <= slack),
        "phi_vanishes_at_infinity": np.append(
            np.ones(len(xs) - 1, bool), phi[-1] <= 1e-6 * abs(phi[0]) + 1e-9),
    }
    checks = {k: bool(h.all()) for k, h in holds.items()}
    violations = {k: float(xs[np.argmin(h)]) for k, h in holds.items()
                  if not checks[k]}
    s = xi - sf.gamma_a if math.isfinite(sf.gamma_a) else np.full_like(xi, np.nan)
    return MpCertificate(sf=sf, eta=eta, grid_xi=xi, grid_s=s,
                         phi_values=phi, psi_values=psi, checks=checks,
                         violations=violations)


@dataclass(frozen=True)
class SupportParams:
    x0: float
    x1: float
    eta_at_origin: float


def support_params(cert: MpCertificate) -> SupportParams:
    if not cert.all_ok:
        raise ValueError("MP not certified")
    if not math.isfinite(cert.sf.gamma_a):
        raise ValueError("support parameters need a finite gamma(a); "
                         "the operator is degenerate (full support)")
    s = cert.grid_s
    psi0 = cert.psi_values[0]
    same = np.abs(cert.psi_values - psi0) <= _SUPPORT_ATOL
    if np.all(same):
        x0 = math.inf
    else:
        first_diff = int(np.argmin(same))
        x0 = float(s[first_diff - 1]) if first_diff > 0 else 0.0
    small_phi = np.abs(cert.phi_values) <= _SUPPORT_ATOL
    if small_phi[0]:
        x1 = 0.0
    elif not np.any(small_phi):
        x1 = math.inf
    else:
        x1 = float(s[int(np.argmax(small_phi))])
    eta0 = float(np.asarray(cert.eta(cert.grid_xi[0]), dtype=float))
    return SupportParams(x0=x0, x1=x1, eta_at_origin=eta0)


# ---------------------------------------------------------------------------
# support of delta_x * delta_y


@dataclass(frozen=True)
class SupportReport:
    case: str
    intervals: tuple        # ((lo, hi), ...) in the operator's coordinate
    gamma_mapped: bool


def _merge(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1e-14:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _case_of(par: SupportParams) -> str:
    eta0_zero = abs(par.eta_at_origin) <= 1e-12
    if math.isinf(par.x0) and math.isinf(par.x1):
        return "extrapolated_e"
    if not eta0_zero:
        return "e"
    if math.isinf(par.x0) and par.x1 == 0.0:
        return "a"
    if par.x1 == 0.0 and 0.0 < par.x0 < math.inf:
        return "b"
    if math.isinf(par.x0) and 0.0 < par.x1 < math.inf:
        return "c"
    if 0.0 < 3.0 * par.x1 < par.x0 < math.inf:
        return "d"
    return "e"


def _support_in_s(case: str, u: float, v: float, par: SupportParams):
    d, s = abs(u - v), u + v
    x0, x1 = par.x0, par.x1
    if case in ("e", "extrapolated_e"):
        return ((d, s),)
    if case == "a":
        return ((d, d), (s, s))
    if case == "b":
        if s <= x0:
            return ((d, d), (s, s))
        if max(u, v) < x0:
            return _merge([(d, d), (2 * x0 - s, s)])
        return ((d, s),)
    # cases c and d share the two-interval shape away from the thresholds
    if case == "c":
        if min(u, v) <= 2 * x1:
            return ((d, s),)
        return _merge([(d, 2 * x1 + d), (s - 2 * x1, s)])
    if case == "d":
        if min(u, v) <= 2 * x1 or max(u, v) >= x0 - x1:
            return ((d, s),)
        return _merge([(d, 2 * x1 + d), (s - 2 * x1, s)])
    raise ValueError(f"unknown case {case!r}")


def classify_support(x: float, y: float, sf: StandardForm,
                     params: SupportParams | None) -> SupportReport:
    """Support of delta_x * delta_y per the structure parameters
    (x0, x1, eta(0)) of the standard form."""
    if not math.isfinite(sf.gamma_a):
        return SupportReport(case="degenerate_full",
                             intervals=((sf.spec.a, sf.spec.b),),
                             gamma_mapped=False)
    if params is None:
        raise ValueError("support parameters required for a finite gamma(a)")
    u = sf.gamma(x) - sf.gamma_a
    v = sf.gamma(y) - sf.gamma_a
    if u < 0 or v < 0:
        raise ValueError("x, y must lie in (a, b)")
    case = _case_of(params)
    s_ints = _support_in_s(case, u, v, params)

    def back(sv):
        if sv <= 0.0:
            return sf.spec.a
        return sf.gamma_inv(sf.gamma_a + sv)

    ints = tuple((back(lo), back(hi)) for lo, hi in s_ints)
    return SupportReport(case=case, intervals=ints, gamma_mapped=True)


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


_INFINITIES = {"inf": math.inf, "Infinity": math.inf,
               "-inf": -math.inf, "-Infinity": -math.inf}


def _json_field(doc: dict, key: str, source: str):
    """Field key of an operator file: a float for the end points a and b,
    which are JSON numbers or one of the strings in _INFINITIES, and a
    string for the coefficients p, r and eta.  A missing field or any
    other type is a ValueError that names the file and the field."""
    if key not in doc:
        raise ValueError(f"{source}: field {key!r} is missing")
    value = doc[key]
    if key in ("a", "b"):
        if isinstance(value, str) and value in _INFINITIES:
            return _INFINITIES[value]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
        want = 'a number, "inf" or "-inf"'
    elif isinstance(value, str):
        return value
    else:
        want = "an expression string"
    raise ValueError(f"{source}: field {key!r} must be {want}, not "
                     f"{json.dumps(value)}")


def load_operator(source: str) -> OperatorSpec:
    """Load from "builtin:<name>" or a JSON definition file.

    A file without a "name" names its operator by the SHA-256 of its bytes,
    not by its path, so one operator read from two paths is one operator;
    the errors raised here still name the path."""
    if source.startswith("builtin:"):
        return builtin_operator(source[len("builtin:"):])
    with open(source, "rb") as fh:
        data = fh.read()
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: an operator file holds a JSON object")
    a, b, p, r = (_json_field(doc, key, source) for key in ("a", "b", "p", "r"))
    eta = parse_expression(_json_field(doc, "eta", source)) if "eta" in doc else None
    spec = OperatorSpec(doc.get("name", source), a, b,
                        parse_expression(p), parse_expression(r), eta=eta)
    spec.validate()
    if "name" not in doc:
        spec = replace(
            spec, name="sha256:" + hashlib.sha256(data).hexdigest())
    return spec
