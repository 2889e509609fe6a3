"""Sublevel-measure control for the explicit orbit-distance functions, and
the cusp-hitting ratios of expanding translates.

The central object is the family

    f(x) = (b x^(3/4+gamma) - a x^(-1/4))^2 (x^(1/4 - 1/(kappa+4)))^2
         + (b x^(1/4))^2 (x^(1/4 - 1/(kappa+4)))^2

on [1, oo), whose sublevel sets govern how often the expanding translate of
an orbit visits a shrinking cusp region.  Under the vector condition
|b| >= mu or |a|^kappa |b| >= nu the sublevel measure of any window anchored
at level rho is bounded by C (eps/rho)^(1/2) times the window length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_capacity
from .report import ExperimentReport
from .surface import SurfacePoint, cusp_norms

_WINDOW_CAP = 1e8
# The CSV's windows column.  bench/reference.json pins it, though one window
# per anchor decides each constant (see verify_good).
_WINDOWS_COLUMN = 50


@dataclass(frozen=True, slots=True)
class GoodFnParams:
    """Vector coordinates plus exponents; rho anchors the windows.

    Sign normalization b >= 0 (the function is even under joint negation).
    """

    a: float
    b: float
    kappa: float
    gamma: float
    mu: float
    nu: float
    rho: float = 0.0

    def __post_init__(self):
        if self.kappa < 1.0 or not (0.0 < self.gamma < 1.0 / (self.kappa + 4.0)):
            raise ValueError("need kappa >= 1 and 0 < gamma < 1/(kappa+4)")
        if not (0.0 < self.mu < math.inf and 0.0 < self.nu < math.inf):
            raise ValueError("witness constants must be finite and positive")
        try:
            ok = abs(self.b) >= self.mu or abs(self.a) ** self.kappa * abs(self.b) >= self.nu
        except OverflowError:
            raise OverflowError("|a|^kappa |b| overflows the float range") from None
        if not ok:
            raise ValueError("vector violates the |b| >= mu or |a|^k |b| >= nu condition")
        if self.b < 0.0:
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
        if self.rho <= 0.0:
            object.__setattr__(self, "rho", min(self.f1(), 0.25))
        if self.rho > self.f1():
            raise ValueError("rho must not exceed f(1)")

    def f1(self) -> float:
        try:
            return (self.b - self.a) ** 2 + self.b ** 2
        except OverflowError:
            raise OverflowError("f(1) = (b - a)^2 + b^2 overflows the float range") from None

    @property
    def case(self) -> str:
        if abs(self.b) >= self.mu:
            return "b_floor"
        return "opposite_signs" if self.a * self.b < 0.0 else "generic"


def eval_f(params: GoodFnParams, x):
    """The window function itself (vectorized over x >= 1)."""
    x = np.asarray(x, dtype=float)
    a, b, g, k = params.a, params.b, params.gamma, params.kappa
    w = x ** (0.25 - 1.0 / (k + 4.0))
    first = (b * x ** (0.75 + g) - a * x ** (-0.25)) * w
    second = b * x ** 0.25 * w
    out = first * first + second * second
    return out if out.shape else float(out)


def eval_g(params: GoodFnParams, x):
    """The monotone factor g(x) = b x^(1+gamma-1/(kappa+4)) - a x^(-1/(kappa+4))."""
    x = np.asarray(x, dtype=float)
    a, b, g, k = params.a, params.b, params.gamma, params.kappa
    out = b * x ** (1.0 + g - 1.0 / (k + 4.0)) - a * x ** (-1.0 / (k + 4.0))
    return out if out.shape else float(out)


def sublevel_floor(params: GoodFnParams) -> float:
    """Analytic lower bound for f in the two floor cases (else 0)."""
    if params.case == "b_floor":
        return params.b ** 2
    if params.case == "opposite_signs":
        return params.nu ** (2.0 / (params.kappa + 1.0))
    return 0.0


def _root(fn, lo, hi) -> float:
    """A root of fn in the bracket [lo, hi] by bisection, to the width
    1e-10 + 1e-14 |x|; ArithmeticError if fn does not change sign."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return float(lo if f_lo == 0.0 else hi)
    if not f_lo * f_hi < 0.0:
        raise ArithmeticError(f"root not bracketed by [{lo:g}, {hi:g}]")
    while hi - lo > 1e-10 + 1e-14 * abs(lo):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return float(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def _sublevel_hull(params: GoodFnParams, eps: float, xs: np.ndarray):
    """Hull of {f <= eps} sampled on the grid xs; an end inside the grid is
    refined to a root of f - eps between its grid neighbours."""
    inside = eval_f(params, xs) <= eps
    if not inside.any():
        return None
    i0, i1 = int(np.argmax(inside)), len(xs) - 1 - int(np.argmax(inside[::-1]))
    fn = lambda x: eval_f(params, x) - eps  # noqa: E731
    lo = xs[i0] if i0 == 0 else _root(fn, xs[i0 - 1], xs[i0])
    hi = xs[i1] if i1 == len(xs) - 1 else _root(fn, xs[i1], xs[i1 + 1])
    return lo, hi


def _sublevel_interval(params: GoodFnParams, eps: float):
    """The set {x >= 1 : f(x) <= eps} for the generic case, as an interval.

    Both factors of f are monotone increasing in the generic regime
    (a, b > 0), so the sublevel set is contained in {|g| <= sqrt(eps)} and is
    a single interval; its endpoints are refined to 1e-10 by bisection on f.
    Outside {|g| <= sqrt(eps)} one has f >= g^2 > eps, no sampling needed.
    """
    s = math.sqrt(eps)
    g1 = eval_g(params, 1.0)
    g_top = eval_g(params, _WINDOW_CAP)
    if g1 > s or g_top < -s:
        return None
    lo = 1.0 if g1 >= -s else _root(lambda x: eval_g(params, x) + s, 1.0, _WINDOW_CAP)
    hi = _WINDOW_CAP if g_top <= s else _root(lambda x: eval_g(params, x) - s, lo,
                                              _WINDOW_CAP)
    # trim by f itself (the second factor can push f above eps inside)
    return _sublevel_hull(params, eps, np.linspace(lo, hi, 4096))


def _sublevel_measure_grid(params: GoodFnParams, eps: float):
    """Grid-scanned sublevel hull for the non-monotone (a < 0) regime."""
    return _sublevel_hull(params, eps, np.geomspace(1.0, _WINDOW_CAP, 200001))


def _anchors(params: GoodFnParams):
    """Roots of f = rho on [1, cap] (window left endpoints)."""
    rho = params.rho
    if abs(params.f1() - rho) < 1e-12:
        anchors = [1.0]
    else:
        anchors = []
    xs = np.geomspace(1.0, _WINDOW_CAP, 4001)
    vals = eval_f(params, xs) - rho
    for x1, x2, v1, v2 in zip(xs, xs[1:], vals, vals[1:]):
        if v1 == 0.0:
            anchors.append(float(x1))
        elif v1 * v2 < 0.0:
            anchors.append(_root(lambda x: eval_f(params, x) - rho, x1, x2))
    return anchors


def verify_good(params: GoodFnParams, eps_grid) -> ExperimentReport:
    """Empirical sublevel-measure constants over anchored windows.

    For each eps and each window (x1, x2) with f(x1) = rho, measures
    m({f <= eps} in the window) and reports the smallest constant C making
    m <= C (eps/rho)^(1/2) (x2 - x1) hold across all windows.  In the two
    floor cases f >= floor, so for eps below the floor the scan must find
    {f <= eps} empty and report C = 0: the numerical check of the floor.

    One window per anchor decides C, the tightest: x2 = s1 + 1e-6 for the
    hull [s0, s1] of {f <= eps}.  For x1 < s0, m / (x2 - x1) has derivative
    (s0 - x1) / (x2 - x1)^2 > 0 up to s1 and falls past it (m is constant
    there).  An anchor inside the hull, possible only on the grid path where
    {f <= eps} may have gaps, gets ratio 1 from every x2 <= s1, and less by
    under 1e-6 / (s1 - x1) from the tightest window.  m = s1 - max(s0, x1).
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(e >= params.rho for e in eps_grid):
        raise ValueError("eps values must be below rho")
    floor = sublevel_floor(params)
    rep = ExperimentReport(
        params={"a": params.a, "b": params.b, "kappa": params.kappa,
                "gamma": params.gamma, "mu": params.mu, "nu": params.nu,
                "rho": params.rho, "case": params.case, "floor": floor},
        columns=["eps", "C_required", "sublevel_measure", "windows", "failed"],
    )
    anchors = _anchors(params)
    if not anchors:
        raise ValueError(f"f never crosses rho={params.rho:g} on [1, {_WINDOW_CAP:g}]")
    for eps in eps_grid:
        if params.case == "generic":
            seg = _sublevel_interval(params, eps)
        else:
            seg = _sublevel_measure_grid(params, eps)
        c_req = measure_total = 0.0
        for x1 in anchors if seg is not None else ():
            m = seg[1] - max(seg[0], x1)
            if m > 0.0:
                measure_total = max(measure_total, m)
                c_req = max(c_req, m / (math.sqrt(eps / params.rho) * (seg[1] + 1e-6 - x1)))
        rep.add_row(eps, c_req, measure_total, _WINDOWS_COLUMN, 0)
    return rep


def curve_entries(rep, xv, gamma: float):
    """Entries of the curve matrices rep (x^(1/4), x^(3/4+gamma); 0, x^(-1/4))
    at the array of parameters x."""
    r11, r12, r21, r22 = rep
    quarter = xv ** 0.25
    shear = xv ** (0.75 + gamma)
    return (r11 * quarter, r11 * shear + r12 / quarter,
            r21 * quarter, r21 * shear + r22 / quarter)


def curve_hit_ratios(p: SurfacePoint, gamma: float, kappa: float, N: int) -> np.ndarray:
    """Per-index ratio d(curve point) / n^(-1/4 + 1/(kappa+4)) for n in [1, N].

    The curve point lies in the shrinking cusp region S_(eps * n^...) exactly
    when the ratio is <= eps, so one pass serves every eps threshold.
    """
    if not (0.0 < gamma < 1.0 / (kappa + 4.0)):
        raise ValueError("need 0 < gamma < 1/(kappa+4)")
    check_capacity(N, "curve points")
    n = np.arange(1, N + 1, dtype=float)
    norms = cusp_norms(*curve_entries(p.rep.entries, n, gamma))
    return norms / n ** (-0.25 + 1.0 / (kappa + 4.0))

