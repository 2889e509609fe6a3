"""Sublevel-measure control for the explicit orbit-distance functions.

The central object is the family

    f(x) = (b x^(3/4+gamma) - a x^(-1/4))^2 (x^(1/4 - 1/(kappa+4)))^2
         + (b x^(1/4))^2 (x^(1/4 - 1/(kappa+4)))^2

on [1, oo), whose sublevel sets govern how often the expanding translate of
an orbit visits a shrinking cusp region.  Under the vector condition
|b| >= mu or |a|^kappa |b| >= nu the sublevel measure of any window anchored
at level rho is bounded by C (eps/rho)^(1/2) times the window length.
f is quasi-convex, so each sublevel set is one interval (_sublevel_hull).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .report import ExperimentReport

_WINDOW_CAP = 1e8
# The CSV's windows column, pinned by bench/reference.json (one window decides each C)
_WINDOWS_COLUMN = 50


class GoodFnParams:
    """Vector coordinates plus exponents; rho anchors the windows.

    Sign normalization b >= 0 (the function is even under joint negation).
    A plain slots class, not a dataclass, as report.ExperimentReport is.
    """

    __slots__ = ("a", "b", "kappa", "gamma", "mu", "nu", "rho")
    a: float
    b: float
    kappa: float
    gamma: float
    mu: float
    nu: float
    rho: float

    def __init__(self, a, b, kappa, gamma, mu, nu, rho=0.0):
        if kappa < 1.0 or not (0.0 < gamma < 1.0 / (kappa + 4.0)):
            raise ValueError("need kappa >= 1 and 0 < gamma < 1/(kappa+4)")
        if not (0.0 < mu < math.inf and 0.0 < nu < math.inf):
            raise ValueError("witness constants must be finite and positive")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("vector coordinates must be finite")
        if math.isnan(rho):
            raise ValueError("rho must be a number")
        try:
            ok = abs(b) >= mu or abs(a) ** kappa * abs(b) >= nu
        except OverflowError:
            raise OverflowError("|a|^kappa |b| overflows the float range") from None
        if not ok:
            raise ValueError("vector violates the |b| >= mu or |a|^k |b| >= nu condition")
        if b < 0.0:
            a, b = -a, -b
        self.a, self.b, self.kappa, self.gamma, self.mu, self.nu = a, b, kappa, gamma, mu, nu
        if rho <= 0.0:  # default min(f(1), 0.25), or f(1) if that is not above the floor
            rho = min(self.f1(), 0.25)
            rho = self.f1() if rho <= sublevel_floor(self) else rho
        self.rho = rho
        if self.rho > self.f1():
            raise ValueError("rho must not exceed f(1)")

    def f1(self) -> float:
        """f(1) = (b - a)^2 + b^2, rounded as eval_f rounds it, so that rho = f1()
        puts x = 1 in {f <= rho}."""
        f1 = eval_f(self, 1.0)
        if f1 == math.inf:
            raise OverflowError("f(1) = (b - a)^2 + b^2 overflows the float range")
        return f1

    @property
    def case(self) -> str:
        if abs(self.b) >= self.mu:
            return "b_floor"
        return "opposite_signs" if self.a * self.b < 0.0 else "generic"


def eval_f(params: GoodFnParams, x):
    """The window function itself at x >= 1 (a float, or an array), written
    x^(-2/(kappa+4)) ((b x^(1+gamma) - a)^2 + b^2 x) so that one exponent rounds."""
    a, b, g, k = params.a, params.b, params.gamma, params.kappa
    w = b * x * x ** g - a
    return x ** (-2.0 / (k + 4.0)) * (w * w + b * b * x)


def sublevel_floor(params: GoodFnParams) -> float:
    """Analytic lower bound for f in the two floor cases (else 0)."""
    if params.case == "b_floor":
        return params.b ** 2
    if params.case == "opposite_signs":
        return params.nu ** (2.0 / (params.kappa + 1.0))
    return 0.0


def _root(fn, lo, hi) -> float:
    """The edge of {fn <= 0} in [lo, hi], one end of which lies in that set
    and the other not, by bisection down to adjacent floats."""
    lo_in = fn(lo) <= 0.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if (fn(mid) <= 0.0) == lo_in:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _sublevel_hull(params: GoodFnParams, level: float):
    """Hull of {1 <= x <= cap : f(x) <= level}, or None when that set is
    empty: f's minimum by golden-section search in log x, then each end
    inside [1, cap] by bisection on f - level.

    The set is an interval, since f is quasi-convex.  Put v = x,
    c = 1 + gamma, beta = 1/(kappa+4) and w = b v^c - a.  Then
    f = v^(-2 beta) (w^2 + b^2 v), and d log f / d log v has the sign of
    N = (2c - 2beta) w^2 + 2ca w + (1 - 2beta) b^2 v.  Wherever N = 0,
    v N' = (2c - 2beta)(2c - 1) w^2 + 2c(3c - 2beta - 1) a w + 2c^2 a^2,
    a quadratic in w with discriminant 4c^2 a^2 (gamma^2 - 4beta(c - beta)),
    negative because gamma < beta <= 1/5 (for a = 0, v N' is
    (2c - 2beta)(2c - 1) w^2 > 0).  So N' > 0 at every zero of N, N changes
    sign at most once, and f falls, then rises.
    """
    fn = lambda x: eval_f(params, x) - level  # noqa: E731
    lo, hi = 0.0, math.log(_WINDOW_CAP)
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    u, v = hi - r * (hi - lo), lo + r * (hi - lo)
    f_u, f_v = fn(math.exp(u)), fn(math.exp(v))
    for _ in range(80):  # r^80 log(cap) < 4e-16: down to float resolution in log x
        if f_u <= f_v:
            hi, v, f_v = v, u, f_u
            u = hi - r * (hi - lo)
            f_u = fn(math.exp(u))
        else:
            lo, u, f_u = u, v, f_v
            v = lo + r * (hi - lo)
            f_v = fn(math.exp(v))
    f_min, x_min = min((fn(x), x) for x in (1.0, math.exp(u), _WINDOW_CAP))
    if f_min > 0.0:
        return None
    s0 = 1.0 if fn(1.0) <= 0.0 else _root(fn, 1.0, x_min)
    s1 = _WINDOW_CAP if fn(_WINDOW_CAP) <= 0.0 else _root(fn, x_min, _WINDOW_CAP)
    return s0, s1


def verify_good(params: GoodFnParams, eps_grid) -> ExperimentReport:
    """Empirical sublevel-measure constants over anchored windows.

    For each eps and each window (x1, x2) with f(x1) = rho, measures
    m({f <= eps} in the window) and reports the smallest constant C making
    m <= C (eps/rho)^(1/2) (x2 - x1) hold across all windows.  In the two
    floor cases f >= floor, so for eps below the floor the search must find
    {f <= eps} empty and report C = 0: the numerical check of the floor.

    f is quasi-convex (see _sublevel_hull), so f = rho holds at most at the
    ends r0 <= r1 of the hull of {f <= rho}, and {f <= eps} lies inside
    [r0, r1]: a window anchored at r1 holds none of it, and r0 is the one
    anchor.  One window decides C, the tightest: x2 = s1 + 1e-6 for the
    hull [s0, s1] of {f <= eps}.  For x1 < s0, m / (x2 - x1) has derivative
    (s0 - x1) / (x2 - x1)^2 > 0 up to s1 and falls past it (m is constant
    there).  m = s1 - max(s0, x1).
    """
    eps_grid = [float(e) for e in eps_grid]
    if not all(e < params.rho for e in eps_grid):
        raise ValueError("eps values must be below rho")
    floor = sublevel_floor(params)
    rep = ExperimentReport(
        params={"a": params.a, "b": params.b, "kappa": params.kappa,
                "gamma": params.gamma, "mu": params.mu, "nu": params.nu,
                "rho": params.rho, "case": params.case, "floor": floor},
        columns=["eps", "C_required", "sublevel_measure", "windows", "failed"],
    )
    hull = _sublevel_hull(params, params.rho)
    if hull is None:
        raise ValueError(f"f never crosses rho={params.rho:g} on [1, {_WINDOW_CAP:g}]")
    x1 = hull[0]
    for eps in eps_grid:
        seg = _sublevel_hull(params, eps)
        m = 0.0 if seg is None else max(0.0, seg[1] - max(seg[0], x1))
        c_req = 0.0
        if m:  # m / (x2 - x1) in exact rationals, rounded once
            x2 = Fraction(seg[1]) + Fraction(1e-6)
            c_req = float(Fraction(m) / (x2 - Fraction(x1))) / math.sqrt(eps / params.rho)
        rep.add_row(eps, c_req, m, _WINDOWS_COLUMN, 0)
    return rep


def __getattr__(name):
    """curve_hit_ratios, whose home is orbits since piece_decomposition is
    its one caller, is still importable from here; importing goodfn loads
    neither orbits nor numpy."""
    if name == "curve_hit_ratios":
        from .orbits import curve_hit_ratios

        return curve_hit_ratios
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
