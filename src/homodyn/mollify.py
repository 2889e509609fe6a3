"""Smoothed box indicators on horocyclic coordinates, and horocycle box
averages with optional smooth weights and injectivity-radius estimates.

The mollifier is the n-fold product of 1-d convolutions of a fixed
polynomial bump (35/32)(1 - x^2)^3 (unit mass, support [-1, 1]) against the
indicator of [0, gamma]; it interpolates the box indicator with L^1 error
O(delta (gamma + delta)^(n-1)).
"""

from __future__ import annotations

import math

from .report import ExperimentReport

_BOX_DIM_CAP = 3
_STEP = 0.02  # node spacing of the box-average quadratures
INJECTIVITY_FACTOR = 0.5  # declared comparability convention, not measured

_C = 35.0 / 32.0  # normalizes the bump to unit mass
# 4-node Gauss-Legendre (node, weight) pairs on [-1, 1]: the values of
# numpy.polynomial.legendre.leggauss(4)
_GAUSS4 = ((-0.8611363115940526, 0.34785484513745357),
           (-0.33998104358485626, 0.6521451548625464),
           (0.33998104358485626, 0.6521451548625464),
           (0.8611363115940526, 0.34785484513745357))


def _bump_cdf(x):
    """Antiderivative of the bump on [-1, 1], 0 at -1 (a float or an array)."""
    return _C * (x - x**3 + 0.6 * x**5 - x**7 / 7.0) + 0.5


def _cdf(x: float) -> float:
    return min(max(_bump_cdf(min(max(x, -1.0), 1.0)), 0.0), 1.0)


def _cdf_array(x):
    import numpy as np

    return np.clip(_bump_cdf(np.clip(x, -1.0, 1.0)), 0.0, 1.0)


class MollifierSpec:
    """Smoothing width, box dimension, box side length.

    A plain slots class, not a dataclass, as report.ExperimentReport is.
    """

    __slots__ = ("delta", "n", "gamma")
    delta: float
    n: int
    gamma: float

    def __init__(self, delta, n, gamma):
        if not (0.0 < delta < math.inf and 0.0 < gamma < math.inf):
            raise ValueError("need finite positive delta and gamma")
        if not (1 <= n <= _BOX_DIM_CAP):
            raise ValueError(f"box dimension limited to {_BOX_DIM_CAP}")
        self.delta, self.n, self.gamma = delta, n, gamma


def mollifier_profile(spec: MollifierSpec, u):
    """The 1-d factor: convolution of the scaled bump with 1_[0, gamma].

    Exact via the polynomial antiderivative: the factor equals
    CDF(u/delta) - CDF((u - gamma)/delta).
    """
    import numpy as np

    u = np.asarray(u, dtype=float)
    out = _cdf_array(u / spec.delta) - _cdf_array((u - spec.gamma) / spec.delta)
    return out if out.shape else float(out)


def verify_mollifier(spec: MollifierSpec) -> tuple[float, float]:
    """(integral over R^n, L1 distance to the box indicator).

    Both come from 4-node Gauss-Legendre on the pieces between the knots
    -delta, 0, delta, gamma - delta, gamma and gamma + delta, which is exact:
    on each piece the profile p is a polynomial of degree 7.  Each piece lies
    inside or outside [0, gamma]; with i the mass of p inside and o outside,
    0 <= p <= 1 and i + o = gamma give the L1 distance 2((i + o)^n - i^n),
    summed as positive binomial terms.  Where gamma + delta rounds to gamma,
    the right outside piece rounds away, and o is twice the left outside
    mass.  Raises if the integral misses gamma^n beyond 1e-6 relative, or the
    L1 distance exceeds the bound 4 n delta (gamma + delta)^(n-1) or the
    bound is not finite (a NaN fails).  Each knot is held at u and at
    u - gamma, so each CDF term of p reads its float node where its own
    knots -delta, 0, delta are exact, and no node loses gamma's digits.
    """
    d, g, n = spec.delta, spec.gamma, spec.n
    # u -> u - gamma; of two knots that round together, the later, exact at
    # u - gamma, wins
    knots = sorted({-d: -d - g, 0.0: -g, d: d - g, g - d: -d, g + d: d, g: 0.0}.items())
    i = o = left = 0.0
    for (u0, v0), (u1, v1) in zip(knots, knots[1:]):
        half, half_v = 0.5 * (u1 - u0), 0.5 * (v1 - v0)
        mid, mid_v = u0 + half, v0 + half_v
        mass = half * sum(w * (_cdf((mid + half * x) / d) - _cdf((mid_v + half_v * x) / d))
                          for x, w in _GAUSS4)
        if 0.0 <= mid <= g:
            i += mass
        else:
            o += mass
            if mid < 0.0:
                left += mass
    if g + d == g:  # by symmetry [gamma, gamma + delta] holds what [-delta, 0] does
        o = 2.0 * left
    try:
        volume = g**n
    except OverflowError:
        raise ArithmeticError(f"box volume {g:g}^{n} overflows the float range") from None
    try:
        integral = (i + o) ** n
    except OverflowError:
        integral = math.inf  # fails the mass check
    if not abs(integral - volume) <= 1e-6 * volume:
        raise ArithmeticError(
            f"mollifier mass {integral:.12g} misses the box volume {volume:.12g}"
        )
    bound = 4.0 * n * d * math.prod([g + d] * (n - 1))  # past the float range: inf
    if bound == math.inf:
        raise ArithmeticError("the L1 bound overflows the float range")
    l1 = 2.0 * sum(math.comb(n, k) * i ** (n - k) * o**k for k in range(1, n + 1))
    if not l1 <= bound:
        raise ArithmeticError(f"L1 distance {l1:.6g} exceeds the bound {bound:.6g}")
    return integral, l1


def box_average(p: SurfacePoint, T: float, f: TestFunction) -> float:
    """(1/T) int_0^T f(p u(t)) dt by composite midpoint quadrature."""
    from .orbits import midpoint_values

    if not (10.0 <= T < math.inf):
        raise ValueError("need finite T >= 10")
    m = int(math.ceil(T / _STEP))
    return float(midpoint_values(p, 0.0, T, m, f)[1].sum()) / m


def weighted_box_average(p: SurfacePoint, T: float, f: TestFunction,
                         spec: MollifierSpec) -> float:
    """(1/T) int f(p u(t)) w(t/T) dt with the 1-d mollifier profile weight.

    The weight's argument is the box coordinate rescaled by the flow time, so
    the reference value is (Haar mean of f) x (mass of the weight) =
    haar_mean * gamma.
    """
    from .orbits import midpoint_values

    if spec.n != 1:
        raise ValueError("weighted averages implemented for the 1-d box")
    if not (10.0 <= T < math.inf):
        raise ValueError("need finite T >= 10")
    lo, hi = -spec.delta * T, (spec.gamma + spec.delta) * T
    t, values, h = midpoint_values(p, lo, hi, int(math.ceil((hi - lo) / _STEP)), f)
    total = float((values * mollifier_profile(spec, t / T)).sum())
    return total * h / T


def box_decay_report(p: SurfacePoint, f: TestFunction, T_list) -> ExperimentReport:
    """Equidistribution error of box averages over a T sweep, with the
    fitted decay exponent (slope of log error against log T, negated; NaN
    with fewer than two distinct T) and the injectivity-radius estimate
    eta = INJECTIVITY_FACTOR * d(p a(log T)) at each T.  Consumers use
    ratios of the etas, never absolute values."""
    import numpy as np

    from .surface import cusp_norms, flow_entries

    T_list = [float(T) for T in T_list]
    avgs = [box_average(p, T, f) for T in T_list]
    errs = np.array([abs(avg - f.haar_mean) for avg in avgs])
    e = np.array([math.exp(0.5 * math.log(T)) for T in T_list])  # a(log T) = diag(e, 1/e)
    etas = INJECTIVITY_FACTOR * cusp_norms(*flow_entries(p.rep.entries, e, 0.0))
    ts = np.array(T_list)
    if len(set(T_list)) < 2:
        slope = math.nan
    elif (errs > 0).all():
        slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    else:
        slope = -math.inf
    rep = ExperimentReport(
        params={"function": f.name, "fitted_exponent": -slope, "step": _STEP},
        columns=["T", "average", "abs_error", "eta_at_logT"],
    )
    for row in zip(T_list, avgs, errs, etas):
        rep.add_row(*(float(v) for v in row))
    return rep
