"""Smoothed box indicators on horocyclic coordinates, injectivity-radius
estimation, and horocycle box averages with optional smooth weights.

The mollifier is the n-fold product of 1-d convolutions of a fixed
polynomial bump (35/32)(1 - x^2)^3 (unit mass, support [-1, 1]) against the
indicator of [0, gamma]; it interpolates the box indicator with L^1 error
O(delta (gamma + delta)^(n-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_capacity
from .orbits import TestFunction, horocycle_points
from .report import ExperimentReport
from .psl2 import diagonal_flow
from .surface import SurfacePoint, cusp_norm

_BOX_DIM_CAP = 3
_STEP = 0.02  # node spacing of the box-average quadratures
INJECTIVITY_FACTOR = 0.5  # declared comparability convention, not measured

_C = 35.0 / 32.0  # normalizes the bump to unit mass


def bump_kernel(x):
    """The base kernel: (35/32)(1 - x^2)^3 on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    out = np.where(inside, _C * (1.0 - x * x) ** 3, 0.0)
    return out if out.shape else float(out)


def _cdf_array(x: np.ndarray) -> np.ndarray:
    xc = np.clip(x, -1.0, 1.0)
    val = _C * (xc - xc**3 + 0.6 * xc**5 - xc**7 / 7.0) + 0.5
    return np.clip(val, 0.0, 1.0)


def bump_cdf(x):
    """Antiderivative of the bump, clamped to [0, 1]."""
    out = _cdf_array(np.asarray(x, dtype=float))
    return out if out.shape else float(out)


@dataclass(frozen=True, slots=True)
class MollifierSpec:
    """Smoothing width, box dimension, box side length."""

    delta: float
    n: int
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError("need finite positive delta and gamma")
        if not (1 <= self.n <= _BOX_DIM_CAP):
            raise ValueError(f"box dimension limited to {_BOX_DIM_CAP}")


def mollifier_profile(spec: MollifierSpec, u):
    """The 1-d factor: convolution of the scaled bump with 1_[0, gamma].

    Exact via the polynomial antiderivative: the factor equals
    CDF(u/delta) - CDF((u - gamma)/delta).
    """
    u = np.asarray(u, dtype=float)
    out = _cdf_array(u / spec.delta) - _cdf_array((u - spec.gamma) / spec.delta)
    return out if out.shape else float(out)


def verify_mollifier(spec: MollifierSpec) -> tuple[float, float]:
    """(integral over R^n, L1 distance to the box indicator).

    The integral is the n-th power of the 1-d mass, which 4-node
    Gauss-Legendre integrates exactly: between the kernel knots the profile
    is a polynomial of degree 7.  The L1 distance uses a midpoint tensor grid
    over the support.  Raises if the integral misses gamma^n beyond 1e-6
    relative or the L1 distance exceeds 4 n delta (gamma + delta)^(n-1)
    (a NaN fails both checks).
    """
    d, g, n = spec.delta, spec.gamma, spec.n
    knots = np.array(sorted({-d, min(d, g - d), max(d, g - d), g + d}))
    half = 0.5 * np.diff(knots)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    u = (knots[:-1] + half)[:, None] + half[:, None] * nodes
    one_d = float(half @ (mollifier_profile(spec, u) @ weights))
    integral = one_d**n
    if not abs(integral - g**n) <= 1e-6 * g**n:
        raise ArithmeticError(
            f"mollifier mass {integral:.12g} misses the box volume {g**n:.12g}"
        )
    m = {1: 20001, 2: 1001, 3: 201}[n]
    lo, hi = -d, g + d
    step = (hi - lo) / m
    grid = lo + (np.arange(m) + 0.5) * step
    prof = mollifier_profile(spec, grid)
    box = ((grid >= 0.0) & (grid <= g)).astype(float)
    pp, bb = prof, box  # the n-fold tensor products on the grid
    for _ in range(n - 1):
        pp, bb = np.multiply.outer(pp, prof), np.multiply.outer(bb, box)
    l1 = float(np.abs(pp - bb).sum()) * step**n
    bound = 4.0 * n * d * (g + d) ** (n - 1)
    if not l1 <= bound:
        raise ArithmeticError(f"L1 distance {l1:.6g} exceeds the bound {bound:.6g}")
    return integral, l1


def injectivity_radius_estimate(p) -> float:
    """Comparability stand-in INJECTIVITY_FACTOR * d(p); monotone in d(p).

    Accepts a SurfacePoint or a raw GroupElement representative.  Consumers
    use ratios of these estimates, never absolute values.
    """
    return INJECTIVITY_FACTOR * cusp_norm(p)


def box_average(p: SurfacePoint, T: float, f: TestFunction) -> float:
    """(1/T) int_0^T f(p u(t)) dt by composite midpoint quadrature."""
    if not (10.0 <= T < math.inf):
        raise ValueError("need finite T >= 10")
    m = int(math.ceil(T / _STEP))
    check_capacity(m, "quadrature nodes")
    h = T / m
    return float(f.values(*horocycle_points(p, (np.arange(m) + 0.5) * h)).sum()) / m


def weighted_box_average(p: SurfacePoint, T: float, f: TestFunction,
                         spec: MollifierSpec) -> float:
    """(1/T) int f(p u(t)) w(t/T) dt with the 1-d mollifier profile weight.

    The weight's argument is the box coordinate rescaled by the flow time, so
    the reference value is (Haar mean of f) x (mass of the weight) =
    haar_mean * gamma.
    """
    if spec.n != 1:
        raise ValueError("weighted averages implemented for the 1-d box")
    if not (10.0 <= T < math.inf):
        raise ValueError("need finite T >= 10")
    lo, hi = -spec.delta * T, (spec.gamma + spec.delta) * T
    m = int(math.ceil((hi - lo) / _STEP))
    check_capacity(m, "quadrature nodes")
    h = (hi - lo) / m
    t = lo + (np.arange(m) + 0.5) * h
    total = float((f.values(*horocycle_points(p, t)) * mollifier_profile(spec, t / T)).sum())
    return total * h / T


def box_decay_report(p: SurfacePoint, f: TestFunction, T_list) -> ExperimentReport:
    """Equidistribution error of box averages over a T sweep, with the
    fitted decay exponent (slope of log error against log T, negated; NaN
    with fewer than two distinct T)."""
    T_list = [float(T) for T in T_list]
    rows = []
    for T in T_list:
        avg = box_average(p, T, f)
        err = abs(avg - f.haar_mean)
        eta = injectivity_radius_estimate(p.rep.compose(diagonal_flow(math.log(T))))
        rows.append((T, avg, err, eta))
    errs = np.array([r[2] for r in rows])
    ts = np.array(T_list)
    if len(set(T_list)) < 2:
        slope = math.nan
    elif (errs > 0).all():
        slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    else:
        slope = -math.inf
    rep = ExperimentReport(
        name="box_average_decay",
        params={"function": f.name, "fitted_exponent": -slope, "step": _STEP},
        columns=["T", "average", "abs_error", "eta_at_logT"],
    )
    for r in rows:
        rep.add_row(*r)
    return rep
