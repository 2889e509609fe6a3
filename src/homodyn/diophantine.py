"""Continued fractions, Diophantine type of reals and of surface points,
geodesic-excursion type fitting."""

from __future__ import annotations

import math

import numpy as np

from .report import check_capacity
from .surface import SurfacePoint, excursion_profile

_Q_GUARD = 2**62  # convergent denominators stay below this (exact int range)
_NOISE_FLOOR = 1e-15
# |B| = |a n - c m| at most a few roundings of |a| n + |c| |m|: an axis vector
_AXIS_RTOL = 4 * 2.0**-52


class DivergentOrbitError(RuntimeError):
    """Geodesic orbit escapes to the cusp linearly (rational direction)."""


class OpenExcursionError(ValueError):
    """No excursion completes below t_max: the horizon is too short."""


# Horizon up to which a float base point tracks the true geodesic: the
# contracting coordinate shrinks like e^{-t} and falls under the double
# epsilon of the slope near t = -ln(2^-52) ~ 36.
_T_RELIABLE = 35.0


class ContinuedFraction:
    """Partial quotients and convergents of a real number.

    quotients[0] is the integer part a0; convergents hold exact integer
    pairs (p_n, q_n).
    """

    __slots__ = ("x", "quotients", "convergents")
    x: float
    quotients: tuple
    convergents: tuple

    def __init__(self, x, quotients, convergents):
        self.x, self.quotients, self.convergents = x, quotients, convergents


def _convergents(quotients):
    ps, qs = [], []
    p0, p1 = 1, quotients[0]
    q0, q1 = 0, 1
    ps.append(p1)
    qs.append(q1)
    for a in quotients[1:]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        ps.append(p1)
        qs.append(q1)
    return tuple(zip(ps, qs))


def cf_expand(x: float, depth: int) -> ContinuedFraction:
    """Partial quotients of x to the requested depth.

    Stops early, with fewer than depth + 1 quotients, at the floating noise
    floor (|x - p/q| < 1e-15) or when the denominators would leave the exact
    integer range.
    """
    if not math.isfinite(x) or depth < 1:
        raise ValueError("need finite x and depth >= 1")
    quotients = [math.floor(x)]
    t = x - quotients[0]  # 0 <= t < 1, so every later quotient is >= 1
    p0, p, q0, q = 1, quotients[0], 0, 1  # the last two convergents
    for _ in range(depth):
        if abs(x - p / q) < _NOISE_FLOOR or q > _Q_GUARD or t <= 0.0:
            break
        t = 1.0 / t
        a = math.floor(t)
        quotients.append(a)
        p0, p, q0, q = p, a * p + p0, q, a * q + q0
        t -= a
    return ContinuedFraction(x=x, quotients=tuple(quotients), convergents=_convergents(quotients))


def cf_from_quotients(quotients) -> ContinuedFraction:
    """Continued fraction of a prescribed quotient list; x is the float p_N / q_N."""
    quotients = [int(a) for a in quotients]
    if len(quotients) < 1 or any(a < 1 for a in quotients[1:]):
        raise ValueError("quotients after a0 must be positive integers")
    conv = _convergents(quotients)
    if conv[-1][1] > _Q_GUARD:
        raise ValueError("denominators exceed the exact-integer guard")
    p, q = conv[-1]  # int true division rounds correctly
    return ContinuedFraction(x=p / q, quotients=tuple(quotients), convergents=conv)


def planted_quotients(zeta: float):
    """Quotient list with a_{n+1} ~ q_n^(zeta-1), so |q_n x - p_n| ~ q_n^-zeta.

    Raises ValueError when not even the first planted quotient keeps q under
    10^9 (zeta >~ 29.9): the list would be the rational 1/2's.
    """
    if zeta < 1.0:
        raise ValueError("type exponent must be >= 1")
    quotients = [0, 2]
    q0, q1 = 1, 2
    while True:
        try:
            a = max(1, round(q1 ** (zeta - 1.0)))
        except OverflowError:  # a quotient past 1e308 puts q1 past the 10^9 stop
            break
        q0, q1 = q1, a * q1 + q0
        if q1 > 10**9:  # the planted denominators stay below 10^9
            break
        quotients.append(a)
    if len(quotients) == 2:
        raise ValueError(f"type exponent {zeta:g} plants no quotient below 10^9")
    return quotients


def type_estimate(cf: ContinuedFraction) -> float:
    """Approximation-exponent estimate from the convergents.

    zeta_n = -log|q_n x - p_n| / log q_n per index, on the float x; the
    estimate is zeta_n at the deepest admissible index (exact-zero errors
    are skipped).  For a number of type zeta the series settles toward
    [1, zeta].
    """
    if len(cf.convergents) < 3:
        raise ValueError("need at least 3 convergents")
    for p, q in reversed(cf.convergents):
        err = abs(q * cf.x - p)
        if q >= 2 and err > 0.0:
            return -math.log(err) / math.log(q)
    raise ValueError("no admissible convergent index")


class DiophantineWitness:
    """Bounded-search report on the cusp-orbit vector set of a point.

    Never a proof: the condition ranges over infinitely many vectors, this
    records the extremes seen up to the search bound.
    """

    __slots__ = ("mu", "nu", "symmetric", "axis_vectors", "vectors_checked")
    mu: float            # min |b| over enumerated vectors (0 if an axis vector)
    nu: float            # min |a|^kappa |b| over enumerated vectors
    symmetric: float     # min over vectors of max(|b|, |a|^kappa |b|)
    axis_vectors: tuple  # integer (m, n) with b-component ~0 relative to its terms
    vectors_checked: int

    def __init__(self, mu, nu, symmetric, axis_vectors, vectors_checked):
        self.mu, self.nu, self.symmetric = mu, nu, symmetric
        self.axis_vectors, self.vectors_checked = axis_vectors, vectors_checked


def _candidate_columns(g, bound: int):
    """(1, 0), then m = rint(beta) + {-1, 0, 1} over the rows 1 <= n <= bound,
    clipped to |m| <= bound, at the zeros beta of B and A: an m at distance
    >= 3/2 from both has |B| >= 3/2 |c| and |A| >= 3/2 |d|, so each witness
    value there exceeds that of (1, 0)."""
    yield np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    n = np.arange(1, bound + 1, dtype=np.int64)
    for x, y in [(g.a, g.c)] * bool(g.c) + [(g.b, g.d)] * bool(g.d):  # beta = x n / y
        with np.errstate(over="ignore"):  # an overflow to inf is clipped
            center = np.rint(np.clip(x * n / y, -bound - 1, bound + 1)).astype(np.int64)
        for off in (-1, 0, 1):
            yield np.clip(center + off, -bound, bound), n


def point_type_check(p: SurfacePoint, kappa: float,
                     search_bound: int) -> tuple[DiophantineWitness]:
    """Witness report for the type-kappa condition at p, as a 1-tuple.

    Over the cusp-orbit vectors g^{-1}(m, n) = (A, B) of the sign-canonical
    primitive (m, n) with |m|, n <= search_bound: the per-branch minima, the
    largest symmetric pair value, and any vectors on the b = 0 axis (those
    defeat every positive (mu, nu) outright: periodic horocycle).
    """
    if not (1.0 <= kappa < math.inf) or search_bound < 10:
        raise ValueError("need finite kappa >= 1 and search_bound >= 10")
    check_capacity(12 * search_bound, "row-array elements")  # under 12 live at once
    g = p.rep
    mu = nu = symmetric = np.inf
    axis_nm, checked = [], 0  # the first 16 primitive axis vectors as sorted (n, m)
    for m, n in _candidate_columns(g, search_bound):
        # g^{-1} (m, n) = (d m - b n, a n - c m)
        abs_b = np.abs(g.a * n - g.c * m)
        with np.errstate(over="ignore", invalid="ignore"):  # inf; NaN only on axis vectors
            prod = np.abs(g.d * m - g.b * n) ** kappa * abs_b
        # B is a n - c m up to the rounding of its terms; a column holds one m
        # per row, in row order
        axis = (abs_b <= _AXIS_RTOL * (abs(g.a) * n + abs(g.c) * np.abs(m))) & (abs_b < np.inf)
        am, an = m[axis], n[axis]
        keep = np.gcd(am, an) == 1
        axis_nm = sorted({*axis_nm, *zip(an[keep][:16].tolist(), am[keep][:16].tolist())})[:16]
        mu = np.minimum(mu, abs_b.min())
        nu = np.minimum(nu, prod.min())
        symmetric = np.minimum(symmetric, np.maximum(abs_b, prod).min())
        checked += m.size
    if axis_nm:
        mu = nu = symmetric = 0.0
    return (DiophantineWitness(mu=float(mu), nu=float(nu), symmetric=float(symmetric),
                               axis_vectors=tuple((m, n) for n, m in axis_nm),
                               vectors_checked=checked),)


def excursion_type_estimate(p: SurfacePoint, t_max: float) -> float:
    """Type exponent from the gated excursion profile of the geodesic orbit.

    Fits the record-peak envelope slope m and inverts kappa = (1+m)/(1-m).
    A profile that never enters the cusp gate reports kappa = 1 (bounded
    orbit at this horizon).  A single never-completed excursion rising at
    unit slope raises DivergentOrbitError (rational direction).
    """
    if not (t_max >= 10.0):
        raise ValueError("need t_max >= 10")
    # beyond e^{-t} ~ machine epsilon the float orbit leaves the true one and
    # manufactures spurious excursions; the fit only uses samples before that
    t_fit = min(t_max, _T_RELIABLE)
    steps = max(500, int(t_fit / 0.05))
    ts, vals = excursion_profile(p, t_fit, steps)
    peaks = []
    run_best = None  # (t, v) best of the current excursion
    for t, v in zip(ts, vals):
        if v > 0.0:
            if run_best is None or v > run_best[1]:
                run_best = (t, v)
        else:
            if run_best is not None:
                peaks.append(run_best)
                run_best = None
    if run_best is not None:
        # excursion still open at the horizon
        if vals[-1] < run_best[1] - 0.5:
            # max already passed, the orbit is descending: a genuine peak
            peaks.append(run_best)
        else:
            t0 = run_best[0] - run_best[1]  # linear ascent started near here
            slope = run_best[1] / (ts[-1] - t0) if ts[-1] > t0 else 1.0
            if not peaks and slope >= 1.0 - 1e-3:
                raise DivergentOrbitError(
                    f"orbit ascends the cusp with slope {slope:.6f} through t_max"
                )
    if not peaks:
        if float(np.max(vals)) == 0.0:
            return 1.0  # never entered the gate: bounded, type 1
        raise OpenExcursionError("no completed excursion below t_max; increase t_max")
    if len(peaks) == 1:
        t1, v1 = peaks[0]
        slope = max(0.0, v1 / t1 if t1 > 0 else 0.0)
    else:
        arr = np.asarray(peaks)
        slope = float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])
    slope = min(max(slope, 0.0), 1.0 - 1e-9)
    return (1.0 + slope) / (1.0 - slope)
