"""Continued fractions, Diophantine type of reals and of surface points,
geodesic-excursion type fitting, and the explicit exponent calculators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_capacity, coprime_mask, pair_blocks
from .surface import SurfacePoint, excursion_profile

_Q_GUARD = 2**62  # convergent denominators stay below this (exact int range)
_NOISE_FLOOR = 1e-15


class DivergentOrbitError(RuntimeError):
    """Geodesic orbit escapes to the cusp linearly (rational direction)."""


class OpenExcursionError(ValueError):
    """No excursion completes below t_max: the horizon is too short."""


# Horizon up to which a float base point tracks the true geodesic: the
# contracting coordinate shrinks like e^{-t} and falls under the double
# epsilon of the slope near t = -ln(2^-52) ~ 36.
_T_RELIABLE = 35.0


@dataclass(frozen=True, slots=True)
class ContinuedFraction:
    """Partial quotients and convergents of a real number.

    quotients[0] is the integer part a0; convergents hold exact integer
    pairs (p_n, q_n).
    """

    x: float
    quotients: tuple
    convergents: tuple


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


@dataclass(frozen=True, slots=True)
class DiophantineWitness:
    """Bounded-search report on the cusp-orbit vector set of a point.

    Never a proof: the condition ranges over infinitely many vectors, this
    records the extremes seen up to the search bound.
    """

    mu: float            # min |b| over enumerated vectors (0 if an axis vector)
    nu: float            # min |a|^kappa |b| over enumerated vectors
    symmetric: float     # min over vectors of max(|b|, |a|^kappa |b|)
    axis_vectors: tuple  # integer (m, n) with b-component exactly ~0
    vectors_checked: int


def point_type_check(p: SurfacePoint, kappa: float,
                     search_bound: int) -> tuple[DiophantineWitness]:
    """Witness report for the type-kappa condition at p, as a 1-tuple.

    Enumerates the cusp-orbit vectors g^{-1}(m, n) over sign-canonical
    primitive (m, n) up to the bound and reports the per-branch minima, the
    largest symmetric pair value, and any vectors sitting on the b = 0 axis
    (those defeat every positive (mu, nu) outright: periodic horocycle).
    The vectors go through block by block; min is exact, so the minima do
    not depend on the blocking.
    """
    if not (1.0 <= kappa < math.inf) or search_bound < 10:
        raise ValueError("need finite kappa >= 1 and search_bound >= 10")
    check_capacity(6.0 / math.pi**2 * (2 * search_bound + 1) * search_bound,
                   "vectors")  # coprime share of the box
    g = p.rep
    mu = nu = symmetric = np.inf
    axis_vectors = []
    checked = 0
    for m, n in pair_blocks(coprime_mask(search_bound, search_bound), search_bound):
        # g^{-1} (m, n) = (d m - b n, a n - c m)
        a_comp = g.d * m - g.b * n
        abs_b = np.abs(g.a * n - g.c * m)
        with np.errstate(over="ignore", invalid="ignore"):  # inf; NaN only on axis vectors
            prod = np.abs(a_comp) ** kappa * abs_b
        axis = abs_b < 1e-12
        if len(axis_vectors) < 16 and axis.any():
            axis_vectors += zip(m[axis][:16].tolist(), n[axis][:16].tolist())
        mu = np.minimum(mu, abs_b.min())
        nu = np.minimum(nu, prod.min())
        symmetric = np.minimum(symmetric, np.maximum(abs_b, prod).min())
        checked += m.size
    if axis_vectors:
        mu = nu = symmetric = 0.0
    witness = DiophantineWitness(mu=float(mu), nu=float(nu), symmetric=float(symmetric),
                                 axis_vectors=tuple(axis_vectors[:16]),
                                 vectors_checked=checked)
    return (witness,)


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


@dataclass(frozen=True, slots=True)
class ExponentBundle:
    """The explicit exponents: the mixing rate and the sparse-power threshold
    computed along both published routes."""

    kappa_mix: float
    beta: float
    gamma0_spectral: float     # min_j s^2 / ((s+4)(kappa_j+4))
    gamma0_progression: float  # min_j 2 beta / (kappa_j+4)


def exponent_bundle(s: float, kappa_list, epsilon: float = 1e-3) -> ExponentBundle:
    """Evaluate the exponent chain for spectral parameter s and cusp types.

    epsilon is the slack in the mixing exponent kappa_mix = 2s - epsilon;
    epsilon = 0 is allowed so the two gamma_0 routes can be compared exactly
    (they coincide algebraically at kappa_mix = 2s).
    """
    if not (0.0 < s <= 0.5):
        raise ValueError("spectral parameter must lie in (0, 1/2]")
    if not (0.0 <= epsilon < 2.0 * s):
        raise ValueError("need 0 <= epsilon < 2s")
    kappa_list = tuple(float(k) for k in kappa_list)
    if not kappa_list or any(not (1.0 <= k < math.inf) for k in kappa_list):
        raise ValueError("cusp exponents must be finite and >= 1")
    kappa_mix = 2.0 * s - epsilon
    beta = s * kappa_mix / (2.0 * (8.0 + kappa_mix))
    g_spec = min(s * s / ((s + 4.0) * (k + 4.0)) for k in kappa_list)
    g_prog = min(2.0 * beta / (k + 4.0) for k in kappa_list)
    return ExponentBundle(kappa_mix=kappa_mix, beta=beta,
                          gamma0_spectral=g_spec, gamma0_progression=g_prog)
