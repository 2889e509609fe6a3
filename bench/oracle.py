"""Accuracy probe: reduced orbit points against a 60-digit reference.

The probe takes ``orbits.sample_sparse`` at gamma = 1/2, so index n sits at
time n^(3/2), and reads 64 log-spaced indices up to n_max (t = 1e6 at the
full size).  For each index it re-evaluates the same float matrix times the
same float time in 60-digit arithmetic, reduces the point with its own
translation/inversion loop, and takes the hyperbolic distance to the float
point.  A point on the boundary of the domain may legitimately reduce to
either side, so the distance is the minimum over the reference and its
images under T, T^-1 and S.  The probe set is the fixed list PROBE_BASES,
so the value is the same on every run of the same code.
"""

from __future__ import annotations

import math

import mpmath

from workloads import PROBE_BASES

PROBE_GAMMA = 0.5
PROBE_INDICES = 64
_MAX_STEPS = 100_000


def _reduce(x, y):
    """Translate and invert x + iy into |Re| <= 1/2, |z| >= 1."""
    for _ in range(_MAX_STEPS):
        x -= mpmath.nint(x)
        n2 = x * x + y * y
        if n2 >= 1:
            return x, y
        x, y = -x / n2, y / n2
    raise ArithmeticError("reference reduction did not converge")


def _distance(x1, y1, x2, y2):
    """Hyperbolic distance, in the asinh form that keeps small values exact."""
    chord = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
    return 2 * mpmath.asinh(chord / (2 * mpmath.sqrt(y1 * y2)))


def probe_indices(n_max: int) -> list:
    logs = [math.log(10.0) + k * (math.log(n_max) - math.log(10.0)) / (PROBE_INDICES - 1)
            for k in range(PROBE_INDICES)]
    return sorted({int(round(math.exp(v))) for v in logs} | {n_max})


def orbit_error(base: str, n_max: int) -> float:
    """Largest quotient-aware distance between sample_sparse and the
    reference over the probe indices of one base."""
    from homodyn.cli import parse_base
    from homodyn.orbits import sample_sparse
    from homodyn.surface import reduce

    p = reduce(parse_base(base))
    series = sample_sparse(p, PROBE_GAMMA, n_max + 1)
    worst = 0.0
    with mpmath.workdps(60):
        a, b, c, d = (mpmath.mpf(v) for v in p.rep.entries)
        for i in probe_indices(n_max):
            t = mpmath.mpf(float(series.times[i]))
            # g u(t) = (a, a t + b; c, c t + d) applied to i
            bt, dt = a * t + b, c * t + d
            den = c * c + dt * dt
            xr, yr = _reduce((a * c + bt * dt) / den, 1 / den)
            xf, yf = mpmath.mpf(float(series.xs[i])), mpmath.mpf(float(series.ys[i]))
            n2 = xr * xr + yr * yr
            images = ((xr, yr), (xr + 1, yr), (xr - 1, yr), (-xr / n2, yr / n2))
            dist = min(_distance(xf, yf, x, y) for x, y in images)
            worst = max(worst, float(dist))
    return worst


def orbit_err_max(n_max: int = 10_000) -> float:
    return max(orbit_error(base, n_max) for base in PROBE_BASES)
