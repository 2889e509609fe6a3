"""Orbit generation and the averaging constructs: sparse polynomial-time
samples, Haar-reference discrepancy, twisted and progression averages, the
triangle-kernel Fourier identity, the cusp-hitting ratios of expanding
translates, and the block decomposition of sparse index ranges around cusp
visits."""

from __future__ import annotations

import math

import numpy as np

from .report import ExperimentReport, check_capacity
from .surface import (SurfacePoint, curve_entries, cusp_norms, flow_entries, height_distance,
                      r_factors, reduced_coordinates)
from .surface import reduce, r_factor  # noqa: F401  (bench/tracing.py wraps them here)

FUNDAMENTAL_AREA = math.pi / 3.0
_CHUNK = 8192         # points per kernel call: bounds the kernels' temporaries
_QUAD_POINTS = 1000   # fewest midpoint nodes of a twisted average


class TestFunction:
    """A bounded observable on the quotient, evaluated in reduced coordinates.

    The fixed suite (height band, hyperbolic disc, smooth bump, frame-angle
    weight) keeps every Haar reference integral precomputable; haar_mean is
    the normalized integral in closed form (for the bump, a series summed
    to float precision).
    """

    def __init__(self, name, values, haar_mean):
        self.name = name
        self.values = values
        self.haar_mean = haar_mean

    def __repr__(self):
        return f"TestFunction({self.name})"


def _check_disc_embedded(x0, y0, r):
    # Euclidean picture of the hyperbolic disc: center (x0, y0 cosh r),
    # radius y0 sinh r; it must stay inside the fundamental domain
    cx, cy = x0, y0 * math.cosh(r)
    rad = y0 * math.sinh(r)
    if abs(cx) + rad > 0.5 or math.hypot(cx, cy) - rad < 1.0:
        raise ValueError("disc/bump support must embed in the fundamental domain")


def height_band(h: float) -> TestFunction:
    if not (1.0 <= h < math.inf):
        raise ValueError("height band needs finite h >= 1")
    return TestFunction(f"band{h:g}", lambda x, y, theta: (np.asarray(y) >= h).astype(float),
                        haar_mean=3.0 / (math.pi * h))


def angle_weight() -> TestFunction:
    return TestFunction("cos2theta", lambda x, y, theta: np.cos(2.0 * np.asarray(theta)),
                        haar_mean=0.0)


def hyperbolic_disc(x0: float, y0: float, r: float) -> TestFunction:
    _check_disc_embedded(x0, y0, r)
    mean = 4.0 * math.pi * math.sinh(r / 2.0) ** 2 / FUNDAMENTAL_AREA
    return TestFunction(f"disc({x0:g};{y0:g};{r:g})",
                        lambda x, y, theta: (height_distance(x, y, x0, y0) <= r).astype(float),
                        haar_mean=mean)


def _bump_integral(r: float) -> float:
    """int_0^r (1 - (d/r)^2)^2 sinh(d) dd, integrated termwise over the sinh
    series: sum_k r^(2k+2) / ((2k+1)! (k+1)(k+2)(k+3)).  Eight terms: an
    embedded disc has r <= log(2)/2, where the ninth is below 2^-80 of the
    first."""
    r2 = r * r
    power, terms = r2, []  # power = r^(2k+2) / (2k+1)!
    for k in range(8):
        terms.append(power / ((k + 1) * (k + 2) * (k + 3)))
        power *= r2 / ((2 * k + 2) * (2 * k + 3))
    return math.fsum(terms)


def smooth_bump(x0: float, y0: float, r: float) -> TestFunction:
    _check_disc_embedded(x0, y0, r)
    bump = lambda d: np.maximum(1.0 - (d / r) ** 2, 0.0) ** 2  # noqa: E731  (at distance d)
    return TestFunction(f"bump({x0:g};{y0:g};{r:g})",
                        lambda x, y, theta: bump(height_distance(x, y, x0, y0)),
                        haar_mean=2.0 * math.pi * _bump_integral(r) / FUNDAMENTAL_AREA)


def default_suite() -> list:
    return [height_band(2.0), hyperbolic_disc(0.0, 2.0, 0.2),
            smooth_bump(0.0, 1.8, 0.25), angle_weight()]


class OrbitSeries:
    """A reduced orbit sample: strictly increasing times and the reduced
    coordinates of every visited point (arrays, one entry per time); kind is
    "sparse" or "curve"."""

    __slots__ = ("kind", "gamma", "times", "xs", "ys", "thetas")
    kind: str
    gamma: float
    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray

    def __init__(self, kind, gamma, times, xs, ys, thetas):
        self.kind, self.gamma, self.times = kind, gamma, times
        self.xs, self.ys, self.thetas = xs, ys, thetas

    def __len__(self):
        return int(self.times.size)


def _points(entries, times):
    """Reduced (x, y, theta) of the points entries(t) i, in blocks of _CHUNK."""
    times = np.asarray(times, dtype=float)
    n = times.size
    xs, ys, thetas = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, n, _CHUNK):
        block = slice(lo, lo + _CHUNK)
        xs[block], ys[block], thetas[block] = reduced_coordinates(*entries(times[block]))
    return xs, ys, thetas


def horocycle_points(p: SurfacePoint, times):
    """Reduced (x, y, theta) of the points p u(t) for the array of times t."""
    return _points(lambda t: flow_entries(p.rep.entries, 1.0, t), times)


def sample_sparse(p: SurfacePoint, gamma: float, N: int) -> OrbitSeries:
    """The orbit points p u(n^(1+gamma)) for n = 0..N-1, reduced."""
    if not (0.0 <= gamma <= 0.5) or N < 1:
        raise ValueError("need 0 <= gamma <= 0.5 and N >= 1")
    check_capacity(N, "orbit points")
    times = np.arange(N, dtype=float) ** (1.0 + gamma)
    return OrbitSeries("sparse", gamma, times, *horocycle_points(p, times))


def sample_curve(p: SurfacePoint, gamma: float, x_grid) -> OrbitSeries:
    """The expanding-translate curve points p (x^(1/4), x^(3/4+gamma); 0, x^(-1/4))."""
    if not (0.0 <= gamma < 0.25):
        raise ValueError("need 0 <= gamma < 1/4")
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size < 1 or x_grid[0] < 1.0 or (np.diff(x_grid) <= 0).any():
        raise ValueError("x_grid must be increasing with x >= 1")
    points = _points(lambda xv: curve_entries(p.rep.entries, xv, gamma), x_grid)
    return OrbitSeries("curve", gamma, x_grid, *points)


def discrepancy(series: OrbitSeries, suite) -> ExperimentReport:
    """|empirical mean - Haar mean| per test function and dyadic prefix."""
    n = len(series)
    if n == 0:
        raise ValueError("empty series")
    prefixes = [2 ** k for k in range(3, 64) if 2 ** k < n] + [n]
    rep = ExperimentReport(
        params={"N": n, "gamma": series.gamma, "kind": series.kind},
        columns=["function", "N_prefix", "empirical_mean", "haar_mean", "discrepancy"],
    )
    for f in suite:
        vals = f.values(series.xs, series.ys, series.thetas)
        csum = np.cumsum(vals)
        for m in prefixes:
            mean = float(csum[m - 1]) / m
            rep.add_row(f.name, m, mean, f.haar_mean, abs(mean - f.haar_mean))
    return rep


def twisted_average(q: SurfacePoint, T: float, frequency: float, f: TestFunction) -> complex:
    """(1/T) int_0^T e^(2 pi i freq t) f(q u(t)) dt by composite midpoint.

    The step honors the oscillation: <= min(0.05, 0.1/|freq|).
    """
    if not (10.0 <= T < math.inf) or not (abs(frequency) < math.inf):
        raise ValueError("need finite T >= 10 and a finite frequency")
    if abs(frequency) * T / _QUAD_POINTS > 20.0:
        raise ValueError("undersampled oscillation: need |frequency| * T <= 2e4")
    step_cap = 0.05 if frequency == 0.0 else min(0.05, 0.1 / abs(frequency))
    m = max(_QUAD_POINTS, int(math.ceil(T / step_cap)))
    check_capacity(m, "quadrature nodes")
    h = T / m
    t = (np.arange(m) + 0.5) * h
    w = 2.0 * math.pi * frequency
    total = complex((np.exp(1j * w * t) * f.values(*horocycle_points(q, t))).sum())
    return total * (h / T)


def progression_average(q: SurfacePoint, K: float, T: float, f: TestFunction) -> float:
    """Centered discrete average of f along the progression {u(K j) : 0 <= Kj < T}."""
    if not (0.0 < K < T < math.inf):
        raise ValueError("need finite T > K > 0")
    count = progression_point_count(K, T)
    check_capacity(count, "progression points")
    total = float(f.values(*horocycle_points(q, K * np.arange(count))).sum())
    return total / count - f.haar_mean


def progression_point_count(K: float, T: float) -> int:
    return int(math.ceil(T / K))


def fejer_coefficient_check(delta: float, K: float, k_max: int) -> ExperimentReport:
    """Fourier coefficients of the K-periodized triangle kernel.

    The kernel g_delta(x) = max(delta^-2 (delta - |x|), 0) has unit mass;
    its periodization g satisfies sum_k |a_k| = g(0) = 1/delta.  Coefficients
    come from a Riemann-sum DFT at M >> k_max points (aliasing < 1e-9).
    """
    if not (0.0 < delta < K / 2.0) or k_max < 1000:
        raise ValueError("need 0 < delta < K/2 and k_max >= 1000")
    M = 1 << max(18, (16 * k_max - 1).bit_length())
    xj = np.arange(M) * (K / M)
    dist = np.minimum(xj, K - xj)  # distance to the nearest lattice point K*j
    gj = np.maximum(delta - dist, 0.0) / (delta * delta)
    coeffs = np.fft.rfft(gj) / M
    a = coeffs.real
    assert np.abs(coeffs.imag).max() < 1e-9
    g0 = float(gj[0])
    a0 = float(a[0])
    sum_abs = a0 + 2.0 * float(np.abs(a[1 : k_max + 1]).sum())
    rep = ExperimentReport(
        params={
            "delta": delta, "K": K, "k_max": k_max, "dft_points": M,
            "g_zero": g0, "one_over_delta": 1.0 / delta, "a0": a0,
            "sum_abs": sum_abs, "min_coeff": float(a[: k_max + 1].min()),
        },
        columns=["k", "a_k"],
    )
    for k in range(0, min(k_max, 32) + 1):
        rep.add_row(k, float(a[k]))
    return rep


def curve_hit_ratios(p: SurfacePoint, gamma: float, kappa: float, N: int):
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


def piece_decomposition(p: SurfacePoint, gamma: float, eps: float, N: int,
                        kappa: float) -> ExperimentReport:
    """Greedy block cover of [1, N] anchored at indices whose expanding
    translate stays out of the shrinking cusp region.

    Indices n with the curve point inside S_(eps * n^(-1/4 + 1/(kappa+4)))
    are the obstruction set; blocks [M, M + M^(1/2-gamma)/(1+gamma)] start at
    the first good index after the previous block.  Reports covered fraction,
    per-block quality factors r_i, and the sharp quadratic Taylor residual of
    the time parametrization over each block.
    """
    if not (1.0 <= kappa < math.inf) or not (0.0 < gamma < 1.0 / (kappa + 4.0)):
        raise ValueError("need finite kappa >= 1 and 0 < gamma < 1/(kappa+4)")
    if not (0.0 <= eps < math.inf):
        raise ValueError("need finite eps >= 0")
    if N < 10:
        raise ValueError("need N >= 10")
    ratios = curve_hit_ratios(p, gamma, kappa, N)
    good = ratios > eps  # outside the shrinking cusp region
    blocks = []
    n = 1
    while n <= N:
        if good[n - 1]:
            length = int(math.floor(n ** (0.5 - gamma) / (1.0 + gamma)))
            end = min(n + length, N)
            blocks.append((n, end))
            n = end + 1
        else:
            n += 1
    covered = sum(end - start + 1 for start, end in blocks)
    rep = ExperimentReport(
        params={
            "gamma": gamma, "eps": eps, "N": N, "kappa": kappa,
            "blocks": len(blocks), "covered_fraction": covered / N,
            "uncovered_fraction": 1.0 - covered / N,
            "obstructed_fraction": float((~good).mean()),
        },
        columns=["M", "block_end", "block_len", "r_i", "taylor_residual",
                 "taylor_bound"],
    )
    one_plus = 1.0 + gamma
    M = np.array([start for start, _ in blocks], dtype=float)
    # r_i = r_factor(p u(M^(1+gamma)), sqrt(M)) per block start M
    r_is = r_factors(*flow_entries(p.rep.entries, 1.0, M ** one_plus), np.sqrt(M))
    for (start, end), r_i in zip(blocks, r_is):
        M = float(start)
        ks = np.arange(0, end - start + 1, dtype=float)
        resid = np.abs((M + ks) ** one_plus - M ** one_plus - one_plus * M ** gamma * ks)
        bound = gamma / (2.0 * one_plus) * M ** (-gamma)
        rep.add_row(start, end, end - start + 1, float(r_i),
                    float(resid.max()), bound * (1.0 + 1e-9))
    return rep
