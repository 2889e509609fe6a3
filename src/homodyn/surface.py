"""The modular surface: quotient of PSL(2,R) by PSL(2,Z).

Fundamental-domain reduction, the distance-to-base-point functional, the
shortest-cusp-vector norm d(p), and cusp-excursion profiles along geodesic
orbits.

The lattice is fixed to PSL(2,Z): one cusp at i*infinity, represented by the
identity scaling matrix, width one.
"""

from __future__ import annotations

import math

import numpy as np

from .psl2 import GroupElement
from .report import ExperimentReport

# Cusp-neighborhood gate of the excursion profile: below this radius at most
# one cusp-orbit vector can live, since 0.5 < 1 = the unimodular covolume bound.
CUSP_GATE = 0.5

_MAX_REDUCE_STEPS = 10_000
_EXACT = 2.0**53  # float64 holds every integer below this exactly
# From this y up, y * y >= 2^-1074, the least subnormal, so it is not 0.
# Inversions only raise y, so the |z|^2 that S divides by stays positive.
_Y_MIN = 2.0**-537


class ReductionError(RuntimeError):
    """Fundamental-domain reduction failed to converge (degenerate input)."""


def reduce_points(x, y):
    """Drive the points z = x + iy into {|Re| <= 1/2, |z| >= 1} by T/S moves.

    Returns float64 arrays (x', y', m11, m12, m21, m22): the reduced points and
    the integer words applied on the left.  A point takes the same moves in
    any batch: shift by the nearest integer (ties to even), then invert while
    |z|^2 < 1 - 1e-12; each pass touches only the points still moving.  A
    word entry or product reaching 2^53, where float64 integers stop being
    exact, raises ReductionError, and so does a point with y < 2^-537,
    where |z|^2 can underflow to 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if not (np.isfinite(x).all() and (y >= _Y_MIN).all() and np.isfinite(y).all()):
        raise ReductionError("degenerate orbit point: non-finite, or y < 2^-537")
    n = x.size
    out = np.empty((6, n))
    m11, m12, m21, m22 = np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)
    idx = np.arange(n)  # where the moving points go in out
    bound = 1.0  # no word entry of a moving point exceeds this
    for _ in range(_MAX_REDUCE_STEPS):
        k = np.rint(x) + 0.0  # + 0.0 maps -0.0 to 0.0, so x - k keeps x = -0.0
        x = x - k
        p1, p2 = k * m21, k * m22
        m11, m12 = m11 - p1, m12 - p2
        bound *= 1.0 + np.abs(k).max(initial=0.0)  # |m - k m'| <= (1 + |k|) bound
        if bound >= _EXACT:  # the bound proves nothing: look at the entries
            if max(np.abs(a).max(initial=0.0) for a in (p1, p2, m11, m12)) >= _EXACT:
                raise ReductionError("word entry reached 2^53: the point is too deep in the cusp")
            bound = max(np.abs(a).max(initial=0.0) for a in (m11, m12, m21, m22))
        yc = np.minimum(y, 2.0)  # y >= 1 never inverts; capped, y^2 cannot overflow
        n2 = x * x + yc * yc
        move = n2 < 1.0 - 1e-12
        moving = np.count_nonzero(move)
        state = (x, y, m11, m12, m21, m22)
        if moving < n:
            done = np.flatnonzero(~move)
            out[:, idx[done]] = [a.take(done) for a in state]
        if not moving:
            return tuple(out)
        if moving < n:
            keep = np.flatnonzero(move)
            x, y, m11, m12, m21, m22, n2, idx = (a.take(keep) for a in state + (n2, idx))
            n = moving
        x, y = -x / n2, y / n2
        m11, m12, m21, m22 = 0.0 - m21, 0.0 - m22, m11, m12  # S; 0.0 - m avoids -0.0
    raise ReductionError(f"no convergence after {_MAX_REDUCE_STEPS} steps (y ~ {y.min():.3g})")


def lattice_min_sq(u1, u2, v1, v2):
    """Squared length of the shortest nonzero vector of each lattice (u, v).

    Lagrange-Gauss reduction of planar bases, O(log) passes over the bases
    still reducing (Nguyen & Stehle, ACM TALG 2009).
    """
    u1, u2, v1, v2 = (np.asarray(a, dtype=float).ravel() for a in (u1, u2, v1, v2))
    if not all(np.isfinite(a).all() for a in (u1, u2, v1, v2)):
        raise ReductionError("non-finite lattice basis")
    with np.errstate(over="ignore"):
        nu, nv = u1 * u1 + u2 * u2, v1 * v1 + v2 * v2
    if not (np.isfinite(nu).all() and np.isfinite(nv).all()):
        raise ReductionError("squared length of a lattice basis vector overflowed")
    out = np.empty(nu.size)
    idx = np.arange(nu.size)
    for _ in range(256):
        swap = nu < nv
        u1, u2, nu, v1, v2, nv = (np.where(swap, b, a) for a, b in (
            (u1, v1), (u2, v2), (nu, nv), (v1, u1), (v2, u2), (nv, nu)))
        if not nv.all():
            raise ReductionError("shortest cusp vector lost to float rounding or underflow: "
                                 "the point is too deep in the cusp")
        mu = np.rint((u1 * v1 + u2 * v2) / nv)
        done = mu == 0.0
        if done.all():
            out[idx] = nv
            return out
        if done.any():
            out[idx[done]] = nv[done]
            keep = ~done
            u1, u2, v1, v2, nv, mu, idx = (a[keep] for a in (u1, u2, v1, v2, nv, mu, idx))
        u1, u2 = u1 - mu * v1, u2 - mu * v2
        nu = u1 * u1 + u2 * u2
    out[idx] = np.minimum(nu, nv)
    return out


def cusp_norms(a, b, c, d):
    """d(p) for the points with representatives (a, b; c, d) (arrays).

    Equals the shortest-vector length of the lattice g^{-1} Z^2 (the minimum
    of the cusp-orbit vector set is attained on a primitive vector), computed
    by Gauss reduction of the columns of g^{-1}.
    """
    # g^{-1} = (d, -b; -c, a); columns (d, -c) and (-b, a)
    return np.sqrt(lattice_min_sq(d, -c, -b, a))


def reduced_coordinates(a, b, c, d):
    """Reduced (x, y, theta) of the points g i, g = (a, b; c, d) (arrays).

    The one path from group elements to reduced points: W g i with the word
    W of reduce_points, and theta the angle of W g = n(x) a(sqrt y) k(theta)
    in [0, pi).
    """
    x, y, m11, m12, m21, m22 = reduce_points(*base_point_image(a, b, c, d))
    theta = np.arctan2(m21 * a + m22 * c, m21 * b + m22 * d) % math.pi
    return x, y, np.where(theta >= math.pi, 0.0, theta)  # fold the float pi to 0


class SurfacePoint:
    """A point of the quotient: its representative and its reduced point."""

    __slots__ = ("rep", "z_reduced")
    rep: GroupElement
    z_reduced: complex

    def __init__(self, rep, z_reduced):
        self.rep, self.z_reduced = rep, z_reduced


def reduce(g: GroupElement) -> SurfacePoint:
    """Reduce Gamma*g: the reduced point of g i, from the array kernel."""
    with np.errstate(all="ignore"):  # g i past the float range: refused by reduce_points
        x, y, _ = reduced_coordinates(*np.reshape(g.entries, (4, 1)))
    return SurfacePoint(g, complex(x[0], y[0]))


def cusp_norm(g: GroupElement) -> float:
    """d(g): minimal Euclidean norm over the cusp-orbit vectors of g."""
    return float(cusp_norms(g.a, g.b, g.c, g.d)[0])


def r_factor(q: SurfacePoint, T: float) -> float:
    """Equidistribution quality parameter T * exp(-dist(g_{log T} q))."""
    if not (1.0 <= T < math.inf):
        raise ValueError("r_factor needs finite T >= 1")
    return float(r_factors(*q.rep.entries, T)[0])


def r_factors(a, b, c, d, T):
    """T * exp(-dist(g a(log T) i)) for the elements g = (a, b; c, d) and the
    times T (arrays), a(log T) = diag(e, 1/e) with e = T^(1/2): one reduction."""
    x, y, _ = reduced_coordinates(*flow_entries((a, b, c, d), np.exp(0.5 * np.log(T)), 0.0))
    return T * np.exp(-height_distance(x, y))


def flow_entries(base, e, s):
    """Entries of base (e, s; 0, 1/e) for base = (a, b, c, d), e and s scalars
    or arrays: u(t) is (e, s) = (1, t) and a(tau) is (exp(tau/2), 0).  The one
    place where base entries meet a flow parameter, with curve_entries."""
    a, b, c, d = base
    f = 1.0 / e
    return a * e, a * s + b * f, c * e, c * s + d * f


def curve_entries(rep, xv, gamma: float):
    """Entries of the curve matrices rep (x^(1/4), x^(3/4+gamma); 0, x^(-1/4))
    at the array of parameters x."""
    r11, r12, r21, r22 = rep
    quarter = xv ** 0.25
    shear = xv ** (0.75 + gamma)
    return (r11 * quarter, r11 * shear + r12 / quarter,
            r21 * quarter, r21 * shear + r22 / quarter)


def base_point_image(a, b, c, d):
    """(x, y) of the points g i, g = (a, b; c, d) of determinant one (arrays).
    An x or y past the float range is not finite: reduce_points refuses it."""
    with np.errstate(all="ignore"):
        den = c * c + d * d
        x, y = (a * c + b * d) / den, 1.0 / den
    if not np.isfinite(den).all():
        raise ReductionError("c^2 + d^2 of a base point image overflowed")
    return x, y


def height_distance(x, y, x0=0.0, y0=1.0):
    """Hyperbolic distance from x0 + i y0 (default i) to the points x + iy (arrays)."""
    dx, dy = x - x0, y - y0
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * y * y0)
    return np.arccosh(np.maximum(arg, 1.0))


def excursion_profile(p: SurfacePoint, t_max: float, steps: int):
    """Sampled cusp-excursion height along the geodesic orbit.

    Returns (times, values) where values[i] is dist(g_t p) when the orbit is
    inside the gated cusp neighborhood {d <= CUSP_GATE} and 0 outside.
    """
    if t_max <= 0.0 or steps < 2:
        raise ValueError("need t_max > 0 and steps >= 2")
    ts = np.linspace(0.0, t_max, steps)
    a, b, c, d = flow_entries(p.rep.entries, np.exp(0.5 * ts), 0.0)
    near = cusp_norms(a, b, c, d) <= CUSP_GATE
    vals = np.zeros(steps)
    x, y, _ = reduced_coordinates(a[near], b[near], c[near], d[near])
    vals[near] = height_distance(x, y)
    return ts, vals


def random_points(sample_count: int, rng: np.random.Generator):
    """Iwasawa-coordinate samples approximating truncated Haar measure.

    x uniform on [-1/2, 1/2], theta uniform on [0, pi), y with density 1/y^2
    on [sqrt(3)/2, 100].  Returns the entry arrays (a, b, c, d) of the
    representatives n(x) a(sqrt y) k(theta).
    """
    xs = rng.uniform(-0.5, 0.5, sample_count)
    thetas = rng.uniform(0.0, math.pi, sample_count)
    a = math.sqrt(3.0) / 2.0
    bnd = 100.0
    u = rng.uniform(0.0, 1.0, sample_count)
    ys = 1.0 / (1.0 / a - u * (1.0 / a - 1.0 / bnd))
    alpha = np.sqrt(ys)
    inv = 1.0 / alpha
    ct, st = np.cos(thetas), np.sin(thetas)
    return alpha * ct + xs * inv * st, -alpha * st + xs * inv * ct, inv * st, inv * ct


def dist_vs_norm_check(sample_count: int, seed: int = 0) -> ExperimentReport:
    """Empirical two-sided comparison of exp(dist(p)) with 1/d(p)^2.

    Samples truncated-Haar points, restricts to d(p) <= 0.5, and reports the
    ratio exp(dist) * d^2 (min / max / mean).  The comparability constant is
    empirical; only positivity and boundedness are structural.
    """
    if sample_count < 100:
        raise ValueError("need sample_count >= 100")
    rng = np.random.default_rng(np.random.Philox(seed))
    a, b, c, d = random_points(sample_count, rng)
    dn = cusp_norms(a, b, c, d)
    x, y, _ = reduced_coordinates(a, b, c, d)
    cusp = dn <= 0.5
    ratios = np.exp(height_distance(x[cusp], y[cusp])) * dn[cusp] * dn[cusp]
    rep = ExperimentReport(
        params={"sample_count": sample_count, "seed": seed, "used": int(ratios.size)},
        columns=["used", "ratio_min", "ratio_max", "ratio_mean", "spread"],
    )
    if ratios.size:
        rep.add_row(
            int(ratios.size),
            float(ratios.min()),
            float(ratios.max()),
            float(ratios.mean()),
            float(ratios.max() / ratios.min()),
        )
    return rep
