"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check (brute-force searches, direct formula evaluation, numpy matmul).
"""

import math
from fractions import Fraction

import numpy as np

from homodyn.mollify import MollifierSpec, mollifier_profile
from homodyn.orbits import FUNDAMENTAL_AREA
from homodyn.psl2 import GroupElement, IwasawaNAK

SEED = 20250809


def rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(SEED + salt))


def random_element(r: np.random.Generator, y_low=1e-2, y_high=1e2) -> GroupElement:
    """Random element via Iwasawa coordinates, y log-uniform."""
    x = r.uniform(-5.0, 5.0)
    y = math.exp(r.uniform(math.log(y_low), math.log(y_high)))
    th = r.uniform(0.0, math.pi)
    return IwasawaNAK(float(x), math.sqrt(y), float(th)).recompose()


def random_gamma_word(r: np.random.Generator, max_len: int = 20):
    """Random word in T, T^-1, S as an exact integer matrix (m11, m12, m21, m22)."""
    m = (1, 0, 0, 1)
    for _ in range(int(r.integers(1, max_len + 1))):
        choice = int(r.integers(0, 3))
        if choice == 0:  # T
            m = (m[0] + m[2], m[1] + m[3], m[2], m[3])
        elif choice == 1:  # T^-1
            m = (m[0] - m[2], m[1] - m[3], m[2], m[3])
        else:  # S
            m = (-m[2], -m[3], m[0], m[1])
    return m


def gamma_to_element(m) -> GroupElement:
    return GroupElement(float(m[0]), float(m[1]), float(m[2]), float(m[3]))


def np_mat(g: GroupElement) -> np.ndarray:
    return np.array([[g.a, g.b], [g.c, g.d]])


def psl_allclose(g: GroupElement, h: GroupElement, tol=1e-9) -> bool:
    A, B = np_mat(g), np_mat(h)
    return min(np.abs(A - B).max(), np.abs(A + B).max()) <= tol


def haar_integral(f, grid=(128, 128, 16), y_cut: float = 1e6) -> float:
    """Midpoint quadrature of f against the normalized invariant measure.

    Coordinates (x, v=1/y, theta): the y-measure dy/y^2 is exactly dv, so the
    cell weights are uniform per x-slab.  The cusp is truncated at y_cut
    (omitted mass < 1e-6 of the total for bounded f).
    """
    nx, ny, ntheta = grid
    if nx < 64 or ny < 64 or ntheta < 16:
        raise ValueError("grid must be at least (64, 64, 16)")
    xs = (np.arange(nx) + 0.5) / nx - 0.5
    thetas = (np.arange(ntheta) + 0.5) * (math.pi / ntheta)
    total = 0.0
    v_cut = 1.0 / y_cut
    for x in xs:
        v_top = 1.0 / math.sqrt(1.0 - x * x)
        v = v_cut + (np.arange(ny) + 0.5) * (v_top - v_cut) / ny
        y = 1.0 / v
        vals = f.values(np.full((ny, ntheta), x), y[:, None], thetas[None, :])
        vals = np.broadcast_to(np.asarray(vals), (ny, ntheta))
        total += vals.sum() * (v_top - v_cut) / ny
    total *= (1.0 / nx) * (math.pi / ntheta)
    return total / (FUNDAMENTAL_AREA * math.pi)


def eval_mollifier(spec: MollifierSpec, u) -> float:
    """Product of the n coordinate factors of the mollifier at the point u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size != spec.n:
        raise ValueError(f"point has {u.size} coordinates, spec has n={spec.n}")
    return float(np.prod(mollifier_profile(spec, u)))


def brute_force_reduce(z: complex, depth: int = 30) -> complex:
    """Oracle: drive z into the fundamental domain by exhaustive T/S greed.

    Independent of the library loop: repeatedly applies the classical
    translation/inversion moves on the complex number only.
    """
    for _ in range(depth * 200):
        moved = False
        k = round(z.real)
        if k != 0:
            z = complex(z.real - k, z.imag)
            moved = True
        if abs(z) < 1.0 - 1e-12:
            z = -1.0 / z
            moved = True
        if not moved:
            return z
    raise RuntimeError("oracle failed to reduce")


def brute_force_cusp_norm(g: GroupElement, bound: int = 60) -> float:
    """Oracle: min |g^{-1}(m, n)| over primitive |m|, |n| <= bound."""
    best = math.inf
    for m in range(-bound, bound + 1):
        for n in range(0, bound + 1):
            if n == 0 and m <= 0:
                continue
            if math.gcd(abs(m), n) != 1:
                continue
            x = g.d * m - g.b * n
            y = g.a * n - g.c * m
            best = min(best, math.hypot(x, y))
    return best


def reduce_xy_reference(x: float, y: float):
    """Scalar reference for surface.reduce_points: the former pure-Python loop.

    Drives x + iy into {|Re| <= 1/2, |z| >= 1} by T/S moves and returns
    (x', y', m11, m12, m21, m22) with the word as exact Python integers.
    """
    m11, m12, m21, m22 = 1, 0, 0, 1
    for _ in range(10_000):
        k = round(x)
        if k:
            x -= k
            m11 -= k * m21
            m12 -= k * m22
        n2 = x * x + y * y
        if n2 < 1.0 - 1e-12:
            x, y = -x / n2, y / n2
            m11, m12, m21, m22 = -m21, -m22, m11, m12
        else:
            return x, y, m11, m12, m21, m22
    raise RuntimeError("reference reduction did not converge")


def lattice_min_sq_reference(u1: float, u2: float, v1: float, v2: float) -> float:
    """Scalar reference for surface.lattice_min_sq: plain Lagrange/Gauss
    reduction of one planar basis (the former pure-Python loop)."""
    nu = u1 * u1 + u2 * u2
    nv = v1 * v1 + v2 * v2
    for _ in range(256):
        if nu < nv:
            u1, u2, v1, v2 = v1, v2, u1, u2
            nu, nv = nv, nu
        mu = round((u1 * v1 + u2 * v2) / nv)
        if mu == 0:
            return nv
        u1 -= mu * v1
        u2 -= mu * v2
        nu = u1 * u1 + u2 * u2
    return min(nu, nv)


def sector_children_reference(parent_lo: Fraction, parent_hi: Fraction, l: float, e: int):
    """Brute-force slope packing in exact arithmetic: the intervals
    [a/b - (1/18) b^-e, a/b + (1/18) b^-e], sorted, of every primitive (a, b)
    with 0 < a < b and l^2 <= a^2 + b^2 <= 4 l^2 whose interval lies inside
    [parent_lo, parent_hi].  For each b only the numerators with a/b in the
    parent are tried; a child inside the parent has its slope there.
    """
    out = []
    for b in range(1, int(2.0 * l) + 1):
        w = Fraction(1, 18 * b**e)
        a_min = max(1, math.ceil(parent_lo * b))
        a_max = min(b - 1, math.floor(parent_hi * b))
        for a in range(a_min, a_max + 1):
            if not (l * l <= a * a + b * b <= 4.0 * l * l) or math.gcd(a, b) != 1:
                continue
            lo, hi = Fraction(a, b) - w, Fraction(a, b) + w
            if parent_lo <= lo and hi <= parent_hi:
                out.append((lo, hi))
    return sorted(out)


_REF_MARGIN = 1e-11  # the float pre-check band of the scalar tree build


def _ref_endpoints_int(a: int, b: int, e: int):
    q = 18 * b**e
    core = 18 * a * b ** (e - 1)
    return (core - 1, q), (core + 1, q)


def _ref_leq(p1, q1, p2, q2) -> bool:
    return p1 * q2 <= p2 * q1


def _ref_sector_children(l: float, parent, e, exact: bool):
    """One parent's children at sector scale l, sorted by slope: the former
    per-parent loop of fractal.build_tree (numpy windows, Python candidates)."""
    if exact:
        (plo, qlo), (phi, qhi) = parent
        lo_f, hi_f = plo / qlo, phi / qhi
    else:
        lo_f, hi_f = parent
    b_min = max(1, int(math.floor(l * math.sqrt(0.5))))
    b_max = int(math.ceil(2.0 * l))
    betas = np.arange(b_min, b_max + 1, dtype=np.int64)
    bf = betas.astype(float)
    a_lo = np.ceil(lo_f * bf - 1e-6)
    a_lo = np.maximum(a_lo, 1.0)
    a_lo = np.maximum(a_lo, np.ceil(np.sqrt(np.maximum(l * l - bf * bf, 0.0)) - 1e-9))
    a_hi = np.floor(hi_f * bf + 1e-6)
    a_hi = np.minimum(a_hi, bf - 1.0)
    a_hi = np.minimum(a_hi, np.floor(np.sqrt(4.0 * l * l - bf * bf) + 1e-9))
    out = []
    l2, l4 = l * l, 4.0 * l * l
    for i in np.nonzero(a_lo <= a_hi)[0].tolist():
        b = int(betas[i])
        w = (1.0 / 18.0) * float(b) ** (-float(e))
        for a in range(int(a_lo[i]), int(a_hi[i]) + 1):
            r2 = a * a + b * b
            if not (l2 <= r2 <= l4) or math.gcd(a, b) != 1:
                continue
            s = a / b
            if s - w < lo_f - _REF_MARGIN or s + w > hi_f + _REF_MARGIN:
                continue
            if exact and (s - w < lo_f + _REF_MARGIN or s + w > hi_f - _REF_MARGIN):
                (clo_p, clo_q), (chi_p, chi_q) = _ref_endpoints_int(a, b, e)
                if not (_ref_leq(plo, qlo, clo_p, clo_q) and _ref_leq(chi_p, chi_q, phi, qhi)):
                    continue
            elif not exact and (s - w < lo_f or s + w > hi_f):
                continue
            out.append((a, b))
    out.sort(key=lambda ab: ab[0] / ab[1])
    return out


def build_tree_reference(kappa: float, eps: float, l_schedule, child_guard: int = 2 * 10**6):
    """Scalar reference for fractal.build_tree: the former one-call-per-parent
    loop.  Returns (pair levels, diameters, densities); pair level j lists the
    (a, b) of level j (level 0, the root, has none).  Raises the same
    EmptyLevelError message and guard ValueError.  A parent's length is its
    exact width (2/18) b^-e, not a difference of rounded endpoints.
    """
    from homodyn.fractal import EmptyLevelError

    exact = float(kappa + eps).is_integer()
    e = int(kappa + eps) + 1 if exact else kappa + eps + 1.0
    parents = [((0, 1), (1, 1)) if exact else (0.0, 1.0)]
    parent_lens = [1.0]
    pair_levels, diameters, densities = [[]], [1.0], []
    total = 0
    for l in l_schedule:
        level_pairs, worst, max_diam = [], math.inf, 0.0
        for parent, parent_len in zip(parents, parent_lens):
            children = _ref_sector_children(l, parent, e, exact)
            if not children:
                if exact:
                    (plo, qlo), (phi, qhi) = parent
                    span = (plo / qlo, phi / qhi)
                else:
                    span = parent
                raise EmptyLevelError(
                    f"parent ({span[0]:.6g}, {span[1]:.6g}) got no children "
                    f"at sector scale l={l:g}"
                )
            total += len(children)
            if total > child_guard:
                raise ValueError("tree exceeds the interval-count guard")
            widths = [2.0 / 18.0 * float(b) ** (-float(e)) for _, b in children]
            worst = min(worst, sum(widths) / parent_len)
            max_diam = max(max_diam, max(widths))
            level_pairs.extend(children)
        level_pairs.sort(key=lambda ab: ab[0] / ab[1])
        pair_levels.append(level_pairs)
        densities.append(worst)
        diameters.append(max_diam)
        if exact:
            parents = [_ref_endpoints_int(a, b, e) for a, b in level_pairs]
        else:
            parents = [(a / b - (1.0 / 18.0) * float(b) ** (-e),
                        a / b + (1.0 / 18.0) * float(b) ** (-e)) for a, b in level_pairs]
        parent_lens = [2.0 / 18.0 * float(b) ** (-float(e)) for _, b in level_pairs]
    return pair_levels, diameters, densities


def primitive_pairs_reference(bound: int):
    """Reference for the sieve in diophantine._primitive_pairs: the former
    per-row np.gcd loop.  Sign-canonical primitive (m, n), |m|, |n| <= bound,
    (1, 0) first, then by (n, m)."""
    ms = [np.array([1], dtype=np.int64)]
    ns = [np.array([0], dtype=np.int64)]
    m_range = np.arange(-bound, bound + 1, dtype=np.int64)
    for n in range(1, bound + 1):
        mm = m_range[np.gcd(np.abs(m_range), n) == 1]
        ms.append(mm)
        ns.append(np.full(mm.shape, n, dtype=np.int64))
    return np.concatenate(ms), np.concatenate(ns)


def gap_constants_reference(vecs):
    """Reference for lattice.gap_constants, which returns the theorem's
    (1, 1): the former scan.  min |beta| over beta != 0, and min nonzero
    |a1 b2 - a2 b1| over neighbours in the arctan2 order of the members."""
    b = vecs.betas
    nz = b[b != 0]
    c_second = float(np.min(np.abs(nz))) if nz.size else math.inf
    order = np.argsort(np.arctan2(b.astype(float), vecs.alphas.astype(float)),
                       kind="stable")
    a_s, b_s = vecs.alphas[order], b[order]
    cross = np.abs(a_s[:-1] * b_s[1:] - a_s[1:] * b_s[:-1])
    cross = cross[cross != 0]
    return c_second, float(cross.min()) if cross.size else math.inf
