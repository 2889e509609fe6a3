"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check (brute-force searches, direct formula evaluation, numpy matmul).
"""

import functools
import math
from fractions import Fraction

import numpy as np

from homodyn.diophantine import DiophantineWitness
from homodyn.fractal import _child_endpoints_int
from homodyn.mollify import MollifierSpec, mollifier_profile
from homodyn.orbits import FUNDAMENTAL_AREA, curve_hit_ratios
from homodyn.psl2 import GroupElement, IwasawaNAK, diagonal_flow, hyperbolic_distance
from homodyn.surface import reduce, reduce_points

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


def rotation(theta: float) -> GroupElement:
    """The rotation k(theta), taken modulo sign (k(theta) = k(theta + pi))."""
    return GroupElement(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))


def vector_act(g: GroupElement, v):
    """Linear action of g on R^2, canonicalized modulo sign (first coordinate
    positive, or zero with the second positive)."""
    x = g.a * v[0] + g.b * v[1]
    y = g.c * v[0] + g.d * v[1]
    if x < 0.0 or (x == 0.0 and y < 0.0):
        x, y = -x, -y
    return (x, y)


def dist(p) -> float:
    """Hyperbolic distance from the base point i to the reduced point of p."""
    return hyperbolic_distance(complex(0.0, 1.0), p.z_reduced)


def geodesic_flow(p, t: float):
    """The surface point p a(t), a(t) = diag(e^(t/2), e^(-t/2)), reduced again."""
    return reduce(p.rep.compose(diagonal_flow(t)))


def reduced_rep_reference(g: GroupElement) -> GroupElement:
    """The reduced representative W g by scalar group arithmetic: the Mobius
    image g i, its word W from reduce_points, and the product W g.  Its
    iwasawa() angle is the theta of the reduced coordinates, and
    W = (W g) g^-1 is an integer matrix."""
    z = g.mobius(complex(0.0, 1.0))
    word = (float(v[0]) for v in reduce_points(z.real, z.imag)[2:])
    return GroupElement(*word).compose(g)


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


def mollifier_l1_reference(spec: MollifierSpec) -> float:
    """L1 distance of the n-d mollifier to its box indicator: a tensor
    Gauss-Legendre sum of |prod p - prod 1_box| over the rectangles of the
    knots -delta, 0, delta, gamma - delta, gamma, gamma + delta.  It is
    exact: on each rectangle the box indicator is constant, so 0 <= p <= 1
    fixes the sign, and each factor of p is a degree-7 polynomial."""
    d, g = spec.delta, spec.gamma
    knots = np.array(sorted({-d, 0.0, d, g - d, g, g + d}))
    nodes, weights = np.polynomial.legendre.leggauss(4)
    half = 0.5 * np.diff(knots)
    u = ((knots[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    p, box = mollifier_profile(spec, u), ((u >= 0.0) & (u <= g)).astype(float)
    pp, bb, ww = p, box, w
    for _ in range(spec.n - 1):
        pp, bb, ww = (np.multiply.outer(pp, p), np.multiply.outer(bb, box),
                      np.multiply.outer(ww, w))
    return float((ww * np.abs(pp - bb)).sum())


def bump_kernel(x: float) -> float:
    """The mollifier's base kernel (35/32)(1 - x^2)^3 on [-1, 1], zero outside,
    as a scalar function for quadrature."""
    return 35.0 / 32.0 * (1.0 - x * x) ** 3 if abs(x) <= 1.0 else 0.0


def eval_g(params, x):
    """The monotone factor g(x) = b x^(1+gamma-1/(kappa+4)) - a x^(-1/(kappa+4))
    of goodfn's f = g^2 + (b x^(1/2-1/(kappa+4)))^2."""
    a, b, g, k = params.a, params.b, params.gamma, params.kappa
    return b * x ** (1.0 + g - 1.0 / (k + 4.0)) - a * x ** (-1.0 / (k + 4.0))


def eval_g_prime(params, x):
    """Derivative of eval_g in x (arrays)."""
    x = np.asarray(x, dtype=float)
    a, b, g, k = params.a, params.b, params.gamma, params.kappa
    e = 1.0 / (k + 4.0)
    return (1.0 + g - e) * b * x ** (g - e) + a * e * x ** (-1.0 - e)


def violations(kappa: float, mu: float, nu: float, a_comp, b_comp) -> int:
    """How many vectors (a, b) break the type-kappa condition at (mu, nu):
    |b| < mu and |a|^kappa |b| < nu."""
    abs_b = np.abs(b_comp)
    return int(((abs_b < mu) & (np.abs(a_comp) ** kappa * abs_b < nu)).sum())


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
    a_hi = np.minimum(a_hi, np.floor(np.sqrt(np.maximum(4.0 * l * l - bf * bf, 0.0)) + 1e-9))
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


def tree_endpoints(fam, j: int, e) -> list:
    """Level j's (lo, hi) intervals of a TreeLikeFamily built at exponent
    e = kappa + eps + 1: Fractions when e is an int (build_tree's exact
    mode), floats otherwise."""
    j = range(len(fam.levels))[j]
    exact = isinstance(e, int)
    if j == 0:
        return [(Fraction(0), Fraction(1))] if exact else [(0.0, 1.0)]
    pairs = fam.levels[j].tolist()
    if exact:
        return [(Fraction(*lo), Fraction(*hi))
                for lo, hi in (_child_endpoints_int(a, b, e) for a, b in pairs)]
    return [(a / b - (1.0 / 18.0) * float(b) ** (-e),
             a / b + (1.0 / 18.0) * float(b) ** (-e)) for a, b in pairs]


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
    for level, l in enumerate(l_schedule, 1):
        level_pairs, worst, max_diam = [], math.inf, 0.0
        for parent, parent_len in zip(parents, parent_lens):
            children = _ref_sector_children(l, parent, e, exact)
            if not children and level == 1:
                raise EmptyLevelError(
                    f"level 1 of schedule {','.join(f'{s:g}' for s in l_schedule)}: "
                    f"the first sector scale l={l:g} is too small to hold a primitive "
                    f"(a, b) with 0 < a < b and l <= |(a, b)| <= 2l"
                )
            if not children:
                if exact:
                    (plo, qlo), (phi, qhi) = parent
                    span = (plo / qlo, phi / qhi)
                else:
                    span = parent
                raise EmptyLevelError(
                    f"level {level} of schedule {','.join(f'{s:g}' for s in l_schedule)}: "
                    f"parent ({span[0]:.6g}, {span[1]:.6g}) got no children "
                    f"at sector scale l={l:g}, at exponent kappa + eps + 1 = {e:g}; "
                    f"the schedule is too aggressive for this exponent"
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


@functools.lru_cache(maxsize=8)
def primitive_pairs_reference(bound: int):
    """Every sign-canonical primitive (m, n) with |m|, n <= bound, by a
    per-row np.gcd loop: (1, 0) first, then by (n, m).  The box that
    lattice.enumerate_orbit cuts to its disc and that
    point_type_check_reference searches.  Cached, so the arrays are
    read-only."""
    ms = [np.array([1], dtype=np.int64)]
    ns = [np.array([0], dtype=np.int64)]
    m_range = np.arange(-bound, bound + 1, dtype=np.int64)
    for n in range(1, bound + 1):
        mm = m_range[np.gcd(np.abs(m_range), n) == 1]
        ms.append(mm)
        ns.append(np.full(mm.shape, n, dtype=np.int64))
    m, n = np.concatenate(ms), np.concatenate(ns)
    m.flags.writeable = n.flags.writeable = False
    return m, n


def point_type_check_reference(p, kappa: float, search_bound: int):
    """Reference for diophantine.point_type_check, which evaluates only the
    breakpoint candidates: the former full search.  (witness, a_comp,
    b_comp), the columns being the components of g^{-1}(m, n) over every
    pair of primitive_pairs_reference(search_bound); vectors_checked counts
    them all."""
    g = p.rep
    m, n = primitive_pairs_reference(search_bound)
    a_comp = g.d * m - g.b * n
    b_comp = g.a * n - g.c * m
    abs_b = np.abs(b_comp)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.abs(a_comp) ** kappa * abs_b
    axis = (abs_b <= 4 * 2.0**-52 * (abs(g.a) * n + abs(g.c) * np.abs(m))) & (abs_b < np.inf)
    axis_vectors = tuple((int(mm), int(nn)) for mm, nn in zip(m[axis][:16], n[axis][:16]))
    sym = np.maximum(abs_b, prod)
    witness = DiophantineWitness(
        mu=float(abs_b.min()) if not axis.any() else 0.0,
        nu=float(prod.min()) if not axis.any() else 0.0,
        symmetric=float(sym.min()) if not axis.any() else 0.0,
        axis_vectors=axis_vectors,
        vectors_checked=int(m.size),
    )
    return witness, a_comp, b_comp


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


# brentq's refinement of the grid scan's ends: |x - root| <= xtol + rtol |x|
HULL_XTOL, HULL_RTOL = 1e-12, 4.0 * np.finfo(float).eps


def _grid_scan(params, level: float, points: int):
    """goodfn's f on `points` geometric points of [1, cap]: the points, the
    mask f <= level, and brentq's root of f - level between points i and i+1."""
    from scipy.optimize import brentq

    from homodyn.goodfn import _WINDOW_CAP, eval_f

    xs = np.geomspace(1.0, _WINDOW_CAP, points)
    fn = lambda x: eval_f(params, x) - level  # noqa: E731
    refine = lambda i: brentq(fn, xs[i], xs[i + 1], xtol=HULL_XTOL, rtol=HULL_RTOL)  # noqa: E731
    return xs, eval_f(params, xs) <= level, refine


def sublevel_hull_reference(params, level: float, points: int = 200001):
    """Reference for goodfn._sublevel_hull, which assumes f quasi-convex: the
    former grid scan.  The first and last grid points with f <= level, each
    end inside the grid refined by brentq between its grid neighbours; None
    when no grid point is in the set."""
    xs, inside, refine = _grid_scan(params, level, points)
    idx = np.flatnonzero(inside)
    if not idx.size:
        return None
    i0, i1 = int(idx[0]), int(idx[-1])
    return (float(xs[0]) if i0 == 0 else refine(i0 - 1),
            float(xs[-1]) if i1 == points - 1 else refine(i1))


def crossings_reference(params, level: float, points: int = 200001) -> list:
    """Every x in [1, cap] where f - level changes sign between grid
    neighbours (x = 1 too when f(1) <= level), refined by brentq."""
    xs, inside, refine = _grid_scan(params, level, points)
    return [1.0] * bool(inside[0]) + [refine(int(i)) for i in
                                      np.flatnonzero(inside[1:] != inside[:-1])]


def verify_good_reference(params, eps_grid, window_count: int = 50):
    """Reference for goodfn.verify_good, which evaluates one window per
    eps at its one anchor: the former sweep on grid-scanned sets.  Per eps
    and anchor x1 (every crossing of f = rho) it tries window_count
    geometric right ends from x1 + 1 to the cap, plus the tightest end
    s1 + 1e-6 of the sublevel hull [s0, s1]."""
    from homodyn import goodfn
    from homodyn.report import ExperimentReport

    eps_grid = [float(e) for e in eps_grid]
    floor = goodfn.sublevel_floor(params)
    rep = ExperimentReport(
        params={"a": params.a, "b": params.b, "kappa": params.kappa,
                "gamma": params.gamma, "mu": params.mu, "nu": params.nu,
                "rho": params.rho, "case": params.case, "floor": floor},
        columns=["eps", "C_required", "sublevel_measure", "windows", "failed"],
    )
    anchors = crossings_reference(params, params.rho)
    for eps in eps_grid:
        seg = sublevel_hull_reference(params, eps)
        if seg is None:  # empty sublevel set
            rep.add_row(eps, 0.0, 0.0, window_count, 0)
            continue
        c_req = 0.0
        measure_total = 0.0
        for x1 in anchors:
            sweep = list(np.geomspace(max(x1 * (1.0 + 1e-9), x1 + 1e-6) + 1.0,
                                      goodfn._WINDOW_CAP, window_count))
            if seg[1] > x1:
                sweep.append(seg[1] + 1e-6)  # tightest window covering the dip
            for x2 in sweep:
                lo = max(seg[0], x1)
                hi = min(seg[1], x2)
                m = max(0.0, hi - lo)
                if m > 0.0:
                    measure_total = max(measure_total, m)
                    c_req = max(c_req, m / (math.sqrt(eps / params.rho) * (x2 - x1)))
        rep.add_row(eps, c_req, measure_total, window_count, 0)
    return rep


def emit_svg_reference(xs, ys, path: str) -> None:
    """Reference for svg.emit_svg, which dedupes the printed markers: the
    former writer, which dedupes on points rounded to 9 decimals and so
    keeps markers that print identically at 6."""
    x0, y0, x1, y1 = (-0.6, 0.8, 0.6, 4.0)
    seen = set()
    marks = []
    for x, y in zip(xs, ys):
        y = min(float(y), y1)
        x = float(x)
        key = (round(x, 9), round(y, 9))
        if key in seen:
            continue
        seen.add(key)
        # SVG y axis points down: plot (x, -y)
        marks.append(f'<circle cx="{x:.6f}" cy="{-y:.6f}" r="0.006"/>')
    width = x1 - x0
    height = y1 - y0
    body = "\n".join(marks)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {-y1} {width} {height}">\n'
        f'<rect x="{x0}" y="{-y1}" width="{width}" height="{height}" '
        f'fill="white" stroke="black" stroke-width="0.004"/>\n'
        f'<g fill="black">\n{body}\n</g>\n</svg>\n'
    )
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.write(svg)


def emit_svg_fstring(xs, ys, path: str) -> None:
    """Reference for svg.emit_svg: its former writer, one f-string per
    marker, deduped on the printed line by dict.fromkeys."""
    x0, y0, x1, y1 = (-0.6, 0.8, 0.6, 4.0)
    # SVG y axis points down: plot (x, -y)
    marks = (f'<circle cx="{float(x):.6f}" cy="{-min(float(y), y1):.6f}" r="0.006"/>'
             for x, y in zip(xs, ys))
    width = x1 - x0
    height = y1 - y0
    body = "\n".join(dict.fromkeys(marks))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {-y1} {width} {height}">\n'
        f'<rect x="{x0}" y="{-y1}" width="{width}" height="{height}" '
        f'fill="white" stroke="black" stroke-width="0.004"/>\n'
        f'<g fill="black">\n{body}\n</g>\n</svg>\n'
    )
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.write(svg)


def cf_expand_reference(x: float, depth: int, q_guard: int = 2**62):
    """Plain continued-fraction expansion with cf_expand's stopping rules:
    (quotients, convergents, terminated), convergents rebuilt from scratch
    at every step and a quotient below 1 also stopping it."""
    def convergents(qs):
        out, (p0, p1), (q0, q1) = [], (1, qs[0]), (0, 1)
        out.append((p1, q1))
        for a in qs[1:]:
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            out.append((p1, q1))
        return out

    qs = [math.floor(x)]
    t = x - qs[0]
    for _ in range(depth):
        p, q = convergents(qs)[-1]
        if abs(x - p / q) < 1e-15 or q > q_guard or t <= 0.0:
            return qs, convergents(qs), True
        t = 1.0 / t
        a = math.floor(t)
        if a < 1:
            return qs, convergents(qs), True
        qs.append(a)
        t -= a
    return qs, convergents(qs), False


def type_series(cf, exact: bool = False) -> tuple:
    """(n, q_n, zeta_n) per admissible convergent index, the series whose
    deepest entry diophantine.type_estimate returns: zeta_n =
    -log|q_n x - p_n| / log q_n on the float x or, with exact, on the
    rational p_N / q_N of the last convergent, in integers (the planted-type
    checks read the number that the quotient list defines, not its float
    image)."""
    if len(cf.convergents) < 3:
        raise ValueError("need at least 3 convergents")
    p_last, q_last = cf.convergents[-1]  # coprime: the exact value in lowest terms
    series = []
    for n, (p, q) in enumerate(cf.convergents):
        if exact:
            num = abs(q * p_last - p * q_last)
            if q >= 2 and num != 0:  # the terminal convergent has num = 0
                series.append((n, q, -(math.log(num) - math.log(q_last)) / math.log(q)))
        else:
            err = abs(q * cf.x - p)
            if q >= 2 and err > 0.0:
                series.append((n, q, -math.log(err) / math.log(q)))
    if not series:
        raise ValueError("no admissible convergent index")
    return tuple(series)


def type_estimate_exact(cf) -> float:
    """diophantine.type_estimate on the rational p_N / q_N of the last
    convergent, in integers."""
    return type_series(cf, exact=True)[-1][2]


ZETA3 = 1.2020569031595942854  # zeta(3)
PHI2 = 45.0 * ZETA3 / math.pi**3  # phi(2) = xi(3)/xi(4), the constant term's y^-1 coefficient
# n^(3/2) sigma_-3(n), n = 1..12
_E2_COEFFS = np.array([n**1.5 * sum(d**-3.0 for d in range(1, n + 1) if n % d == 0)
                       for n in range(1, 13)])


def eisenstein_e2(x, y):
    """The Eisenstein series E(z, 2) = sum over coprime (c, d) mod sign of
    y^2 / |cz + d|^4, by its Fourier expansion (Sarnak, CPAM 34, 1981):

        y^2 + phi(2)/y + (360/pi^2) sqrt(y) sum_n n^(3/2) sigma_-3(n)
                                              K_(3/2)(2 pi n y) cos(2 pi n x)

    with K_(3/2)(u) = sqrt(pi/(2u)) e^-u (1 + 1/u).  Twelve terms reach
    double precision at y >= sqrt(3)/2, where the next is below e^-70.
    Evaluated in blocks of 4096 points, which bounds the (points x 12)
    temporaries.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = np.arange(1, 13)
    out = np.empty(x.size)
    for lo in range(0, x.size, 4096):
        block = slice(lo, lo + 4096)
        xb, yb = x[block], y[block]
        u = 2.0 * math.pi * n * yb[:, None]
        k = np.sqrt(math.pi / (2.0 * u)) * np.exp(-u) * (1.0 + 1.0 / u)
        waves = np.cos(2.0 * math.pi * n * xb[:, None])
        series = (_E2_COEFFS * k * waves).sum(axis=1)
        out[block] = yb * yb + PHI2 / yb + 360.0 / math.pi**2 * np.sqrt(yb) * series
    return out


def hitting_frequency(p, gamma: float, kappa: float, eps: float, N: int) -> float:
    """Fraction of n in [1, N] whose expanding translate sits in S_theta(n, eps)."""
    if eps <= 0.0:
        return 0.0
    return float((curve_hit_ratios(p, gamma, kappa, N) <= eps).mean())


def totients(n: int) -> np.ndarray:
    """phi(0..n) by a sieve: each prime p takes phi(m) to phi(m) (1 - 1/p)
    at its multiples m."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
    return phi


def farey_arc_radius(c, y: float, h: float):
    """l_c = sqrt(y/h - c^2 y^2) / c, or 0 where c^2 y h >= 1: z = x + iy
    with |x + d/c| < l_c is lifted to height y / |cz + d|^2 > h by a matrix
    of bottom row (c, d)."""
    return np.sqrt(np.maximum(y / h - c * c * y * y, 0.0)) / c


def moebius_mu(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def ramanujan_sum(c: int, k: int) -> int:
    """c_c(k), the sum of e(k a / c) over a mod c coprime to c, as the
    integer sum over d dividing gcd(c, k) of mu(c / d) d."""
    g = math.gcd(c, k)
    return sum(moebius_mu(c // d) * d for d in range(1, g + 1) if g % d == 0)


def closed_horocycle_band(y: float, h: float, k: int = 0) -> float:
    """Exact integral of e(k x) over the x in [0, 1) where x + iy has reduced
    height at least h, for h >= 1, 0 < y < h and integer k; at k = 0 the
    fraction of the closed horocycle above h.

    Each primitive (c, d) with c >= 1 lifts the arc |x + d/c| < l_c (see
    farey_arc_radius) to a height of at least h; for h >= 1 these arcs are
    disjoint, since the horoballs are, and c = 0 leaves the height y < h.
    The arc about a/c contributes e(k a/c) sin(2 pi k l_c) / (pi k), which
    is 2 l_c at k = 0, and the sum of e(k a/c) over a is Ramanujan's
    c_c(k), which is phi(c) at k = 0.  So the integral is the sum over
    1 <= c <= (h y)^(-1/2) of c_c(k) sin(2 pi k l_c) / (pi k).
    """
    if not (h >= 1.0 and 0.0 < y < h):
        raise ValueError("need h >= 1 and 0 < y < h")
    c = np.arange(1, math.isqrt(int(1.0 / (h * y))) + 2, dtype=float)  # past the last arc
    radius = farey_arc_radius(c, y, h)
    if k == 0:
        arcs = totients(c.size)[1:] * 2.0 * radius
    else:
        sums = np.array([ramanujan_sum(q, k) for q in range(1, c.size + 1)], dtype=float)
        arcs = sums * np.sin(2.0 * math.pi * k * radius) / (math.pi * k)
    return math.fsum(arcs.tolist())
