"""Fundamental-domain reduction, cusp norm, flows, and the cusp geometry."""

import math
import warnings

import numpy as np
import pytest

from homodyn.psl2 import GroupElement, IwasawaNAK, identity, unipotent, diagonal_flow
from homodyn.surface import (
    ReductionError,
    cusp_norm,
    dist_vs_norm_check,
    curve_entries,
    excursion_profile,
    flow_entries,
    lattice_min_sq,
    r_factor,
    r_factors,
    reduce,
    reduce_points,
)

from helpers import (
    brute_force_cusp_norm,
    brute_force_reduce,
    closed_horocycle_band,
    farey_arc_radius,
    dist,
    gamma_to_element,
    geodesic_flow,
    lattice_min_sq_reference,
    np_mat,
    random_element,
    random_gamma_word,
    reduce_xy_reference,
    reduced_rep_reference,
    rng,
    totients,
)


def from_point(x, y):
    """Element whose orbit point is x + iy (n(x) a(sqrt(y)))."""
    return IwasawaNAK(x, math.sqrt(y), 0.0).recompose()


def test_reduce_identity_and_integer_translate():
    assert reduce(identity()).z_reduced == complex(0.0, 1.0)
    p = reduce(unipotent(1.0))
    assert abs(p.z_reduced - complex(0.0, 1.0)) < 1e-12


def test_reduce_against_word_search_oracle():
    cases = [(100.3, 0.8), (0.49, 0.2), (-3.71, 0.05), (12.125, 37.0)]
    for x, y in cases:
        got = reduce(from_point(x, y)).z_reduced
        want = brute_force_reduce(complex(x, y))
        assert abs(got - want) < 1e-9
    # frozen reference value
    z = reduce(from_point(100.3, 0.8)).z_reduced
    assert z.real == pytest.approx(-0.4110, abs=5e-5)
    assert z.imag == pytest.approx(1.0959, abs=5e-5)


def test_reduce_invariants_and_integer_word():
    r = rng(10)
    for _ in range(300):
        g = random_element(r, y_low=1e-3, y_high=1e3)
        p = reduce(g)
        assert p.rep is g
        assert abs(p.z_reduced.real) <= 0.5 + 1e-9
        assert abs(p.z_reduced) >= 1.0 - 1e-9
        # the reduced point is (gamma g) i with an integer gamma
        h = reduced_rep_reference(g)
        assert abs(h.mobius(1j) - p.z_reduced) < 1e-9
        gm = np.array([[h.a, h.b], [h.c, h.d]])
        inv = np.array([[g.d, -g.b], [-g.c, g.a]])
        word = gm @ inv
        signed = word if abs(word[0, 0] - round(word[0, 0])) < 0.5 else -word
        assert np.abs(signed - np.round(signed)).max() < 1e-6


def test_reduce_idempotent():
    r = rng(11)
    for _ in range(200):
        p = reduce(random_element(r, y_low=1e-3, y_high=1e3))
        q = reduce(reduced_rep_reference(p.rep))
        assert abs(p.z_reduced - q.z_reduced) < 1e-9


def test_reduce_gamma_invariance():
    r = rng(12)
    for _ in range(300):
        g = random_element(r, y_low=1e-2, y_high=1e2)
        gamma = gamma_to_element(random_gamma_word(r))
        assert abs(reduce(gamma @ g).z_reduced - reduce(g).z_reduced) < 1e-8


def test_dist_examples():
    assert dist(reduce(identity())) == 0.0
    assert dist(reduce(from_point(0.0, math.e))) == pytest.approx(1.0)
    assert dist(reduce(from_point(0.0, 2.0))) == pytest.approx(math.log(2.0))


def test_cusp_norm_examples():
    assert cusp_norm(identity()) == pytest.approx(1.0)
    for t in (0.0, 1.0, 3.3, 7.0):
        assert cusp_norm(diagonal_flow(t)) == pytest.approx(math.exp(-t / 2.0), rel=1e-12)


def test_cusp_norm_matches_enumeration_oracle():
    r = rng(13)
    for _ in range(120):
        g = random_element(r, y_low=5e-2, y_high=20.0)
        lam = cusp_norm(g)
        if lam <= 2.0:
            assert lam == pytest.approx(brute_force_cusp_norm(g, bound=50), rel=1e-9)


def test_cusp_norm_gamma_invariant():
    r = rng(14)
    for _ in range(200):
        g = random_element(r)
        gamma = gamma_to_element(random_gamma_word(r))
        assert cusp_norm(gamma @ g) == pytest.approx(cusp_norm(g), rel=1e-8)


def test_separation_at_most_one_short_vector():
    # at most one cusp-orbit vector of norm <= 0.5, by enumeration: the
    # separation radius of the single cusp, below the unimodular covolume 1
    separation_radius = 0.5
    r = rng(15)
    for _ in range(150):
        g = random_element(r, y_low=1e-2, y_high=50.0)
        count = 0
        for m in range(-40, 41):
            for n in range(0, 41):
                if n == 0 and m <= 0:
                    continue
                if math.gcd(abs(m), n) != 1:
                    continue
                x = g.d * m - g.b * n
                y = g.a * n - g.c * m
                if math.hypot(x, y) <= separation_radius:
                    count += 1
        assert count <= 1


def test_flows():
    p = reduce(from_point(0.3, 1.7))
    assert abs(geodesic_flow(p, 0.0).z_reduced - p.z_reduced) < 1e-12
    q = reduce(unipotent(1.0))
    assert abs(q.z_reduced - complex(0.0, 1.0)) < 1e-12
    for t in (0.5, 1.0, 2.5):
        assert dist(geodesic_flow(reduce(identity()), t)) == pytest.approx(t)
    # flow composition
    r = rng(16)
    for _ in range(100):
        p = reduce(random_element(r))
        s, t = r.uniform(-3, 3), r.uniform(-3, 3)
        a = geodesic_flow(geodesic_flow(p, s), t)
        b = geodesic_flow(p, s + t)
        assert abs(a.z_reduced - b.z_reduced) < 1e-8


def test_r_factor():
    p0 = reduce(identity())
    for T in (2.0, 10.0, 1e3):
        assert r_factor(p0, T) == pytest.approx(1.0, rel=1e-9)
    r = rng(17)
    for _ in range(50):
        q = reduce(random_element(r))
        T = math.exp(r.uniform(0.1, 6.0))
        assert r_factor(q, T) <= T * (1 + 1e-12)


def test_flow_entries_match_group_products():
    # u(t), a(tau) and the curve element at x against GroupElement composition,
    # each entry to 1e-15 of its summed terms |g| |h|: an entry is a sum of two
    # products, relative to those.  Moderate t, tau and x keep det(g h) within
    # 1e-12 of 1, so GroupElement repairs nothing.  The -0.0 bases check the
    # signed zero that a * s adds at s = 0.
    r = rng(29)
    bases = [random_element(r, 0.1, 10.0) for _ in range(40)]
    bases += [GroupElement(2.0, -0.0, 0.5, 0.5), GroupElement(1.0, 0.5, -0.0, 1.0)]
    for g in bases:
        t, tau = r.uniform(-4.0, 4.0), r.uniform(-3.0, 3.0)
        x, gamma = r.uniform(1.0, 16.0), r.uniform(0.0, 0.25)
        q = x ** 0.25
        for got, h in ((flow_entries(g.entries, 1.0, t), unipotent(t)),
                       (flow_entries(g.entries, math.exp(0.5 * tau), 0.0), diagonal_flow(tau)),
                       (curve_entries(g.entries, x, gamma),
                        GroupElement(q, x ** (0.75 + gamma), 0.0, 1.0 / q))):
            scale = (np.abs(np_mat(g)) @ np.abs(np_mat(h))).ravel()
            assert (np.abs(np.subtract(got, (g @ h).entries)) <= 1e-15 * scale).all(), (g, h)


def test_r_factors_match_geodesic_flow_path():
    # the array kernel against T exp(-dist(g_{log T} q)) through GroupElement
    # composition, Mobius action and math.acosh
    r = rng(23)
    qs = [reduce(random_element(r)) for _ in range(40)]
    for T in (1.0, 10.0, 1e3):
        got = r_factors(*(np.array(col) for col in zip(*(q.rep.entries for q in qs))),
                        np.full(len(qs), T))
        want = [T * math.exp(-dist(geodesic_flow(q, math.log(T)))) for q in qs]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert [r_factor(q, T) for q in qs] == pytest.approx(want, rel=1e-12, abs=0.0)
    for T in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            r_factor(qs[0], T)


def test_excursion_profile_identity_orbit():
    ts, vals = excursion_profile(reduce(identity()), 8.0, 401)
    assert (vals >= 0.0).all()
    gate_t = 2.0 * math.log(2.0)
    inside = ts >= gate_t + 0.05
    assert np.allclose(vals[inside], ts[inside], atol=1e-8)
    assert (vals[ts < gate_t - 0.05] == 0.0).all()


def test_dist_vs_norm_report():
    rep = dist_vs_norm_check(3000, seed=7)
    assert rep.rows, "no samples fell in the cusp region"
    used, rmin, rmax, rmean, spread = rep.rows[0]
    assert used >= 300
    assert 0.0 < rmin <= rmax
    assert spread <= 10.0
    # on-axis closed form: ratio == 1 at height y >= 2 exactly
    for y in (4.0, 9.0, 25.0):
        p = reduce(from_point(0.0, y))
        assert math.exp(dist(p)) * cusp_norm(p.rep) ** 2 == pytest.approx(1.0, rel=1e-9)


def test_reduce_rejects_degenerate_input():
    # g i overflows (1e200, 1e170), or its y^2 underflows (1e-85); either is
    # refused with one ReductionError and no float warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e200, 1e170, 1e-85):
            with pytest.raises(ReductionError):
                reduce(GroupElement(s, 0.0, 0.0, 1.0 / s))


def test_reduce_points_extreme_heights_keep_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or 0/0 warning fails the test
        # y^2 past the float range: y >= 1 never inverts, so it is not formed
        got = reduce_points([0.25, -0.3], [1e300, 1.7e308])
        assert got[0].tolist() == [0.25, -0.3] and got[1].tolist() == [1e300, 1.7e308]
        # from y = 2^-537 up y^2 is not 0, and S inverts exactly
        x, y, *word = reduce_points(0.0, 2.0**-537)
        assert y[0] == 2.0**537 and [w[0] for w in word] == [0.0, -1.0, 1.0, 0.0]
        with pytest.raises(ReductionError, match="2\\^-537"):
            reduce_points(0.0, 2.0**-538)


def _assert_kernel_matches_reference(x, y):
    want = [reduce_xy_reference(float(a), float(b)) for a, b in zip(x, y)]
    exact = np.array([max(abs(m) for m in w[2:]) < 2**53 for w in want])
    for i in np.flatnonzero(~exact):  # words float64 cannot hold: refused
        with pytest.raises(ReductionError):
            reduce_points(x[i], y[i])
    x, y = x[exact], y[exact]
    want = [w for w, ok in zip(want, exact) if ok]
    got = reduce_points(x, y)
    want_x = np.array([w[0] for w in want])
    want_y = np.array([w[1] for w in want])
    # bitwise: same bits, signed zeros included
    assert np.array_equal(got[0].view(np.int64), want_x.view(np.int64))
    assert np.array_equal(got[1].view(np.int64), want_y.view(np.int64))
    for j in range(4):
        assert np.array_equal(got[2 + j], np.array([w[2 + j] for w in want], dtype=float))
    return int((~exact).sum())


def test_reduce_points_matches_scalar_reference_bitwise():
    r = rng(20)
    n = 20_000
    x = r.uniform(-1e4, 1e4, n)
    y = np.exp(r.uniform(math.log(1e-12), math.log(1e3), n))
    x[: n // 4] = r.uniform(-3.0, 3.0, n // 4)  # shallow reductions
    # deep in the cusp, word entries up to ~|x| / sqrt(y)
    deep = slice(n // 4, n // 2)
    x[deep] = r.uniform(-1.0, 1.0, n // 4)
    y[deep] = np.exp(r.uniform(math.log(1e-30), math.log(1e-12), n // 4))
    x[-10:], y[-10:] = -0.0, 1e-30  # signed zero at the deepest y
    refused = _assert_kernel_matches_reference(x, y)
    assert refused < n // 100


def test_reduce_points_ties_and_unit_circle():
    r = rng(21)
    # |x| = 1/2 and half-integers: translation ties go to even, like round()
    ks = r.integers(-1000, 1000, 2000).astype(float)
    x = np.concatenate([[0.5, -0.5, 1.5, -1.5, 2.5], ks + 0.5, ks - 0.5])
    y = np.concatenate([[0.9, 0.9, 0.2, 1e-3, 1.0], r.uniform(1e-6, 2.0, 4000)])
    _assert_kernel_matches_reference(x, y)
    # |z|^2 at the inversion threshold 1 - 1e-12 and its float neighbours
    xs = r.uniform(-0.5, 0.5, 2000)
    ys = np.sqrt(1.0 - 1e-12 - xs * xs)
    x = np.concatenate([xs, xs, xs, [0.0, 0.5, -0.5]])
    y = np.concatenate([ys, np.nextafter(ys, 0.0), np.nextafter(ys, 2.0),
                        [math.sqrt(1.0 - 1e-12), math.sqrt(0.75 - 1e-12),
                         math.sqrt(0.75 - 1e-12)]])
    _assert_kernel_matches_reference(x, y)


def test_reduce_points_batching_and_empty_input():
    r = rng(22)
    x = r.uniform(-50.0, 50.0, 300)
    y = np.exp(r.uniform(math.log(1e-8), 1.0, 300))
    whole = reduce_points(x, y)
    for i in (0, 17, 299):
        one = reduce_points(x[i], y[i])
        assert all(a[i] == b[0] for a, b in zip(whole, one))
    assert all(a.size == 0 for a in reduce_points([], []))


def test_reduce_points_refuses_inexact_words():
    golden_x = (math.sqrt(5.0) - 1.0) / 2.0
    # the scalar loop returns word entries ~1.4e17 here, past float64's 2^53
    assert max(abs(m) for m in reduce_xy_reference(golden_x, 1e-34)[2:]) > 2**53
    with pytest.raises(ReductionError, match="2\\^53"):
        reduce_points([0.1, golden_x], [1.0, 1e-34])
    for x, y in ((math.nan, 1.0), (0.0, math.inf), (0.3, 0.0), (0.3, -1.0)):
        with pytest.raises(ReductionError):
            reduce_points(x, y)


def test_lattice_min_sq_matches_scalar_reference():
    r = rng(23)
    n = 100_000
    u1, u2, v1, v2 = r.normal(size=(4, n)) * np.exp(r.uniform(-8.0, 8.0, (4, n)))
    # near-degenerate: v = m u + a vector 1e-8..1e-2 times as long as u
    deg = slice(0, n // 2)
    m = r.integers(-10**5, 10**5, n // 2).astype(float)
    tiny = np.hypot(u1[deg], u2[deg]) * np.exp(r.uniform(math.log(1e-8), math.log(1e-2), n // 2))
    v1[deg] = m * u1[deg] + tiny * r.normal(size=n // 2)
    v2[deg] = m * u2[deg] + tiny * r.normal(size=n // 2)
    # exact ties of the Gauss coefficient: (u . v) / |v|^2 = k + 1/2
    u1[:8], u2[:8] = [0.5, 1.5, 2.5, -0.5, -1.5, 3.5, 0.5, 7.5], 1.0
    v1[:8], v2[:8] = 1.0, 0.0
    got = lattice_min_sq(u1, u2, v1, v2)
    want = np.array([lattice_min_sq_reference(*map(float, b)) for b in zip(u1, u2, v1, v2)])
    assert np.array_equal(got, want)
    assert lattice_min_sq([], [], [], []).size == 0
    with pytest.raises(ReductionError):
        lattice_min_sq(1.0, math.inf, 0.0, 1.0)
    with pytest.raises(ReductionError):
        lattice_min_sq(1.0, 2.0, 3.0, 6.0)  # dependent basis


def test_sample_sparse_blocks_concatenate():
    from homodyn.orbits import _CHUNK, horocycle_points, sample_sparse
    from homodyn.psl2 import golden_ratio, slope_base

    p = reduce(slope_base(golden_ratio))
    n = 2 * _CHUNK + 1
    series = sample_sparse(p, 0.01, n)
    blocks = [horocycle_points(p, series.times[lo:lo + _CHUNK]) for lo in (0, _CHUNK, 2 * _CHUNK)]
    for got, part in zip((series.xs, series.ys, series.thetas), zip(*blocks)):
        assert np.array_equal(got, np.concatenate(part))
    # each point as the scalar loop reduces it, from the same float time
    r11, r12, r21, r22 = p.rep.entries
    for i in (0, 1, _CHUNK - 1, _CHUNK, n - 1):
        t = float(series.times[i])
        h12, h22 = r11 * t + r12, r21 * t + r22
        den = r21 * r21 + h22 * h22
        x, y, m11, m12, m21, m22 = reduce_xy_reference((r11 * r21 + h12 * h22) / den, 1.0 / den)
        assert (series.xs[i], series.ys[i]) == (x, y)
        theta = math.atan2(m21 * r11 + m22 * r21, m21 * h12 + m22 * h22) % math.pi
        assert series.thetas[i] == pytest.approx(theta, abs=1e-15)


@pytest.mark.parametrize("h", [1.25, 2.0])
@pytest.mark.parametrize("y", [1e-3, 1e-4])
def test_closed_horocycle_heights_follow_the_farey_arcs(y, h):
    # the midpoints x + iy of the closed horocycle whose reduced height is at
    # least h are exactly those inside the Farey arcs |x - a/c| < l_c, gcd(a,
    # c) = 1; only points within 1e-12 of an arc end are excused
    m = round(20.0 / y)
    x = (np.arange(m) + 0.5) / m
    high = reduce_points(x, np.full(m, y))[1] >= h
    inside = np.zeros(m, dtype=bool)
    near_end = np.zeros(m, dtype=bool)
    c_top = math.isqrt(int(1.0 / (h * y))) + 1  # past the last arc
    phi = totients(c_top)
    arcs = 1  # the arc about 0/1 = 1/1 is cut in two by the period
    for c in range(1, c_top + 1):
        radius = farey_arc_radius(float(c), y, h)
        a = np.rint(x * c)  # arcs of one c are disjoint: only the nearest a/c can hold x
        gap = np.abs(x - a / c)
        primitive = np.gcd(a.astype(np.int64), c) == 1
        inside |= primitive & (gap < radius)
        near_end |= primitive & (np.abs(gap - radius) < 1e-12)
        arcs += int(phi[c]) if radius > 0.0 else 0
    assert high.any() and (~high).any()
    assert near_end.sum() <= 2, near_end.sum()
    assert np.array_equal(high[~near_end], inside[~near_end])
    # each arc holds its length times m midpoints, give or take one
    assert abs(high.mean() - closed_horocycle_band(y, h)) <= arcs / m
