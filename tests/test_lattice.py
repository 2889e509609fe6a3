"""Primitive vector enumeration, sector counts, gaps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homodyn.lattice import (
    _BLOCK,
    CapacityError,
    SectorError,
    SectorQuery,
    coprime_mask,
    enumerate_orbit,
    gap_constants,
    primes_upto,
    primitive_count,
    sector_count,
)

from helpers import (
    gamma_to_element,
    gap_constants_reference,
    primitive_pairs_reference,
    rng,
    vector_act,
)


def brute_primitive_pairs(R):
    """Oracle: dumb double loop over the square grid."""
    out = set()
    n = int(R) + 1
    for b in range(0, n):
        for a in range(-n, n + 1):
            if a * a + b * b > R * R:
                continue
            if b == 0:
                if a > 0 and a == math.gcd(a, 0):
                    if a == 1:
                        out.add((a, b))
                continue
            if math.gcd(abs(a), b) == 1:
                out.add((a, b))
    return out


def test_enumerate_small_radii():
    s = enumerate_orbit(1.0)
    assert set(zip(s.alphas.tolist(), s.betas.tolist())) == {(1, 0), (0, 1)}
    s = enumerate_orbit(2.3)
    assert set(zip(s.alphas.tolist(), s.betas.tolist())) == {
        (1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
    }


def test_enumerate_matches_brute_force():
    for R in (5.0, 17.3):
        s = enumerate_orbit(R)
        assert set(zip(s.alphas.tolist(), s.betas.tolist())) == brute_primitive_pairs(R)


def test_enumerate_density():
    s = enumerate_orbit(1000.0)
    # primitive density 6/pi^2 on the half-plane: count/R^2 -> 3/pi
    assert len(s) / 1e6 == pytest.approx(3.0 / math.pi, rel=0.02)


def test_enumerate_nested_and_guarded():
    s1 = enumerate_orbit(30.0)
    s2 = enumerate_orbit(50.0)
    small = set(zip(s1.alphas.tolist(), s1.betas.tolist()))
    big = set(zip(s2.alphas.tolist(), s2.betas.tolist()))
    assert small <= big
    with pytest.raises(CapacityError):
        enumerate_orbit(2e5)


def test_members_are_group_orbit():
    # every member solves alpha*d - beta*b = 1 for some integer (b, d):
    # spot-check via extended gcd and the group action on (1, 0)
    s = enumerate_orbit(40.0)
    r = rng(21)
    idx = r.integers(0, len(s), 100)
    for i in idx:
        a, b = int(s.alphas[i]), int(s.betas[i])
        g, x, y = math.gcd(abs(a), abs(b)), 0, 0
        assert math.gcd(abs(a), abs(b)) == 1 if (a, b) != (1, 0) else True
        # Bezout: find (x, y) with a*y - b*x = 1 -> matrix (a x; b y) in the group
        # use python ints via extended euclid
        def egcd(p, q):
            if q == 0:
                return (p, 1, 0)
            d, u, v = egcd(q, p % q)
            return (d, v, u - (p // q) * v)
        d, u, v = egcd(abs(a), abs(b))
        assert d == 1
        U = u if a >= 0 else -u
        V = v if b >= 0 else -v
        assert a * U + b * V == 1
        # gamma = (a, -V; b, U) has det 1 and maps (1, 0) to (a, b)
        m = gamma_to_element((a, -V, b, U))
        va, vb = vector_act(m, (1.0, 0.0))
        # vector_act canonicalizes by first coordinate, the set by second:
        # compare modulo the common sign
        assert (va, vb) == (float(a), float(b)) or (va, vb) == (float(-a), float(-b))


def test_sector_counts():
    s = enumerate_orbit(2000.0)
    assert sector_count(s, SectorQuery(900.0, 0.7, 0.7)) == 0
    # spec-level sector: l = 1000, theta in [pi/4, pi/2]
    n = sector_count(s, SectorQuery(1000.0, math.pi / 4.0, math.pi / 2.0))
    expect = (3.0 / 2.0) * 1e6 * (math.pi / 4.0) * (6.0 / math.pi**2)
    assert n == pytest.approx(expect, rel=0.03)
    assert n == pytest.approx(716200, rel=0.03)


def test_sector_count_brute_oracle():
    R = 120.0
    s = enumerate_orbit(R)
    q = SectorQuery(55.0, 0.3, 1.1)
    brute = 0
    for a, b in brute_primitive_pairs(R):
        r = math.hypot(a, b)
        th = math.atan2(b, a)
        if 55.0 <= r <= 110.0 and 0.3 < th < 1.1:
            brute += 1
    assert sector_count(s, q) == brute


def test_sector_ratio_stability():
    s = enumerate_orbit(2000.0)
    dtheta = math.pi / 4.0
    ratios = []
    for l in (250.0, 500.0, 1000.0):
        n = sector_count(s, SectorQuery(l, math.pi / 4.0, math.pi / 2.0))
        ratios.append(n / (l * l * dtheta))
    assert max(ratios) / min(ratios) <= 1.10


def test_sector_partition_sums_to_annulus():
    # no integer vector sits on a pi/8 grid angle inside this annulus, so the
    # eight strict sectors partition it exactly
    s = enumerate_orbit(600.0)
    l = 250.0
    total = sector_count(s, SectorQuery(l, 0.0, math.pi))
    edges = np.linspace(0.0, math.pi, 9)
    parts = sum(
        sector_count(s, SectorQuery(l, float(t1), float(t2)))
        for t1, t2 in zip(edges, edges[1:])
    )
    assert parts == total


def test_sector_rejections():
    s = enumerate_orbit(100.0)
    with pytest.raises(SectorError):
        sector_count(s, SectorQuery(80.0, 0.0, 1.0))  # 2l beyond radius
    with pytest.raises(SectorError):
        sector_count(s, SectorQuery(10.0, 1.0, 3.5))  # crosses the half-plane
    with pytest.raises(SectorError, match="canonical half-plane"):
        primitive_count(SectorQuery(10.0, 1.0, 3.5))


def test_enumerate_and_sector_count_memory():
    # the pair stream fills two preallocated int64 columns block by block,
    # and the sector test runs per block: the peak is two 8-byte arrays over
    # the vectors, the coprime mask and one block (eight 8-byte arrays of
    # _BLOCK)
    enumerate_orbit(10.0)
    sector_count(enumerate_orbit(10.0), SectorQuery(2.0, 0.1, 1.0))
    tracemalloc.start()
    try:
        s = enumerate_orbit(800.0)
        q = SectorQuery(400.0, math.pi / 4.0, math.pi / 2.0)
        n = sector_count(s, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) > 8 * _BLOCK  # several blocks
    assert peak <= 2 * 8 * len(s) + 800 * 1601 + 8 * 8 * _BLOCK, peak
    # the blocked count is the full-array one
    a, b = s.alphas.astype(float), s.betas.astype(float)
    r2, theta = a * a + b * b, np.arctan2(b, a)
    assert n == int(((r2 >= q.l**2) & (r2 <= 4.0 * q.l**2)
                     & (theta > q.theta1) & (theta < q.theta2)).sum())


def test_gap_constants():
    # the theorem's (1, 1) against the arctan2 sort-and-scan over the members
    for R in (1.0, 1.5, 2.0, 7.7, 60.0, 800.0):
        s = enumerate_orbit(R)
        assert gap_constants() == gap_constants_reference(s) == (1.0, 1.0), R


def test_primes_upto():
    naive = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    assert primes_upto(199).tolist() == naive
    assert primes_upto(0).tolist() == [] and primes_upto(1).tolist() == []
    assert primes_upto(2).tolist() == [2]


@pytest.mark.parametrize("N,M", [(10, 10), (11, 11), (1000, 1000), (7, 3), (1, 5), (12, 0)])
def test_coprime_mask_matches_gcd(N, M):
    mask = coprime_mask(N, M)
    n = np.arange(1, N + 1)[:, None]
    m = np.arange(-M, M + 1)[None, :]
    assert mask.shape == (N, 2 * M + 1)
    assert np.array_equal(mask, np.gcd(np.abs(m), n) == 1)
    assert mask[0].all()  # n = 1 row: every m
    assert mask[:, M].tolist() == [True] + [False] * (N - 1)  # m = 0 column: n = 1 only


@pytest.mark.parametrize("R", [1.0, 10.0, 11.0, 1000.0, 1000.5])
def test_enumerate_matches_gcd_loop(R):
    # same pairs, same (beta, alpha) order as the per-row np.gcd loop
    s = enumerate_orbit(R)
    m, n = primitive_pairs_reference(int(R))
    inside = m * m + n * n <= R * R
    assert np.array_equal(s.alphas, m[inside]) and np.array_equal(s.betas, n[inside])


def _oracle_count(q, theta=np.arctan2):
    """The annular sector's members among enumerate_orbit(2l), by the float
    tests on the whole arrays; theta is the angle function applied to
    (betas, alphas)."""
    s = enumerate_orbit(max(1.0, 2.0 * q.l))
    a, b = s.alphas.astype(float), s.betas.astype(float)
    r2, th = a * a + b * b, np.asarray(theta(b, a))
    return int(((r2 >= q.l * q.l) & (r2 <= 4.0 * q.l * q.l)
                & (th > q.theta1) & (th < q.theta2)).sum())


def _math_atan2(b, a):
    return [math.atan2(y, x) for y, x in zip(b.tolist(), a.tolist())]


@pytest.mark.parametrize("l, theta1, theta2, expect", [
    (1.0, math.pi / 4, math.pi / 2, 0),  # (1, 1) on the ray theta1, inside the annulus
    (1.0, 0.0, math.pi, 3),  # (1, 1), (0, 1), (-1, 1); (1, 0) has theta 0
    (1.5, math.atan2(1, 2), math.pi / 2, 1),  # (2, 1) on the ray theta1: (1, 2) only
    (1.5, 0.0, math.atan2(1, 2), 0),  # (2, 1) on the ray theta2
    (5.0, 0.0, math.pi, None),  # (±3, 4) and (±4, 3) on the inner circle
    (5.0, 0.9, 0.95, 1),  # (3, 4) on the inner circle, (6, 8) not primitive
    (2.5, 0.0, math.pi, None),  # the same on the outer circle, 4l^2 = 25
    (2.5, 0.9, 0.95, 1),
    (0.5, 0.0, math.pi, 1),  # 2l = 1: (0, 1) on the outer circle only
    (0.5, math.pi / 2, math.pi / 2, 0),  # theta1 = theta2: an empty sector
    (30.0, 1.0, 1.0, 0),
    (2.0, math.pi / 4, math.pi / 4, 0),
])
def test_primitive_count_edge_cases(l, theta1, theta2, expect):
    q = SectorQuery(l, theta1, theta2)
    got = primitive_count(q)
    assert got == _oracle_count(q) == _oracle_count(q, _math_atan2)
    if expect is not None:
        assert got == expect


# sector scales l <= 150: any float, integers and half-integers (circles
# through lattice points), and square roots of integers (l*l rounds near n)
_L = st.one_of(st.floats(0.01, 150.0), st.integers(1, 300).map(lambda k: k / 2.0),
               st.integers(1, 22500).map(math.sqrt))
# rays through lattice points, the angles math.atan2 gives them
_RAY = st.tuples(st.integers(-40, 40), st.integers(0, 40)).filter(
    lambda v: v != (0, 0)).map(lambda v: math.atan2(v[1], v[0]))


def _sector(draw, theta):
    l = draw(_L)
    t1, t2 = sorted((draw(theta), draw(theta)))
    return SectorQuery(l, t1, t2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_primitive_count_matches_the_arctan2_oracle(data):
    theta = st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi]))
    q = _sector(data.draw, theta)
    assert primitive_count(q) == _oracle_count(q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_primitive_count_on_rays_through_lattice_points(data):
    # on a ray the strict test decides a member by its float angle: the one
    # math.atan2 gives.  numpy's arctan2 may differ from it by an ulp (its
    # SIMD loop on some CPUs), so the oracle here applies math.atan2
    q = _sector(data.draw, st.one_of(_RAY, st.floats(0.0, math.pi)))
    assert primitive_count(q) == _oracle_count(q, _math_atan2)
