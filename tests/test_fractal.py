"""Tree families, slope packing, the dimension lower bound, cover sums,
closed forms."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from homodyn import fractal
from homodyn.fractal import (
    EmptyLevelError,
    _child_endpoints_int,
    _level_children,
    assembled_dimension,
    build_tree,
    cover_sum,
    dimension_lower_bound,
)

from helpers import build_tree_reference, sector_children_reference, tree_endpoints


def test_single_level_tree_is_root():
    fam = build_tree(1.0, 0.0, 1, [50.0])
    assert tree_endpoints(fam, 0, 2) == [(Fraction(0), Fraction(1))]
    assert len(fam.levels) - 1 == 1
    assert len(fam.levels[1]) > 0


def test_two_level_tree_kappa_one():
    from bisect import bisect_right

    fam = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    # every level-1 interval received children (construction would raise)
    assert len(fam.levels[2]) >= len(fam.levels[1])
    # containment and disjointness at every level (parents are sorted)
    levels = [tree_endpoints(fam, j, 2) for j in range(len(fam.levels))]
    for parents, children in zip(levels, levels[1:]):
        lows = [float(lo) for lo, _ in parents]
        for c_lo, c_hi in children:
            i = bisect_right(lows, float(c_lo) + 1e-15) - 1
            lo, hi = parents[max(i, 0)]
            assert lo <= c_lo and c_hi <= hi
        for (a_lo, a_hi), (b_lo, b_hi) in zip(children, children[1:]):
            assert a_hi <= b_lo
    # diameters strictly decreasing, densities in (0, 1]
    assert all(d2 < d1 for d1, d2 in zip(fam.diameters, fam.diameters[1:]))
    assert all(0.0 < d <= 1.0 for d in fam.densities)


def test_tree_determinism():
    a = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    b = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    assert [lv.tolist() for lv in a.levels] == [lv.tolist() for lv in b.levels]


def test_tree_matches_brute_force_packing():
    # the level-2 children of every level-1 parent are exactly the
    # brute-force packing of that parent at the same sector scale
    fam = build_tree(1.0, 0.0, 2, [10.0, 300.0])
    matched = 0
    level2 = tree_endpoints(fam, 2, 2)
    for lo, hi in tree_endpoints(fam, 1, 2):
        got = [iv for iv in level2 if lo <= iv[0] and iv[1] <= hi]
        assert got == sector_children_reference(lo, hi, 300.0, 2)
        matched += len(got)
    assert matched == len(level2)


def _half_parent_children(l):
    # children of the parent interval around 1/2 for kappa = 1 (exponent 2)
    parent = _child_endpoints_int(1, 2, 2)
    children, _, _ = _level_children(l, np.array([[1, 2]]), np.array([2.0**-2]), 2, True, 0)
    return parent, children.tolist()


def test_sector_children_disjoint_and_contained():
    parent, children = _half_parent_children(500.0)
    assert children
    lo, hi = (Fraction(*end) for end in parent)
    ivs = [tuple(Fraction(*end) for end in _child_endpoints_int(a, b, 2))
           for a, b in children]
    assert all(lo <= c_lo and c_hi <= hi for c_lo, c_hi in ivs)
    assert all(a_hi <= b_lo for (_, a_hi), (b_lo, _) in zip(ivs, ivs[1:]))
    # counted at least c0 * l^2 / beta^(kappa+1), beta = 2
    assert len(children) / (500.0**2 / 2.0**2) > 0.05


def test_sector_children_ratio_stability():
    ratios = [len(_half_parent_children(l)[1]) / (l * l / 2.0**2)
              for l in (250.0, 500.0, 1000.0)]
    assert max(ratios) / min(ratios) <= 3.0


# (kappa, eps, schedule): exponent e = 2, 3, 4 and the float exponent 2.5,
# one to three levels; the last five stop with EmptyLevelError, the last
# two at level 1, whose scale is too small for any child
_REFERENCE_CASES = [
    (1.0, 0.0, [50.0]),
    (1.0, 0.0, [10.0, 300.0]),
    (1.0, 0.0, [10.0, 200.0, 4000.0]),
    (2.0, 0.0, [3.0, 400.0]),
    (3.0, 0.0, [2.0, 500.0]),
    (1.0, 0.5, [20.0]),
    (1.0, 0.5, [5.0, 300.0]),
    (3.0, 0.0, [50.0, 2500.0]),
    (1.0, 0.5, [3.0, 60.0, 3000.0]),
    (3.0, 0.0, [2.0, 350.0, 49999.0]),
    (1.0, 0.0, [0.5]),
    (1.0, 0.0, [0.1, 100.0]),
]


def _assert_matches_reference(kappa, eps, schedule, child_guard=fractal._CHILD_GUARD):
    try:
        ref = build_tree_reference(kappa, eps, schedule, child_guard)
    except (EmptyLevelError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            build_tree(kappa, eps, len(schedule), schedule)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    pair_levels, diameters, densities = ref
    fam = build_tree(kappa, eps, len(schedule), schedule)
    assert len(fam.levels) == len(pair_levels)
    for level, pairs in zip(fam.levels, pair_levels):
        assert level.dtype == np.int64 and level.shape == (len(pairs), 2)
        assert level.tolist() == [list(ab) for ab in pairs]
    assert fam.diameters == pytest.approx(diameters, rel=1e-9, abs=0.0)
    assert fam.densities == pytest.approx(densities, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kappa,eps,schedule", _REFERENCE_CASES)
def test_build_tree_matches_scalar_reference(kappa, eps, schedule):
    _assert_matches_reference(kappa, eps, schedule)


@pytest.mark.parametrize("kappa,eps,schedule", _REFERENCE_CASES)
def test_children_disjoint_by_theorem(kappa, eps, schedule):
    # build_tree's proof, level by level: adjacent children a/b < a'/b' lie
    # at least 1/(b b') apart, their half-widths sum to under 0.18/(b b')
    try:
        fam = build_tree(kappa, eps, len(schedule), schedule)
    except EmptyLevelError:
        return
    e = kappa + eps + 1.0
    assert e >= 2.0
    for l, pairs in zip(schedule, fam.levels[1:]):
        a, b = pairs[:, 0], pairs[:, 1]
        assert (l / math.sqrt(2.0) < b).all() and (b <= 2.0 * l).all()
        assert (a[1:] * b[:-1] - a[:-1] * b[1:] >= 1).all()
        b1, b2 = b[:-1].astype(float), b[1:].astype(float)
        assert ((b1**-e + b2**-e) / 18.0 < 0.18 / (b1 * b2)).all()


@pytest.mark.parametrize("guard", [1000, 5000, 60000])
def test_build_tree_guard_matches_scalar_reference(guard, monkeypatch):
    # kappa = 1: the guard trips on the root's level (1000), midway through
    # the second level (5000) or not at all (60000); kappa = 3: an empty
    # parent comes first from 5000 on.  Same error where the scalar loop
    # raises it.
    monkeypatch.setattr(fractal, "_CHILD_GUARD", guard)
    _assert_matches_reference(1.0, 0.0, [50.0, 1200.0], guard)
    _assert_matches_reference(3.0, 0.0, [50.0, 2500.0], guard)


@pytest.mark.parametrize("guard", [300, 340])
def test_build_tree_guard_before_empty_parent(guard, monkeypatch):
    # level 2 of kappa = 2 at l = 250: the fifth of 7 parents is the first
    # without children, and the tree holds 336 intervals before it.  Guard
    # 300 trips on an earlier parent (ValueError); guard 340 reaches the
    # empty parent first (EmptyLevelError), as in the scalar loop.
    monkeypatch.setattr(fractal, "_CHILD_GUARD", guard)
    _assert_matches_reference(2.0, 0.0, [3.0, 250.0], guard)


def test_build_tree_guard_trips_before_level_is_expanded(monkeypatch):
    # the root at l = 5e4 has ~1e9 candidate slopes; the guard stops the
    # build within the first expansion step instead of after all of them
    monkeypatch.setattr(fractal, "_CHILD_GUARD", 10**4)
    with pytest.raises(ValueError, match="interval-count guard"):
        build_tree(1.0, 0.0, 1, [5e4])


def test_build_tree_independent_of_block_sizes(monkeypatch):
    # tiny blocks and candidate steps: many blocks per level, many steps per
    # block, guard and empty-parent checks between them
    monkeypatch.setattr(fractal, "_CELLS", 1000)
    monkeypatch.setattr(fractal, "_CANDIDATES", 64)
    _assert_matches_reference(1.0, 0.0, [10.0, 300.0])
    _assert_matches_reference(1.0, 0.5, [5.0, 300.0])
    _assert_matches_reference(3.0, 0.0, [50.0, 2500.0])
    monkeypatch.setattr(fractal, "_CHILD_GUARD", 3000)
    _assert_matches_reference(1.0, 0.0, [10.0, 300.0], 3000)
    _assert_matches_reference(1.0, 0.0, [300.0], 3000)


def test_endpoints_float_exponent():
    fam = build_tree(1.0, 0.5, 2, [5.0, 300.0])
    assert tree_endpoints(fam, 0, 2.5) == [(0.0, 1.0)]
    for j in (1, 2):
        ends = tree_endpoints(fam, j, 2.5)
        assert len(ends) == len(fam.levels[j])
        for (a, b), (lo, hi) in zip(fam.levels[j].tolist(), ends):
            assert (lo + hi) / 2 == pytest.approx(a / b, abs=1e-15)
            assert hi - lo == pytest.approx(2.0 / 18.0 * b**-2.5, rel=1e-9)


def test_bad_exponents_rejected():
    nan, inf = float("nan"), float("inf")
    for kappa, eps in ((nan, 0.0), (1.0, nan), (inf, 0.0), (1.0, inf), (0.5, 0.0), (1.0, -0.1)):
        with pytest.raises(ValueError):
            build_tree(kappa, eps, 1, [50.0])
    for kappa in (nan, inf, 0.5):
        with pytest.raises(ValueError):
            cover_sum(kappa, 0.5, 100)
        with pytest.raises(ValueError):
            assembled_dimension([1.0, kappa])


def test_cover_sum_totient_sieve_unchanged():
    # partial sums from the former totient loop, bit for bit
    for R in (4, 97, 1000, 10**4):
        phi = np.arange(R + 1, dtype=np.int64)
        for p in range(2, R + 1):
            if phi[p] == p:
                phi[p::p] -= phi[p::p] // p
        b = np.arange(2, R + 1, dtype=float)
        expected = float((phi[2:].astype(float) * (2.0 * b ** -4.0) ** 0.6).sum())
        assert cover_sum(3.0, 0.6, R).partial == expected


def test_empty_level_raises():
    with pytest.raises(EmptyLevelError):
        build_tree(3.0, 0.0, 2, [50.0, 2500.0])


def test_schedule_guards():
    with pytest.raises(ValueError):
        build_tree(1.0, 0.0, 2, [50.0, 125000.0])
    with pytest.raises(ValueError):
        build_tree(1.0, 0.0, 6, [2, 4, 8, 16, 32, 64])
    with pytest.raises(ValueError):
        build_tree(1.0, 0.0, 2, [100.0, 50.0])


def test_dimension_bound_full_density():
    bound = dimension_lower_bound(SimpleNamespace(densities=[1.0, 1.0],
                                                  diameters=[1.0, 0.5, 0.25]))
    assert bound.value == 1.0
    assert bound.series == (1.0, 1.0)


def test_dimension_bound_two_level_arithmetic():
    # Delta_0 = 1/4, d_1 = 1/16 -> 1 - log 4 / log 16 = 1/2
    bound = dimension_lower_bound(SimpleNamespace(densities=[0.25],
                                                  diameters=[1.0, 1.0 / 16.0]))
    assert bound.value == pytest.approx(0.5, rel=1e-12)


def test_dimension_bound_never_exceeds_ambient():
    fam = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    bound = dimension_lower_bound(fam)
    assert bound.value <= 1.0
    assert all(v <= 1.0 for v in bound.series)


def test_deepest_level_certificate():
    # every deepest-level interval is within its own half-width of a slope
    # a/b with b in the last sector band: true by construction, checked on
    # endpoints via the stored interval midpoints
    schedule = [50.0, 2500.0]
    fam = build_tree(1.0, 0.0, 2, schedule)
    l_last = schedule[-1]
    for lo, hi in tree_endpoints(fam, -1, 2)[:200]:
        mid = (lo + hi) / 2  # = a/b by construction
        b = mid.denominator
        assert l_last * math.sqrt(0.5) - 1 <= b <= 2 * l_last
        assert (hi - lo) == 2 * Fraction(1, 18) / Fraction(b) ** 2


def test_cover_sum_threshold_flags():
    for kappa in (1.0, 2.0, 3.0):
        crit = 2.0 / (kappa + 1.0)
        assert not cover_sum(kappa, crit, 1000).convergent  # harmonic-type
        assert not cover_sum(kappa, crit - 0.05, 1000).convergent
        if crit + 0.05 <= 1.0:  # kappa = 1 has its threshold at the delta cap
            assert cover_sum(kappa, crit + 0.05, 1000).convergent


def test_cover_sum_convergent_cauchy():
    a = cover_sum(3.0, 0.6, 1000)
    b = cover_sum(3.0, 0.6, 10000)
    assert abs(b.partial - a.partial) <= 0.05 * (b.partial + b.tail_estimate)
    assert b.partial > a.partial  # monotone in R


def test_cover_sum_divergent_growth():
    # delta (kappa+1) = 1.6 < 2: partial sums grow like R^0.4
    vals = [cover_sum(3.0, 0.4, R).partial for R in (1000, 4000, 16000)]
    slopes = [
        math.log(v2 / v1) / math.log(4.0) for v1, v2 in zip(vals, vals[1:])
    ]
    assert all(s > 0.3 for s in slopes)


def test_assembled_dimension():
    assert assembled_dimension([1.0]) == pytest.approx(3.0)
    assert assembled_dimension([3.0]) == pytest.approx(2.5)
    assert assembled_dimension([1.0, 3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        assembled_dimension([0.5])
