"""Tree families, slope packing, the dimension lower bound, cover sums,
closed forms."""

import math
from fractions import Fraction

import pytest

from homodyn.fractal import (
    EmptyLevelError,
    _child_endpoints_int,
    _sector_children,
    assembled_dimension,
    build_tree,
    cover_sum,
    dimension_lower_bound,
)

from helpers import sector_children_reference


def test_single_level_tree_is_root():
    fam = build_tree(1.0, 0.0, 1, [50.0])
    assert fam.levels[0] == [(Fraction(0), Fraction(1))]
    assert fam.level_count() == 1
    assert len(fam.levels[1]) > 0


def test_two_level_tree_kappa_one():
    from bisect import bisect_right

    fam = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    # every level-1 interval received children (construction would raise)
    assert len(fam.levels[2]) >= len(fam.levels[1])
    # containment and disjointness at every level (parents are sorted)
    for parents, children in zip(fam.levels, fam.levels[1:]):
        lows = [float(lo) for lo, _ in parents]
        for c_lo, c_hi in children:
            i = bisect_right(lows, float(c_lo) + 1e-15) - 1
            lo, hi = parents[max(i, 0)]
            assert lo <= c_lo and c_hi <= hi
        for (a_lo, a_hi), (b_lo, b_hi) in zip(children, children[1:]):
            assert a_hi <= b_lo
    assert fam.exact
    # diameters strictly decreasing, densities in (0, 1]
    assert all(d2 < d1 for d1, d2 in zip(fam.diameters, fam.diameters[1:]))
    assert all(0.0 < d <= 1.0 for d in fam.densities)


def test_tree_determinism():
    a = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    b = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    assert a.levels == b.levels


def test_tree_matches_brute_force_packing():
    # the level-2 children of every level-1 parent are exactly the
    # brute-force packing of that parent at the same sector scale
    fam = build_tree(1.0, 0.0, 2, [10.0, 300.0])
    matched = 0
    for lo, hi in fam.levels[1]:
        got = [iv for iv in fam.levels[2] if lo <= iv[0] and iv[1] <= hi]
        assert got == sector_children_reference(lo, hi, 300.0, 2)
        matched += len(got)
    assert matched == len(fam.levels[2])


def _half_parent_children(l):
    # children of the parent interval around 1/2 for kappa = 1 (exponent 2)
    parent = _child_endpoints_int(1, 2, 2)
    return parent, _sector_children(l, parent, 2, True)


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
    bound = dimension_lower_bound(([1.0, 1.0], [1.0, 0.5, 0.25]), ambient_dim=1.0)
    assert bound.value == 1.0
    assert bound.series == (1.0, 1.0)


def test_dimension_bound_two_level_arithmetic():
    # Delta_0 = 1/4, d_1 = 1/16 -> 1 - log 4 / log 16 = 1/2
    bound = dimension_lower_bound(([0.25], [1.0, 1.0 / 16.0]))
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
    fam = build_tree(1.0, 0.0, 2, [50.0, 2500.0])
    l_last = fam.l_schedule[-1]
    for lo, hi in fam.levels[-1][:200]:
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
    assert abs(b.partial - a.partial) <= 0.05 * b.total
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
