"""Continued fractions, type estimates, point conditions, exponent chains."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from homodyn.diophantine import (
    DivergentOrbitError,
    OpenExcursionError,
    cf_expand,
    cf_from_quotients,
    excursion_type_estimate,
    exponent_bundle,
    planted_quotients,
    point_type_check,
    type_estimate,
)
from homodyn.lattice import _BLOCK, CapacityError, coprime_mask, pair_blocks
from homodyn.psl2 import diagonal_flow, identity, slope_base, unipotent
from homodyn.surface import reduce

from helpers import (
    cf_expand_reference,
    point_type_check_reference,
    primitive_pairs_reference,
    random_element,
    rng,
    type_estimate_exact,
    violations,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_cf_expand_golden_all_ones():
    cf = cf_expand(GOLDEN, 10)
    assert cf.quotients[0] == 1
    assert all(a == 1 for a in cf.quotients[1:])
    assert len(cf.quotients) == 11  # ran to full depth


def test_cf_expand_sqrt2():
    cf = cf_expand(math.sqrt(2.0), 8)
    assert cf.quotients[0] == 1
    assert all(a == 2 for a in cf.quotients[1:])


def test_cf_expand_rational_terminates():
    cf = cf_expand(0.5, 5)
    assert cf.quotients == (0, 2)


def _cf_triple(cf, depth):
    """The reference's (quotients, convergents, terminated): an expansion
    stopped early holds fewer than depth + 1 quotients."""
    return list(cf.quotients), list(cf.convergents), len(cf.quotients) <= depth


def test_cf_expand_matches_reference(monkeypatch):
    r = np.random.default_rng(7)
    xs = [math.pi, -math.e, GOLDEN, 0.5, 3.0, -2.5, 1.0 / 3.0, 355.0 / 113.0, 1e-9,
          123456.789, 2.0**-40] + list(r.uniform(-50.0, 50.0, 200)) \
        + list(r.uniform(0.0, 1e-3, 50))
    for x in xs:
        for depth in (1, 3, 12, 60):  # short depths stop unterminated
            assert _cf_triple(cf_expand(x, depth), depth) == cf_expand_reference(x, depth), x
    # the noise-floor exit and the rational exit
    assert _cf_triple(cf_expand(math.pi, 60), 60)[2] and _cf_triple(cf_expand(0.5, 60), 60)[2]
    assert not _cf_triple(cf_expand(math.pi, 3), 3)[2]
    # the denominator-guard exit, which a float reaches only past its noise
    # floor at the real guard, so test it at a lowered one
    import homodyn.diophantine as dio
    monkeypatch.setattr(dio, "_Q_GUARD", 10**6)
    for x in (math.pi, math.sqrt(2.0), GOLDEN, -math.e):
        cf = cf_expand(x, 60)
        assert len(cf.quotients) <= 60 and cf.convergents[-1][1] > 10**6
        assert _cf_triple(cf, 60) == cf_expand_reference(x, 60, q_guard=10**6)


def test_convergent_recurrence_and_alternation():
    cf = cf_expand(math.pi, 12)
    p_prev2, q_prev2 = 1, 0
    p_prev, q_prev = cf.convergents[0]
    for a, (p, q) in zip(cf.quotients[1:], cf.convergents[1:]):
        assert p == a * p_prev + p_prev2 and q == a * q_prev + q_prev2
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
    # denominators strictly increase, errors strictly decrease
    qs = [q for _, q in cf.convergents]
    assert all(q2 > q1 for q1, q2 in zip(qs[1:], qs[2:]))
    errs = [abs(q * math.pi - p) for p, q in cf.convergents]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # |q_n x - p_n| < 1/q_{n+1}
    for (p, q), (_, q_next) in zip(cf.convergents, cf.convergents[1:]):
        assert abs(q * math.pi - p) < 1.0 / q_next


def test_type_estimate_bounded_quotient_numbers():
    # badly approximable numbers have exponent 1; finite depth reads slightly
    # above it (frozen oracle values from the convergent data itself)
    z_golden = type_estimate(cf_expand(GOLDEN, 20)).value
    assert z_golden == pytest.approx(1.0, abs=0.1)
    z_sqrt2 = type_estimate(cf_expand(math.sqrt(2.0), 20)).value
    assert z_sqrt2 == pytest.approx(1.0, abs=0.1)
    assert z_golden >= 1.0 - 0.02 and z_sqrt2 >= 1.0 - 0.02


def test_type_estimate_planted_spike():
    # plant a_{n+1} ~ q_n^2: the series shows ~3 at that index
    quots = [0, 2, 3, 5]
    conv = cf_from_quotients(quots).convergents
    q3 = conv[-1][1]
    planted = cf_from_quotients(quots + [q3 * q3])
    est = type_estimate_exact(planted)
    spike = dict(((n, z) for n, q, z in est.series))
    # the spike shows at the index whose error is 1/q_{next} ~ q^-3
    assert spike[len(quots) - 1] == pytest.approx(3.0, abs=0.1)


def test_type_estimate_planted_types():
    for zeta in (2.0, 3.0):
        cf = cf_from_quotients(planted_quotients(zeta))
        assert type_estimate_exact(cf).value == pytest.approx(zeta, abs=0.25)


def test_planted_quotients_refuse_a_rational():
    # up to zeta = 29 a quotient is planted below q = 10^9; past ~29.9 the
    # first one overshoots, and the bare [0, 2] would be 1/2, so it raises
    for zeta in range(1, 30):
        quots = planted_quotients(zeta)
        assert len(quots) > 2 and cf_from_quotients(quots).convergents[-1][1] <= 10**9
    assert planted_quotients(29.5)[2] == round(2 ** 28.5)
    for zeta in (29.9, 30, 40, 1000, 2000, 1e300):
        with pytest.raises(ValueError):
            planted_quotients(zeta)


def test_exact_type_estimate_matches_fraction_path():
    # the exact estimator reads p_N / q_N off the last convergent: the
    # integers, and the float image, of the Fraction(p_N, q_N) it replaces
    r = rng(5)
    lists = [planted_quotients(z) for z in (1.0, 2.0, 3.0, 7.5)]
    lists += [[0] + r.integers(1, 50, 12).tolist() for _ in range(20)]
    for quots in lists:
        cf = cf_from_quotients(quots)
        val = Fraction(*cf.convergents[-1])
        assert cf.x == float(val)
        want = tuple(
            (n, q, -(math.log(abs(q * val.numerator - p * val.denominator))
                     - math.log(val.denominator)) / math.log(q))
            for n, (p, q) in enumerate(cf.convergents)
            if q >= 2 and q * val.numerator != p * val.denominator)
        assert type_estimate_exact(cf).series == want


def test_type_estimate_dirichlet_floor():
    for x in (GOLDEN, math.sqrt(2.0), math.pi, 0.37193):
        est = type_estimate(cf_expand(x, 18))
        assert est.value >= 1.0 - 0.02
        assert all(z >= 1.0 - 0.02 for _, _, z in est.series)


def test_point_type_check_identity_has_axis_vector():
    (witness,) = point_type_check(reduce(identity()), 1.0, 30)
    assert (1, 0) in witness.axis_vectors


def test_point_type_check_sqrt2_slope():
    p = reduce(slope_base(math.sqrt(2.0)))
    (witness,) = point_type_check(p, 1.0, 1000)
    _, a_comp, b_comp = point_type_check_reference(p, 1.0, 1000)
    assert not witness.axis_vectors
    assert violations(1.0, 0.1, 0.1, a_comp, b_comp) == 0
    assert witness.symmetric > 0.1


def test_point_type_check_AN_translate_same_class():
    p = reduce(slope_base(GOLDEN))
    (w0,) = point_type_check(p, 1.0, 1000)
    _, a0, b0 = point_type_check_reference(p, 1.0, 1000)
    translate = reduce(p.rep @ unipotent(0.7) @ diagonal_flow(0.6))
    (w1,) = point_type_check(translate, 1.0, 1000)
    _, a1, b1 = point_type_check_reference(translate, 1.0, 1000)
    assert not w0.axis_vectors and not w1.axis_vectors
    # same class: both pass a fixed pair (constants may differ by a factor)
    assert violations(1.0, 0.05, 0.05, a0, b0) == 0
    assert violations(1.0, 0.05, 0.05, a1, b1) == 0


def test_excursion_estimate_bounded_orbit_reports_one():
    p = reduce(slope_base(GOLDEN))
    kappa, peaks = excursion_type_estimate(p, 40.0)
    assert kappa == pytest.approx(1.0, abs=0.1)


def test_excursion_estimate_divergent_orbit():
    with pytest.raises(DivergentOrbitError):
        excursion_type_estimate(reduce(identity()), 20.0)


def test_excursion_estimate_planted_types():
    for zeta, tol in ((2.0, 0.3), (3.0, 0.3)):
        x = cf_from_quotients(planted_quotients(zeta)).x
        p = reduce(slope_base(x))
        kappa, peaks = excursion_type_estimate(p, 40.0)
        assert kappa == pytest.approx(zeta, abs=tol)


def test_excursion_and_convergent_estimates_agree():
    for zeta in (1.0, 2.0, 3.0):
        quots = planted_quotients(zeta)
        cf = cf_from_quotients(quots)
        z_conv = type_estimate_exact(cf).value
        p = reduce(slope_base(cf.x))
        z_exc, _ = excursion_type_estimate(p, 40.0)
        assert abs(z_exc - z_conv) <= 0.3


def test_exponent_bundle_values():
    b = exponent_bundle(0.5, [1.0], epsilon=0.0)
    assert b.gamma0_spectral == pytest.approx(1.0 / 90.0, rel=1e-12)
    assert b.gamma0_progression == pytest.approx(1.0 / 90.0, rel=1e-12)
    assert b.beta == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert abs(b.gamma0_spectral - b.gamma0_progression) < 1e-12


def test_exponent_bundle_min_over_cusps():
    b = exponent_bundle(0.5, [1.0, 3.0], epsilon=0.0)
    assert b.gamma0_spectral == pytest.approx(0.25 / (4.5 * 7.0), rel=1e-12)


def test_exponent_bundle_validation():
    with pytest.raises(ValueError):
        exponent_bundle(0.9, [1.0])
    with pytest.raises(ValueError):
        exponent_bundle(0.5, [0.5])
    with pytest.raises(ValueError):
        exponent_bundle(0.5, [1.0], epsilon=1.5)


def test_excursion_profile_bounded_for_badly_approximable_slope():
    # the gated profile of a bounded-type direction stays bounded (here the
    # orbit never even enters the gate region up to the reliable horizon)
    from homodyn.surface import excursion_profile

    p = reduce(slope_base(GOLDEN))
    ts, vals = excursion_profile(p, 35.0, 1401)
    assert float(vals.max()) <= 3.0


@pytest.mark.parametrize("bound", [10, 11, 180, 181, 1000])
def test_primitive_pairs_sieve_matches_gcd_loop(bound):
    # the whole mask is one block of rows up to bound 180, several from 181
    blocks = list(pair_blocks(coprime_mask(bound, bound), bound))
    assert (len(blocks) == 2) == (bound <= 180)  # (1, 0), then the row blocks
    m, n = (np.concatenate(cols) for cols in zip(*blocks))
    ref_m, ref_n = primitive_pairs_reference(bound)
    assert np.array_equal(m, ref_m) and np.array_equal(n, ref_n)
    assert (m[0], n[0]) == (1, 0)
    assert m[n == 1].tolist() == list(range(-bound, bound + 1))  # n = 1 row
    assert n[m == 0].tolist() == [1]  # m = 0 column: (0, 1) only


@pytest.mark.parametrize("bound", [6500, 9999, 100000])
def test_primitive_pairs_guarded(bound):
    # ~0.61 (2N+1) N vectors over the count guard: refused before the sieve
    with pytest.raises(CapacityError):
        point_type_check(reduce(slope_base(GOLDEN)), 1.0, bound)


# the largest bound whose whole coprime mask is one block of the search
_ONE_BLOCK = max(b for b in range(10, 1000) if b * (2 * b + 1) <= _BLOCK)


def _witness_bases():
    r = rng(12)
    named = [identity(), slope_base(GOLDEN), slope_base(math.sqrt(2.0)),
             slope_base(math.e),
             slope_base(cf_from_quotients(planted_quotients(2.0)).x)]
    return named + [random_element(r), random_element(r)]


@pytest.mark.parametrize("bound", [10, _ONE_BLOCK - 1, _ONE_BLOCK, _ONE_BLOCK + 1,
                                   _ONE_BLOCK + 2, 1000])
def test_point_type_check_matches_full_array_search(bound):
    # block by block gives the full-array witness exactly, on both sides of
    # the bound where the search first takes a second block
    for g in _witness_bases():
        p = reduce(g)
        for kappa in (1.0, 2.5):
            (witness,) = point_type_check(p, kappa, bound)
            assert witness == point_type_check_reference(p, kappa, bound)[0], (g, kappa)


def test_point_type_check_memory():
    # 1.2e6 vectors at bound 1000 go through in blocks: the peak is the 2 MB
    # coprime mask plus one block, not the seven full-length columns (66 MB)
    p = reduce(slope_base(GOLDEN))
    point_type_check(p, 1.0, 20)
    tracemalloc.start()
    try:
        (witness,) = point_type_check(p, 1.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.vectors_checked > 10**6
    assert peak <= 8 * 10**6, peak


def test_bad_kappa_and_horizon_rejected():
    p = reduce(slope_base(GOLDEN))
    for kappa in (float("nan"), float("inf"), 0.5):
        with pytest.raises(ValueError):
            point_type_check(p, kappa, 30)
    for t_max in (float("nan"), 5.0):
        with pytest.raises(ValueError) as exc:
            excursion_type_estimate(p, t_max)
        assert not isinstance(exc.value, OpenExcursionError)
