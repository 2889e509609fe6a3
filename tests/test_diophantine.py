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
    planted_quotients,
    point_type_check,
    type_estimate,
)
from homodyn.exponents import exponent_bundle
from homodyn.lattice import CapacityError
from homodyn.psl2 import GroupElement, diagonal_flow, identity, slope_base, unipotent
from homodyn.surface import reduce

from helpers import (
    cf_expand_reference,
    point_type_check_reference,
    random_element,
    rng,
    type_estimate_exact,
    type_series,
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
    z_golden = type_estimate(cf_expand(GOLDEN, 20))
    assert z_golden == pytest.approx(1.0, abs=0.1)
    z_sqrt2 = type_estimate(cf_expand(math.sqrt(2.0), 20))
    assert z_sqrt2 == pytest.approx(1.0, abs=0.1)
    assert z_golden >= 1.0 - 0.02 and z_sqrt2 >= 1.0 - 0.02


def test_type_estimate_planted_spike():
    # plant a_{n+1} ~ q_n^2: the series shows ~3 at that index
    quots = [0, 2, 3, 5]
    conv = cf_from_quotients(quots).convergents
    q3 = conv[-1][1]
    planted = cf_from_quotients(quots + [q3 * q3])
    spike = {n: z for n, q, z in type_series(planted, exact=True)}
    # the spike shows at the index whose error is 1/q_{next} ~ q^-3
    assert spike[len(quots) - 1] == pytest.approx(3.0, abs=0.1)


def test_type_estimate_planted_types():
    for zeta in (2.0, 3.0):
        cf = cf_from_quotients(planted_quotients(zeta))
        assert type_estimate_exact(cf) == pytest.approx(zeta, abs=0.25)


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
        assert type_series(cf, exact=True) == want


def test_type_estimate_dirichlet_floor():
    for x in (GOLDEN, math.sqrt(2.0), math.pi, 0.37193):
        cf = cf_expand(x, 18)
        series = type_series(cf)
        assert type_estimate(cf) == series[-1][2] >= 1.0 - 0.02
        assert all(z >= 1.0 - 0.02 for _, _, z in series)


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
    assert excursion_type_estimate(p, 40.0) == pytest.approx(1.0, abs=0.1)


def test_excursion_estimate_divergent_orbit():
    with pytest.raises(DivergentOrbitError):
        excursion_type_estimate(reduce(identity()), 20.0)


def test_excursion_estimate_planted_types():
    for zeta, tol in ((2.0, 0.3), (3.0, 0.3)):
        x = cf_from_quotients(planted_quotients(zeta)).x
        p = reduce(slope_base(x))
        assert excursion_type_estimate(p, 40.0) == pytest.approx(zeta, abs=tol)


def test_excursion_and_convergent_estimates_agree():
    for zeta in (1.0, 2.0, 3.0):
        quots = planted_quotients(zeta)
        cf = cf_from_quotients(quots)
        z_conv = type_estimate_exact(cf)
        p = reduce(slope_base(cf.x))
        z_exc = excursion_type_estimate(p, 40.0)
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


@pytest.mark.parametrize("bound", [6500, 9999, 100000])
def test_primitive_pairs_guarded(bound):
    # the guard counts a dozen arrays over the rows, not the ~0.61 (2N+1) N
    # primitive pairs of the box: these bounds run, 4,166,667 is refused
    p = reduce(slope_base(GOLDEN))
    (witness,) = point_type_check(p, 1.0, bound)
    assert witness.vectors_checked == 1 + 3 * bound  # B = 0 only: the base has d = 0
    assert witness.mu > 0.0 and not witness.axis_vectors
    with pytest.raises(CapacityError):
        point_type_check(p, 1.0, 4_166_667)


def _random_base(r):
    """A determinant-one matrix with entries of size 10^-2 to 10^2."""
    a, b, c = 10.0 ** r.uniform(-2.0, 2.0, 3) * r.choice([-1.0, 1.0], 3)
    return GroupElement(float(a), float(b), float(c), float((1.0 + b * c) / a))


def _witness_bases():
    r = rng(12)
    named = [identity(), slope_base(GOLDEN), slope_base(math.sqrt(2.0)),
             slope_base(math.e),
             slope_base(cf_from_quotients(planted_quotients(2.0)).x),
             GroupElement(1.0, 5.0, 0.0, 1.0),  # c = 0: no B = 0 line
             GroupElement(2.0, 1.0, 1.0, 1.0),  # integer breakpoints
             GroupElement(1.0, 0.0, 3.0, 1.0)]
    r2 = rng(24)
    return named + [random_element(r), random_element(r)] + [_random_base(r2) for _ in range(4)]


_WITNESS_FIELDS = ("mu", "nu", "symmetric", "axis_vectors")


def _fields(w) -> dict:
    """The fields of a witness that _same_witness compares, by name: a
    slots record's repr shows none of them."""
    return {name: getattr(w, name) for name in _WITNESS_FIELDS}


def _same_witness(w, ref):
    return _fields(w) == _fields(ref)


@pytest.mark.parametrize("bound", [10, 179, 180, 181, 182, 1000])
def test_point_type_check_matches_full_array_search(bound):
    # the breakpoint candidates give the full-array witness exactly
    for g in _witness_bases():
        p = reduce(g)
        for kappa in (1.0, 2.5, 8.0, 400.0):
            (witness,) = point_type_check(p, kappa, bound)
            ref = point_type_check_reference(p, kappa, bound)[0]
            assert _same_witness(witness, ref), (g, kappa, _fields(witness), _fields(ref))


def test_point_type_check_matches_reference_on_random_bases():
    r = rng(31)
    for _ in range(40):
        p = reduce(_random_base(r))
        for bound in (10, 37, 100):
            for kappa in (1.0, 2.5, 8.0, 400.0):
                (witness,) = point_type_check(p, kappa, bound)
                ref = point_type_check_reference(p, kappa, bound)[0]
                assert _same_witness(witness, ref), (p.rep, kappa, bound, _fields(witness),
                                                     _fields(ref))
                assert witness.vectors_checked == 1 + 6 * bound  # B = 0 and A = 0


def test_point_type_check_near_axis_base():
    # B = 1e-13 (n - m) on this base: tiny everywhere, but zero only at
    # (1, 1).  The axis test is relative to |a| n + |c| |m|, so (1, 1) is the
    # one axis vector, for the candidates and the full search alike
    p = reduce(GroupElement(1e-13, 0.0, 1e-13, 1e13))
    for bound in (10, 100, 1000):
        (witness,) = point_type_check(p, 1.0, bound)
        assert _same_witness(witness, point_type_check_reference(p, 1.0, bound)[0])
        assert witness.axis_vectors == ((1, 1),)
        assert witness.mu == witness.nu == witness.symmetric == 0.0


def test_cli_dio_near_axis_base_lists_one_axis_vector(tmp_path, monkeypatch, capsys):
    from homodyn.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["dio", "--base", "1e-13,0,1e-13,1e13"]) == 0
    assert "axis_vectors,1\n" in capsys.readouterr().out


def test_point_type_check_planted_base_needs_the_offsets():
    # the nu minimum of this base sits next to a breakpoint, not at its rint
    a, b, c = 32.94576877838444, 2.4422877436579893, -3.514799359371663
    p = reduce(GroupElement(a, b, c, (1.0 + b * c) / a))
    (witness,) = point_type_check(p, 1.0, 30)
    assert _same_witness(witness, point_type_check_reference(p, 1.0, 30)[0])


@pytest.mark.parametrize("x, m, n", [(GOLDEN, 832040, 514229),
                                     (math.sqrt(2.0), 665857, 470832)])
def test_point_type_check_past_the_former_guard(x, m, n):
    # mu at bound 10^6 is |a n - c m| at the best approximation in the box
    p = reduce(slope_base(x))
    (witness,) = point_type_check(p, 1.0, 10**6)
    g = p.rep
    assert witness.mu == abs(g.a * np.int64(n) - g.c * np.int64(m))
    assert witness.vectors_checked == 1 + 3 * 10**6


def test_point_type_check_memory():
    # the candidate columns go through one at a time: the peak is a few
    # 8-byte arrays over the 10^5 rows, whatever the size of the box
    p = reduce(slope_base(GOLDEN))
    point_type_check(p, 1.0, 20)
    tracemalloc.start()
    try:
        (witness,) = point_type_check(p, 1.0, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.vectors_checked == 1 + 3 * 10**5
    assert peak <= 10 * 10**6, peak


def test_bad_kappa_and_horizon_rejected():
    p = reduce(slope_base(GOLDEN))
    for kappa in (float("nan"), float("inf"), 0.5):
        with pytest.raises(ValueError):
            point_type_check(p, kappa, 30)
    for t_max in (float("nan"), 5.0):
        with pytest.raises(ValueError) as exc:
            excursion_type_estimate(p, t_max)
        assert not isinstance(exc.value, OpenExcursionError)
