"""The explicit window-function family and the cusp-hitting frequency."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homodyn

from homodyn.goodfn import (
    _WINDOW_CAP,
    GoodFnParams,
    _sublevel_hull,
    eval_f,
    sublevel_floor,
    verify_good,
)
from homodyn.orbits import curve_hit_ratios
from homodyn.psl2 import slope_base
from homodyn.surface import reduce

from helpers import (
    HULL_RTOL,
    HULL_XTOL,
    eval_g,
    eval_g_prime,
    hitting_frequency,
    rng,
    sublevel_hull_reference,
    verify_good_reference,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def dual_eval_oracle(a, b, kappa, gamma, x):
    """Independent evaluator assembled from the printed formula verbatim."""
    t1 = (b * x ** (3.0 / 4.0 + gamma) - a * x ** (-1.0 / 4.0)) ** 2
    t2 = (b * x ** (1.0 / 4.0)) ** 2
    w = (x ** (1.0 / 4.0 - 1.0 / (kappa + 4.0))) ** 2
    return t1 * w + t2 * w


def test_eval_examples():
    p = GoodFnParams(a=1.0, b=1.0, kappa=1.0, gamma=0.1, mu=0.5, nu=0.5)
    assert eval_f(p, 1.0) == pytest.approx(1.0)  # (b-a)^2 + b^2 at a=b=1
    p2 = GoodFnParams(a=1.0, b=0.01, kappa=1.0, gamma=0.1, mu=0.5, nu=0.005)
    for x in (1.0, 3.7, 100.0, 1e4):
        assert eval_f(p2, x) == pytest.approx(
            dual_eval_oracle(p2.a, p2.b, 1.0, 0.1, x), rel=1e-10
        )


def test_constructor_rejects_zero_b_without_witness():
    with pytest.raises(ValueError):
        GoodFnParams(a=1.0, b=0.0, kappa=1.0, gamma=0.1, mu=0.5, nu=0.5)
    with pytest.raises(ValueError):
        GoodFnParams(a=1.0, b=1.0, kappa=1.0, gamma=0.3, mu=0.5, nu=0.5)


def test_constructor_rejects_non_finite_witness_constants():
    for mu, nu in ((float("nan"), 0.5), (float("inf"), 0.5), (0.5, float("nan")),
                   (0.5, float("inf")), (0.0, 0.5), (0.5, -1.0)):
        with pytest.raises(ValueError):
            GoodFnParams(a=1.0, b=1.0, kappa=1.0, gamma=0.1, mu=mu, nu=nu)


def test_factorization_identity():
    p = GoodFnParams(a=1.0, b=0.01, kappa=1.0, gamma=0.05, mu=0.5, nu=0.005)
    xs = np.geomspace(1.0, 1e6, 500)
    h = p.b * xs ** (0.5 - 1.0 / (p.kappa + 4.0))
    lhs = eval_f(p, xs)
    rhs = eval_g(p, xs) ** 2 + h ** 2
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_g_monotone_and_gprime_decreasing():
    p = GoodFnParams(a=1.0, b=1e-4, kappa=1.0, gamma=0.05, mu=0.5, nu=5e-5)
    xs = np.geomspace(1.0, 1e7, 400)
    g = eval_g(p, xs)
    assert (np.diff(g) > 0).all()
    gp = eval_g_prime(p, xs)
    assert (np.diff(gp) < 0).all()
    # derivative oracle: central differences
    mid = xs[1:-1]
    fd = (eval_g(p, mid * 1.0001) - eval_g(p, mid * 0.9999)) / (mid * 0.0002)
    assert np.allclose(eval_g_prime(p, mid), fd, rtol=1e-5)


def test_b_floor_case_empty_sublevels():
    f1 = (0.9 - 0.3) ** 2 + 0.9 ** 2
    p = GoodFnParams(a=0.3, b=0.9, kappa=1.0, gamma=0.1, mu=0.5, nu=0.1, rho=f1)
    assert p.case == "b_floor"
    assert sublevel_floor(p) == pytest.approx(0.81)
    xs = np.geomspace(1.0, 1e8, 2000)
    assert (eval_f(p, xs) >= 0.81 - 1e-12).all()
    rep = verify_good(p, [0.81 / 4.0, 0.81 / 16.0])
    for row in rep.rows:
        assert row[1] == 0.0 and row[2] == 0.0


def test_default_rho_is_f_at_one_as_eval_f_rounds_it():
    # here (b - a)**2 + b**2 rounds one ulp below (b - a)*(b - a) + b*b, so
    # a rho computed by ** would leave x = 1 outside {f <= rho} and f, which
    # rises from x = 1, would meet rho nowhere: no window would be anchored
    p = GoodFnParams(a=-0.4943141949908455, b=0.9286232690460166, kappa=1.0, gamma=0.1,
                     mu=0.5, nu=1e-3)
    assert (p.b - p.a) ** 2 + p.b ** 2 < p.f1() == eval_f(p, 1.0) == p.rho
    rows = verify_good(p, [p.rho / 4.0]).rows
    assert rows[0][1:3] == (0.0, 0.0)


def test_opposite_signs_floor():
    p = GoodFnParams(a=-1.0, b=0.5, kappa=1.0, gamma=0.1, mu=0.6, nu=0.5)
    # normalization flips to b > 0 with a < 0 -> floor nu^(2/(kappa+1))
    assert p.case == "opposite_signs"
    floor = sublevel_floor(p)
    assert floor == pytest.approx(0.5)
    xs = np.geomspace(1.0, 1e8, 2000)
    assert (eval_f(p, xs) >= floor - 1e-12).all()


def test_generic_case_stable_constant():
    # a small window level puts the pinned eps grid in the asymptotic regime
    # where the required constant settles (+-20% band = spread <= 1.5)
    p = GoodFnParams(a=1.0, b=1e-5, kappa=1.0, gamma=0.05, mu=0.5, nu=5e-6,
                     rho=1e-4)
    assert p.case == "generic"
    rep = verify_good(p, [p.rho / 4.0, p.rho / 16.0, p.rho / 64.0])
    cs = [row[1] for row in rep.rows]
    assert all(c > 0.0 for c in cs)
    assert max(cs) / min(cs) <= 1.2 / 0.8


def test_generic_case_default_rho_regression():
    # at the default window level the pinned eps grid is pre-asymptotic and
    # the constant still drifts; frozen band from the fixed run
    p = GoodFnParams(a=1.0, b=1e-4, kappa=1.0, gamma=0.05, mu=0.5, nu=5e-5)
    rep = verify_good(p, [p.rho / 4.0, p.rho / 16.0, p.rho / 64.0])
    cs = [row[1] for row in rep.rows]
    assert all(1.0 < c < 6.0 for c in cs)
    assert max(cs) / min(cs) <= 2.5


# (a, b, kappa, gamma, mu, nu, rho as a share of f(1); 0 = the default rho)
_GOODFN_GRID = [
    (2.0, 1e-3, 1.0, 0.02, 0.5, 1e-6, 0.0),     # generic
    (5.0, 0.05, 1.0, 0.02, 0.5, 1e-6, 0.5),
    (2.0, 1e-5, 2.0, 0.1, 0.5, 1e-6, 0.0),
    (5.0, 0.05, 2.0, 0.1, 0.5, 0.1, 0.5),
    (1.0, 1e-5, 1.0, 0.05, 0.5, 5e-6, 0.0),     # the goodfn defaults
    (5.0, 0.9, 1.0, 0.02, 0.5, 1e-3, 0.5),      # b_floor
    (5.0, 0.5, 2.0, 0.02, 0.5, 1e-3, 0.5),
    (0.3, 0.9, 1.0, 0.1, 0.5, 0.1, 1.0),        # b_floor, empty below the floor
    (-1.0, 1e-5, 1.0, 0.02, 0.5, 1e-6, 0.0),    # opposite signs
    (-1.0, 1e-5, 1.0, 0.02, 0.5, 1e-6, 0.5),
    (-1.0, 1e-5, 2.0, 0.02, 0.5, 1e-6, 0.0),
    (-3.0, 1e-5, 2.0, 0.1, 0.5, 1e-6, 0.5),
]


def _grid_params(a, b, kappa, gamma, mu, nu, share):
    rho = share * GoodFnParams(a, b, kappa, gamma, mu, nu).f1()
    return GoodFnParams(a, b, kappa, gamma, mu, nu, rho)


@pytest.mark.parametrize("row", _GOODFN_GRID)
def test_verify_good_tightest_window_matches_sweep(row):
    # the reference's hull ends are brentq's, each within HULL_XTOL +
    # HULL_RTOL x of the root: the measure may move by that at the anchor and
    # at both ends of the hull [s0, s1], and C = m / (h (s1 + 1e-6 - x1)),
    # whose denominator is at least m, by twice that relative to m
    p = _grid_params(*row)
    eps_grid = [p.rho / 4.0, p.rho / 16.0, p.rho / 64.0]
    rows = verify_good(p, eps_grid).rows
    ref = verify_good_reference(p, eps_grid).rows
    assert [(r[0], *r[3:]) for r in rows] == [(r[0], *r[3:]) for r in ref]
    for (eps, c, m, *_), (_, c_ref, m_ref, *_) in zip(rows, ref):
        if not m_ref:
            assert (c, m) == (0.0, 0.0)
            continue
        tol = 3.0 * (HULL_XTOL + HULL_RTOL * _sublevel_hull(p, eps)[1])
        assert abs(m - m_ref) <= tol and abs(c - c_ref) <= 2.0 * tol / m_ref * c_ref


def _random_vector(r, case):
    """A valid GoodFnParams of the given case: kappa log-uniform on
    [1, 240], gamma up to its cap, |a|^kappa |b| finite."""
    kappa = float(np.exp(r.uniform(0.0, np.log(240.0))))
    gamma = float(r.uniform(0.01, 0.99)) / (kappa + 4.0)
    mag = float(10.0 ** r.uniform(-1.0, min(2.0, 200.0 / kappa)))
    if case == "b_floor":
        a, b = float(r.choice([-1.0, 1.0])) * mag, float(r.uniform(0.5, 5.0))
    else:
        a, b = (mag if case == "generic" else -mag), float(10.0 ** r.uniform(-6.0, -1.0))
    p = GoodFnParams(a, b, kappa, gamma, 0.5, abs(a) ** kappa * b / 2.0)
    assert p.case == case
    return p


def _end_tolerance(p, level, x):
    """How far apart two roots of the float f - level near x may lie: the
    reference's brentq refinement, plus f's rounding noise (16 ulps of the
    level) over f's slope at x, since a level near f's minimum meets a flat f."""
    h = 1e-6 * x
    slope = abs(eval_f(p, x + h) - eval_f(p, x - h)) / (2.0 * h)
    return 2.0 * (HULL_XTOL + HULL_RTOL * x) + 16.0 * np.finfo(float).eps * level / slope


_CASES = ("generic", "opposite_signs", "b_floor")


@pytest.mark.parametrize("case", _CASES)
def test_sublevel_hull_matches_the_grid_scan_on_random_vectors(case):
    # the hull search assumes f quasi-convex: f sampled on a fine log grid
    # falls, then rises, and the grid scan's hull is the search's, within
    # the scan's refinement and f's rounding noise, at levels empty, narrow
    # and wide, and at f(1)
    r = rng(_CASES.index(case))
    xs = np.geomspace(1.0, _WINDOW_CAP, 200001)  # the reference scan's grid
    for _ in range(12):
        p = _random_vector(r, case)
        f = eval_f(p, xs)
        i = int(np.argmin(f))
        slack = 1e-13 * f[1:]
        assert (np.diff(f)[:i] <= slack[:i]).all() and (np.diff(f)[i:] >= -slack[i:]).all()
        for level in (f[i] / 2.0, f[i] * (1.0 + 10.0 ** r.uniform(-3.0, 0.0)),
                      f[i] * 10.0 ** r.uniform(0.5, 3.0), p.f1()):
            hull, ref = _sublevel_hull(p, level), sublevel_hull_reference(p, level)
            assert (hull is None) == (ref is None), (p.a, p.b, p.kappa, p.gamma, level)
            for x, x_ref in zip(hull or (), ref or ()):
                assert x == x_ref or abs(x - x_ref) <= _end_tolerance(p, level, x_ref)


def test_verify_good_grid_reaches_every_path():
    # the grid above is only a check if its sublevel sets are nonempty
    nonempty = set()
    for row in _GOODFN_GRID:
        p = _grid_params(*row)
        rows = verify_good(p, [p.rho / 4.0, p.rho / 16.0, p.rho / 64.0]).rows
        if any(r[2] > 0.0 for r in rows):
            nonempty.add((p.case, p.kappa, p.rho != min(p.f1(), 0.25)))
    assert {("generic", k, s) for k in (1.0, 2.0) for s in (False, True)} <= nonempty
    assert {("b_floor", k, True) for k in (1.0, 2.0)} <= nonempty
    assert {("opposite_signs", k, s) for k in (1.0, 2.0) for s in (False, True)} <= nonempty


def test_hitting_frequency_basics():
    p = reduce(slope_base(GOLDEN))
    assert hitting_frequency(p, 0.1, 1.0, 0.0, 500) == 0.0
    f1 = hitting_frequency(p, 0.1, 1.0, 0.05, 2000)
    f2 = hitting_frequency(p, 0.1, 1.0, 0.1, 2000)
    f3 = hitting_frequency(p, 0.1, 1.0, 0.2, 2000)
    assert f1 <= f2 <= f3
    assert f3 > 0.0


def test_hitting_frequency_scaling():
    # the observed visit law for an equidistributing base follows the measure
    # of the shrinking region (quadratic in eps), safely below the linear
    # upper bound; frozen from the fixed run
    p = reduce(slope_base(GOLDEN))
    ratios = curve_hit_ratios(p, 0.1, 1.0, 100000)
    freqs = [(ratios <= e).mean() for e in (0.2, 0.1, 0.05)]
    assert all(f <= 1.0 * e for f, e in zip(freqs, (0.2, 0.1, 0.05)))  # linear bound
    quad = [f / e**2 for f, e in zip(freqs, (0.2, 0.1, 0.05))]
    assert max(quad) / min(quad) <= 2.0


def test_curve_hit_ratios_import_from_goodfn_loads_orbits_on_lookup():
    # the acceptance suite imports curve_hit_ratios from goodfn, its former
    # home: the name resolves to orbits' function, and goodfn's own import
    # loads neither orbits nor numpy
    code = ("import sys\n"
            "import homodyn.goodfn as goodfn\n"
            "print(sorted({'numpy', 'homodyn.orbits'} & set(sys.modules)))\n"
            "from homodyn.goodfn import curve_hit_ratios\n"
            "import homodyn.orbits as orbits\n"
            "print(curve_hit_ratios is orbits.curve_hit_ratios, hasattr(goodfn, 'curve_hits'))\n")
    src = str(Path(homodyn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "True False"]


def test_hitting_deterministic():
    p = reduce(slope_base(GOLDEN))
    a = hitting_frequency(p, 0.1, 1.0, 0.1, 3000)
    b = hitting_frequency(p, 0.1, 1.0, 0.1, 3000)
    assert a == b
