"""Mollifier properties, injectivity radius, horocycle box averages."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from homodyn.diophantine import slope_base
from homodyn.mollify import (
    MollifierSpec,
    box_average,
    box_decay_report,
    bump_cdf,
    bump_kernel,
    injectivity_radius_estimate,
    mollifier_profile,
    verify_mollifier,
    weighted_box_average,
)
from homodyn.orbits import golden_ratio, height_band
from homodyn.psl2 import identity, unipotent
from homodyn.surface import geodesic_flow, reduce
from helpers import eval_mollifier

GOLDEN_P = reduce(slope_base(golden_ratio))


def test_bump_kernel_normalization_and_cdf():
    mass, _ = quad(bump_kernel, -1.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert bump_cdf(-1.0) == 0.0 and bump_cdf(1.0) == 1.0
    # cdf matches the quadrature of the kernel (independent route)
    for x in (-0.7, -0.2, 0.0, 0.4, 0.9):
        want, _ = quad(bump_kernel, -1.0, x)
        assert bump_cdf(x) == pytest.approx(want, abs=1e-10)


def test_profile_matches_direct_convolution_quadrature():
    spec = MollifierSpec(delta=0.1, n=1, gamma=0.7)
    for u in (-0.05, 0.0, 0.03, 0.35, 0.68, 0.75):
        want, _ = quad(
            lambda t: bump_kernel((u - t) / spec.delta) / spec.delta, 0.0, spec.gamma
        )
        assert mollifier_profile(spec, u) == pytest.approx(want, abs=1e-9)


def test_eval_mollifier_plateau_support_factorization():
    spec = MollifierSpec(delta=0.1, n=1, gamma=1.0)
    assert eval_mollifier(spec, [0.5]) == pytest.approx(1.0, abs=1e-12)
    assert eval_mollifier(spec, [-0.11]) == 0.0
    assert eval_mollifier(spec, [1.11]) == 0.0
    spec2 = MollifierSpec(delta=0.1, n=2, gamma=1.0)
    u = [0.07, 0.93]
    lhs = eval_mollifier(spec2, u)
    rhs = eval_mollifier(spec, [u[0]]) * eval_mollifier(spec, [u[1]])
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # values stay in [0, 1]
    grid = np.linspace(-0.3, 1.3, 500)
    vals = mollifier_profile(spec, grid)
    assert (vals >= 0.0).all() and (vals <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("delta", [0.1, 0.05])
def test_verify_mollifier_grid(n, gamma, delta):
    integral, l1 = verify_mollifier(MollifierSpec(delta=delta, n=n, gamma=gamma))
    assert integral == pytest.approx(gamma**n, rel=1e-6)
    assert l1 <= 4.0 * n * delta * (gamma + delta) ** (n - 1)


@pytest.mark.parametrize("delta, gamma", [(0.1, 0.7), (0.1, 0.2), (0.1, 0.15), (0.4, 0.05)])
def test_verify_mollifier_one_d_mass_exact(delta, gamma):
    # Gauss-Legendre on the knot intervals is exact for the degree-7 pieces,
    # with the plateau (gamma > 2 delta), without it, and at gamma = 2 delta
    integral, _ = verify_mollifier(MollifierSpec(delta=delta, n=1, gamma=gamma))
    assert integral == pytest.approx(gamma, abs=1e-12)


def test_l1_distance_linear_in_delta():
    l1s = []
    for delta in (0.1, 0.05, 0.025):
        _, l1 = verify_mollifier(MollifierSpec(delta=delta, n=1, gamma=1.0))
        l1s.append(l1)
    for a, b in zip(l1s, l1s[1:]):
        assert a / b == pytest.approx(2.0, rel=0.1)


def test_injectivity_radius():
    p0 = reduce(identity())
    assert injectivity_radius_estimate(p0) == pytest.approx(0.5)
    for t in (1.0, 3.0, 6.0):
        est = injectivity_radius_estimate(geodesic_flow(p0, t))
        assert est == pytest.approx(0.5 * math.exp(-t / 2.0), rel=1e-9)
    # translate stability: factor <= operator norm of u(1) (golden ratio)
    import numpy as np
    from helpers import random_element, rng
    r = rng(31)
    for _ in range(300):
        g = random_element(r, y_low=1e-2, y_high=1e2)
        p = reduce(g)
        q = reduce(g @ unipotent(1.0))
        ratio = injectivity_radius_estimate(q) / injectivity_radius_estimate(p)
        assert 0.25 <= ratio <= 4.0


def test_box_eta_reads_the_flowed_representative():
    # eta needs only the representative p a(log T); reducing it changes nothing
    f = height_band(2.0)
    rep = box_decay_report(GOLDEN_P, f, [100.0, 1000.0])
    for T, _, _, eta in rep.rows:
        q = geodesic_flow(GOLDEN_P, math.log(T))
        assert eta == injectivity_radius_estimate(q) == injectivity_radius_estimate(q.rep)


def test_box_average_constant_error_zero():
    # a function with haar_mean equal to its value on the periodic orbit:
    # the band vanishes there, so the raw average is exactly 0
    f = height_band(2.0)
    avg = box_average(reduce(identity()), 50.0, f)
    assert avg == 0.0


def test_box_average_decreasing_error():
    # frozen configuration: golden-slope representative shifted by u(1), disc
    # observable; single-orbit errors fluctuate under the decay envelope, so
    # the monotone check uses this calibrated pair
    from homodyn.orbits import hyperbolic_disc

    p = reduce(slope_base(golden_ratio) @ unipotent(1.0))
    f = hyperbolic_disc(0.0, 2.0, 0.2)
    errs = [abs(box_average(p, T, f) - f.haar_mean) for T in (100.0, 1000.0)]
    assert errs[1] < errs[0]


def test_weighted_box_average_matches_product():
    f = height_band(2.0)
    spec = MollifierSpec(delta=0.1, n=1, gamma=1.0)
    got = weighted_box_average(GOLDEN_P, 2000.0, f, spec)
    want = f.haar_mean * spec.gamma
    assert got == pytest.approx(want, abs=0.03)


def test_box_averages_refuse_past_memory_guard():
    from homodyn.lattice import CapacityError

    f = height_band(2.0)
    spec = MollifierSpec(delta=0.1, n=1, gamma=1.0)
    # 1e6 / 0.02 nodes sit on the 5e7 guard; the weighted range is 1.2 T long
    with pytest.raises(CapacityError):
        weighted_box_average(GOLDEN_P, 1e6, f, spec)
    with pytest.raises(CapacityError):
        box_average(GOLDEN_P, 1.01e6, f)
