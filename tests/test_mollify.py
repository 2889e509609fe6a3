"""Mollifier properties, injectivity radius, horocycle box averages."""

import math

import mpmath
import numpy as np
import pytest

from homodyn.mollify import (
    INJECTIVITY_FACTOR,
    MollifierSpec,
    box_average,
    box_decay_report,
    _cdf_array,
    mollifier_profile,
    verify_mollifier,
    weighted_box_average,
)
from homodyn.orbits import height_band
from homodyn.psl2 import golden_ratio, identity, slope_base, unipotent
from homodyn.surface import cusp_norm, reduce
from helpers import bump_kernel, eval_mollifier, geodesic_flow

GOLDEN_P = reduce(slope_base(golden_ratio))


def quad(f, *points) -> float:
    """Tanh-sinh quadrature of f over the consecutive intervals of points
    (mpmath, independent of the product's polynomial antiderivative)."""
    return float(mpmath.quad(f, sorted(points)))


def injectivity_radius(g) -> float:
    """The eta convention of box_decay_report, for one representative."""
    return INJECTIVITY_FACTOR * cusp_norm(g)


def test_bump_kernel_normalization_and_cdf():
    mass = quad(bump_kernel, -1.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert _cdf_array(np.array([-1.0, 1.0])).tolist() == [0.0, 1.0]
    # cdf matches the quadrature of the kernel (independent route)
    xs = np.array([-0.7, -0.2, 0.0, 0.4, 0.9])
    want = [quad(bump_kernel, -1.0, x) for x in xs]
    assert _cdf_array(xs) == pytest.approx(want, abs=1e-10)


def test_profile_matches_direct_convolution_quadrature():
    spec = MollifierSpec(delta=0.1, n=1, gamma=0.7)
    for u in (-0.05, 0.0, 0.03, 0.35, 0.68, 0.75):
        # split where the kernel's support ends: the integrand has kinks there
        knots = [k for k in (u - spec.delta, u + spec.delta) if 0.0 < k < spec.gamma]
        want = quad(lambda t: bump_kernel((u - t) / spec.delta) / spec.delta,
                    0.0, spec.gamma, *knots)
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
    assert injectivity_radius(p0.rep) == pytest.approx(0.5)
    for t in (1.0, 3.0, 6.0):
        est = injectivity_radius(geodesic_flow(p0, t).rep)
        assert est == pytest.approx(0.5 * math.exp(-t / 2.0), rel=1e-9)
    # translate stability: factor <= operator norm of u(1) (golden ratio)
    import numpy as np
    from helpers import random_element, rng
    r = rng(31)
    for _ in range(300):
        g = random_element(r, y_low=1e-2, y_high=1e2)
        ratio = injectivity_radius(g @ unipotent(1.0)) / injectivity_radius(g)
        assert 0.25 <= ratio <= 4.0


def test_box_eta_reads_the_flowed_representative():
    # the report's one array call gives, bit for bit, eta of the composed
    # element p a(log T) that GroupElement arithmetic builds
    f = height_band(2.0)
    rep = box_decay_report(GOLDEN_P, f, [100.0, 1000.0, 1e4])
    for T, _, _, eta in rep.rows:
        q = geodesic_flow(GOLDEN_P, math.log(T))
        assert eta == injectivity_radius(q.rep)


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
