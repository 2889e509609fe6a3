"""Group arithmetic, actions, Iwasawa coordinates, hyperbolic distance."""

import math

import numpy as np
import pytest

from homodyn.psl2 import (
    GroupElement,
    GroupError,
    diagonal_flow,
    hyperbolic_distance,
    identity,
    unipotent,
)

from helpers import np_mat, psl_allclose, random_element, rng, rotation


def test_compose_one_parameter_additivity():
    assert psl_allclose(unipotent(1.0) @ unipotent(2.0), unipotent(3.0))


def test_compose_inverse_is_identity():
    g = random_element(rng(1))
    assert psl_allclose(g @ g.inverse(), identity())


def test_compose_matches_matrix_product_oracle():
    # diag(e, 1/e) * u(1) -> (e, e; 0, 1/e)
    g = diagonal_flow(2.0) @ unipotent(1.0)
    e = math.e
    expected = np.array([[e, e], [0.0, 1.0 / e]])
    assert np.abs(np_mat(g) - expected).max() < 1e-12
    # generic product against numpy matmul (modulo sign)
    a, b = random_element(rng(2)), random_element(rng(3))
    got, want = np_mat(a @ b), np_mat(a) @ np_mat(b)
    assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-9


def test_inverse_examples():
    assert psl_allclose(identity().inverse(), identity())
    assert psl_allclose(unipotent(3.5).inverse(), unipotent(-3.5))
    g = GroupElement(2.0, 0.0, 0.0, 0.5)
    assert psl_allclose(g.inverse(), GroupElement(0.5, 0.0, 0.0, 2.0))


def test_flow_elements():
    assert psl_allclose(unipotent(0.0), identity())
    assert psl_allclose(diagonal_flow(2.0 * math.log(2.0)),
                        GroupElement(2.0, 0.0, 0.0, 0.5))
    assert psl_allclose(rotation(math.pi), identity(), tol=1e-12)


def test_rejects_bad_input():
    with pytest.raises(GroupError):
        GroupElement(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(GroupError):
        unipotent(float("inf"))
    with pytest.raises(GroupError):  # a = b = 0 gives det 0: the sign rule needs no c, d
        GroupElement(0.0, 0.0, 1.0, 1.0)


def test_sign_canonicalization():
    g = GroupElement(-1.0, 0.5, -0.5, -0.75)
    assert g.a > 0
    h = GroupElement(0.0, -1.0, 1.0, 0.0)  # first nonzero is b
    assert h.b > 0


def test_mobius_translation_and_inversion():
    w = unipotent(3.0).mobius(complex(0.25, 2.0))
    assert abs(w.real - 3.25) < 1e-12 and abs(w.imag - 2.0) < 1e-12
    s = GroupElement(0.0, -1.0, 1.0, 0.0)
    fixed = s.mobius(complex(0.0, 1.0))
    assert abs(fixed.real) < 1e-12 and abs(fixed.imag - 1.0) < 1e-12
    # complex-division oracle
    w2 = s.mobius(complex(0.3, 0.8))
    zc = -1.0 / complex(0.3, 0.8)
    assert abs(w2 - zc) < 1e-12


def test_iwasawa_examples_and_roundtrip():
    iw = identity().iwasawa()
    assert iw == pytest.approx((0.0, 1.0, 0.0))
    iw = unipotent(5.0).iwasawa()
    assert iw == pytest.approx((5.0, 1.0, 0.0))
    iw = rotation(0.3).iwasawa()
    assert iw.n_shift == pytest.approx(0.0, abs=1e-12)
    assert iw.a_scale == pytest.approx(1.0)
    assert iw.k_angle == pytest.approx(0.3)
    r = rng(4)
    for _ in range(200):
        g = random_element(r)
        assert psl_allclose(g.iwasawa().recompose(), g, tol=1e-9)


def test_hyperbolic_distance_examples():
    i = complex(0.0, 1.0)
    assert hyperbolic_distance(i, i) == 0.0
    assert hyperbolic_distance(i, complex(0.0, math.e)) == pytest.approx(1.0)
    assert hyperbolic_distance(i, complex(1.0, 1.0)) == pytest.approx(
        math.acosh(1.5)
    )


def test_group_laws_bulk():
    # moderate-scale elements keep the entrywise tolerance meaningful
    r = rng(5)
    for _ in range(2000):
        g, h, k = (random_element(r, y_low=0.2, y_high=5.0) for _ in range(3))
        assert psl_allclose((g @ h) @ k, g @ (h @ k), tol=1e-9)
        assert psl_allclose(g @ g.inverse(), identity(), tol=1e-9)


def test_action_law_and_distance_invariance():
    r = rng(6)
    i = complex(0.0, 1.0)
    for _ in range(500):
        g, h = random_element(r), random_element(r)
        z = complex(r.uniform(-2, 2), math.exp(r.uniform(-2, 2)))
        assert abs(g.mobius(h.mobius(z)) - (g @ h).mobius(z)) < 1e-9
        w = complex(r.uniform(-2, 2), math.exp(r.uniform(-2, 2)))
        assert hyperbolic_distance(g.mobius(z), g.mobius(w)) == pytest.approx(
            hyperbolic_distance(z, w), abs=1e-8
        )


def test_determinant_drift_repair():
    # long bounded loop: rounding accumulates but rescaling repairs it
    g = random_element(rng(7), y_low=0.5, y_high=2.0)
    step = rotation(0.0371) @ unipotent(0.2) @ diagonal_flow(0.13)
    back = step.inverse()
    for _ in range(4000):
        g = g @ step @ back @ rotation(0.011)
    assert abs(g.a * g.d - g.b * g.c - 1.0) <= 1e-9
