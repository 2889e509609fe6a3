"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check (brute-force searches, direct formula evaluation, numpy matmul).
"""

import math
from fractions import Fraction

import numpy as np

from homodyn.psl2 import GroupElement, IwasawaNAK

SEED = 20250809


def rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(SEED + salt))


def random_element(r: np.random.Generator, y_low=1e-2, y_high=1e2) -> GroupElement:
    """Random element via Iwasawa coordinates, y log-uniform."""
    x = r.uniform(-5.0, 5.0)
    y = math.exp(r.uniform(math.log(y_low), math.log(y_high)))
    th = r.uniform(0.0, math.pi)
    return IwasawaNAK(float(x), math.sqrt(y), float(th)).recompose()


def random_gamma_word(r: np.random.Generator, max_len: int = 20):
    """Random word in T, T^-1, S as an exact integer matrix (m11, m12, m21, m22)."""
    m = (1, 0, 0, 1)
    for _ in range(int(r.integers(1, max_len + 1))):
        choice = int(r.integers(0, 3))
        if choice == 0:  # T
            m = (m[0] + m[2], m[1] + m[3], m[2], m[3])
        elif choice == 1:  # T^-1
            m = (m[0] - m[2], m[1] - m[3], m[2], m[3])
        else:  # S
            m = (-m[2], -m[3], m[0], m[1])
    return m


def gamma_to_element(m) -> GroupElement:
    return GroupElement(float(m[0]), float(m[1]), float(m[2]), float(m[3]))


def np_mat(g: GroupElement) -> np.ndarray:
    return np.array([[g.a, g.b], [g.c, g.d]])


def psl_allclose(g: GroupElement, h: GroupElement, tol=1e-9) -> bool:
    A, B = np_mat(g), np_mat(h)
    return min(np.abs(A - B).max(), np.abs(A + B).max()) <= tol


def brute_force_reduce(z: complex, depth: int = 30) -> complex:
    """Oracle: drive z into the fundamental domain by exhaustive T/S greed.

    Independent of the library loop: repeatedly applies the classical
    translation/inversion moves on the complex number only.
    """
    for _ in range(depth * 200):
        moved = False
        k = round(z.real)
        if k != 0:
            z = complex(z.real - k, z.imag)
            moved = True
        if abs(z) < 1.0 - 1e-12:
            z = -1.0 / z
            moved = True
        if not moved:
            return z
    raise RuntimeError("oracle failed to reduce")


def brute_force_cusp_norm(g: GroupElement, bound: int = 60) -> float:
    """Oracle: min |g^{-1}(m, n)| over primitive |m|, |n| <= bound."""
    best = math.inf
    for m in range(-bound, bound + 1):
        for n in range(0, bound + 1):
            if n == 0 and m <= 0:
                continue
            if math.gcd(abs(m), n) != 1:
                continue
            x = g.d * m - g.b * n
            y = g.a * n - g.c * m
            best = min(best, math.hypot(x, y))
    return best


def reduce_xy_reference(x: float, y: float):
    """Scalar reference for surface.reduce_points: the former pure-Python loop.

    Drives x + iy into {|Re| <= 1/2, |z| >= 1} by T/S moves and returns
    (x', y', m11, m12, m21, m22) with the word as exact Python integers.
    """
    m11, m12, m21, m22 = 1, 0, 0, 1
    for _ in range(10_000):
        k = round(x)
        if k:
            x -= k
            m11 -= k * m21
            m12 -= k * m22
        n2 = x * x + y * y
        if n2 < 1.0 - 1e-12:
            x, y = -x / n2, y / n2
            m11, m12, m21, m22 = -m21, -m22, m11, m12
        else:
            return x, y, m11, m12, m21, m22
    raise RuntimeError("reference reduction did not converge")


def lattice_min_sq_reference(u1: float, u2: float, v1: float, v2: float) -> float:
    """Scalar reference for surface.lattice_min_sq: plain Lagrange/Gauss
    reduction of one planar basis (the former pure-Python loop)."""
    nu = u1 * u1 + u2 * u2
    nv = v1 * v1 + v2 * v2
    for _ in range(256):
        if nu < nv:
            u1, u2, v1, v2 = v1, v2, u1, u2
            nu, nv = nv, nu
        mu = round((u1 * v1 + u2 * v2) / nv)
        if mu == 0:
            return nv
        u1 -= mu * v1
        u2 -= mu * v2
        nu = u1 * u1 + u2 * u2
    return min(nu, nv)


def sector_children_reference(parent_lo: Fraction, parent_hi: Fraction, l: float, e: int):
    """Brute-force slope packing in exact arithmetic: the intervals
    [a/b - (1/18) b^-e, a/b + (1/18) b^-e], sorted, of every primitive (a, b)
    with 0 < a < b and l^2 <= a^2 + b^2 <= 4 l^2 whose interval lies inside
    [parent_lo, parent_hi].  For each b only the numerators with a/b in the
    parent are tried; a child inside the parent has its slope there.
    """
    out = []
    for b in range(1, int(2.0 * l) + 1):
        w = Fraction(1, 18 * b**e)
        a_min = max(1, math.ceil(parent_lo * b))
        a_max = min(b - 1, math.floor(parent_hi * b))
        for a in range(a_min, a_max + 1):
            if not (l * l <= a * a + b * b <= 4.0 * l * l) or math.gcd(a, b) != 1:
                continue
            lo, hi = Fraction(a, b) - w, Fraction(a, b) + w
            if parent_lo <= lo and hi <= parent_hi:
                out.append((lo, hi))
    return sorted(out)
