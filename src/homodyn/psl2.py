"""Arithmetic of PSL(2,R) and hyperbolic-plane primitives.

Group elements are plain 2x2 float matrices of determinant one, stored
modulo global sign.  Everything here is a pure value: elements are
immutable by convention and safe to share between threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Beyond this |det - 1| the matrix is rescaled by 1/sqrt(det), so drift is
# repaired instead of rejected: a base matrix parsed from rounded decimals,
# or a product of elements in the tests and benchmark microkernels.  The
# orbit experiments compose no matrices; they work on entry arrays.
_RENORM_TRIGGER = 1e-12


class GroupError(ValueError):
    """Invalid group element or invalid parameters for a group operation."""


class GroupElement:
    """A 2x2 real matrix (a, b; c, d) with ad - bc = 1, modulo sign.

    The stored representative has its first nonzero entry (in the order
    a, b, c, d) positive, which pins the PSL representative deterministically.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise GroupError(f"matrix is not in PSL(2,R): det = {det}")
        if abs(det - 1.0) > _RENORM_TRIGGER:
            r = math.sqrt(det)
            a /= r
            b /= r
            c /= r
            d /= r
        # canonical sign: first nonzero of (a, b) positive; det > 0 rules out a = b = 0
        if (a if a != 0.0 else b) < 0.0:
            a, b, c, d = -a, -b, -c, -d
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @property
    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "GroupElement") -> "GroupElement":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return GroupElement(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    __matmul__ = compose

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def mobius(self, z: complex) -> complex:
        """Fractional-linear action on the upper half-plane.

        The imaginary part is computed as y/|cz+d|^2, which keeps it
        strictly positive even deep in the cusp.
        """
        den = self.c * z + self.d
        n2 = den.real * den.real + den.imag * den.imag
        num = (self.a * z + self.b) * den.conjugate()
        return complex(num.real / n2, z.imag / n2)

    def iwasawa(self) -> "IwasawaNAK":
        """Unique decomposition g = n(s) a(alpha) k(theta), theta in [0, pi)."""
        c, d = self.c, self.d
        r2 = c * c + d * d
        s = (self.a * c + self.b * d) / r2
        theta = math.atan2(c, d) % math.pi
        if theta >= math.pi:  # fold the float boundary case back to 0
            theta = 0.0
        return IwasawaNAK(s, 1.0 / math.sqrt(r2), theta)

    def __repr__(self) -> str:
        return f"GroupElement({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


class IwasawaNAK(NamedTuple):
    """NAK coordinates: g = n(s) a(alpha) k(theta) with alpha > 0, theta in [0, pi)."""

    n_shift: float
    a_scale: float
    k_angle: float

    def recompose(self) -> GroupElement:
        s, alpha, theta = self
        ct, st = math.cos(theta), math.sin(theta)
        inv = 1.0 / alpha
        return GroupElement(
            alpha * ct + s * inv * st,
            -alpha * st + s * inv * ct,
            inv * st,
            inv * ct,
        )


def identity() -> GroupElement:
    return GroupElement(1.0, 0.0, 0.0, 1.0)


golden_ratio = (1.0 + math.sqrt(5.0)) / 2.0


def slope_base(x: float) -> GroupElement:
    """A determinant-one representative with top-left/bottom-left ratio x."""
    return GroupElement(x, -1.0, 1.0, 0.0)


def unipotent(t: float) -> GroupElement:
    """The horocyclic shear u(t) = (1, t; 0, 1)."""
    if not math.isfinite(t):
        raise GroupError(f"non-finite flow time {t}")
    return GroupElement(1.0, t, 0.0, 1.0)


def diagonal_flow(t: float) -> GroupElement:
    """The geodesic-flow element diag(e^{t/2}, e^{-t/2})."""
    if not math.isfinite(t):
        raise GroupError(f"non-finite flow time {t}")
    e = math.exp(0.5 * t)
    return GroupElement(e, 0.0, 0.0, 1.0 / e)


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    """Hyperbolic distance between two points of the upper half-plane."""
    dx = z1.real - z2.real
    dy = z1.imag - z2.imag
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * z1.imag * z2.imag)
    return math.acosh(max(arg, 1.0))
