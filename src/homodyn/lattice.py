"""Primitive integer vectors modulo sign: enumeration, annular sector counts,
and gap constants.

The vector set is the orbit of (1, 0) under the modular group acting on R^2,
which is exactly the primitive integer pairs identified with their negatives.
Sign normalization: beta > 0, or beta = 0 and alpha > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .report import CapacityError, check_capacity  # noqa: F401  (importable from here)

_RADIUS_GUARD = 1e5
_BLOCK = 2**16  # vectors or mask cells per block of a sector test or enumeration


class SectorError(ValueError):
    """Sector incompatible with the enumeration or the canonical half-plane."""


class PrimitiveVectorSet:
    """All sign-canonical primitive pairs with Euclidean norm <= radius."""

    __slots__ = ("radius", "alphas", "betas")
    radius: float
    alphas: np.ndarray  # int64, ordered by (beta, alpha)
    betas: np.ndarray

    def __init__(self, radius, alphas, betas):
        self.radius, self.alphas, self.betas = radius, alphas, betas

    def __len__(self) -> int:
        return int(self.alphas.size)


class SectorQuery:
    """Annular sector l <= r <= 2l, theta1 < theta < theta2 (polar coords)."""

    __slots__ = ("l", "theta1", "theta2")
    l: float
    theta1: float
    theta2: float

    def __init__(self, l, theta1, theta2):
        if not (l > 0.0 and 0.0 <= theta1 <= theta2 < 2.0 * math.pi):
            raise SectorError("need l > 0 and 0 <= theta1 <= theta2 < 2*pi")
        self.l, self.theta1, self.theta2 = l, theta1, theta2


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending (sieve of Eratosthenes)."""
    is_prime = np.ones(max(n + 1, 2), dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)


def coprime_mask(N: int, M: int) -> np.ndarray:
    """mask[n - 1, m + M] = (gcd(|m|, n) == 1) over the box 1 <= n <= N,
    -M <= m <= M: one strided strike per prime p <= N, at the rows n and
    columns m divisible by p (the m = 0 column is struck for every n > 1)."""
    mask = np.ones((N, 2 * M + 1), dtype=bool)
    for p in primes_upto(N).tolist():
        mask[p - 1::p, M % p::p] = False
    return mask


def enumerate_orbit(R: float) -> PrimitiveVectorSet:
    """All normalized primitive pairs of norm <= R, by prime sieve."""
    if not (1.0 <= R <= _RADIUS_GUARD):
        raise CapacityError(f"radius {R} outside [1, {_RADIUS_GUARD:g}]")
    check_capacity(0.955 * R * R, "vectors")  # density ~ 0.955 per unit area
    M = int(R)
    b = np.arange(1, M + 1, dtype=np.int64)
    # |a| <= isqrt(int(R^2 - b^2)), i.e. a^2 <= floor(R^2 - b^2), per row
    room = np.floor(R * R - b * b)
    a = np.arange(-M, M + 1, dtype=np.int64)
    mask = coprime_mask(M, M)
    mask &= (a * a)[None, :] <= room[:, None]
    alphas = np.empty(1 + np.count_nonzero(mask), dtype=np.int64)
    betas = np.empty_like(alphas)
    alphas[0], betas[0], i = 1, 0, 1  # (1, 0), then by (n, m) in blocks of rows
    rows = max(1, _BLOCK // a.size)
    for r0 in range(0, M, rows):
        n, m = np.divmod(np.flatnonzero(mask[r0:r0 + rows]), a.size)
        alphas[i:i + m.size], betas[i:i + m.size] = a[m], n + (r0 + 1)
        i += m.size
    return PrimitiveVectorSet(radius=float(R), alphas=alphas, betas=betas)


def sector_count(vecs: PrimitiveVectorSet, q: SectorQuery) -> int:
    """Exact member count in the annular sector (strict angular inequalities)."""
    if 2.0 * q.l > vecs.radius:
        raise SectorError(
            f"sector outer radius {2 * q.l:g} exceeds enumeration radius {vecs.radius:g}"
        )
    if q.theta2 > math.pi:
        raise SectorError("sector must lie inside the canonical half-plane")
    count = 0
    for i in range(0, len(vecs), _BLOCK):
        a = vecs.alphas[i:i + _BLOCK].astype(float)
        b = vecs.betas[i:i + _BLOCK].astype(float)
        r2 = a * a + b * b
        theta = np.arctan2(b, a)
        mask = (r2 >= q.l * q.l) & (r2 <= 4.0 * q.l * q.l)
        mask &= (theta > q.theta1) & (theta < q.theta2)
        count += int(mask.sum())
    return count


def gap_constants(vecs: PrimitiveVectorSet) -> tuple[float, float]:
    """(min |beta| over beta != 0, min |a1 b2 - a2 b1| over angularly adjacent
    members) of an enumeration of radius >= 1: both are 1, by theorem.

    c_second = 1: every nonzero integer |beta| is >= 1, and (0, 1) is a member.
    c_cross = 1: let u, v be angularly adjacent members.  A lattice point w
    strictly inside the triangle 0, u, v or on its open edge uv lies strictly
    between u and v in angle and, by convexity, in the disc; its primitive
    part w / gcd(w) is then a member strictly between u and v, contradicting
    adjacency.  The edges 0u and 0v hold no lattice point but their ends (u
    and v are primitive), so the triangle's only lattice points are its three
    vertices and Pick's theorem gives area 1/2, i.e. |det(u, v)| = 1.
    """
    if len(vecs) == 0:
        raise ValueError("empty vector set")
    return 1.0, 1.0
