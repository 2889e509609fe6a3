"""Primitive integer vectors modulo sign: exact annular sector counts,
enumeration and gap constants.

The vector set is the orbit of (1, 0) under the modular group acting on R^2,
which is exactly the primitive integer pairs identified with their negatives.
Sign normalization: beta > 0, or beta = 0 and alpha > 0.

Counting needs no enumeration and no numpy: ``primitive_count`` walks the
rows beta = b and counts the alpha coprime to b in each row's interval by
Moebius inversion.  numpy is imported only by the array functions
``coprime_mask`` and ``enumerate_orbit``; the annotations that name it are
never evaluated (``from __future__ import annotations``).
"""

from __future__ import annotations

import math
from array import array
from itertools import compress

from .report import CapacityError, check_capacity

_RADIUS_GUARD = 1e5
_BLOCK = 2**16  # vectors or mask cells per block of an enumeration, rows per block of a count


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


def primes_upto(n: int) -> array:
    """The primes p <= n, ascending (sieve of Eratosthenes on a bytearray)."""
    n = max(n, 1)
    is_prime = bytearray([1]) * (n + 1)
    is_prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return array("l", compress(range(n + 1), is_prime))


def coprime_mask(N: int, M: int) -> np.ndarray:
    """mask[n - 1, m + M] = (gcd(|m|, n) == 1) over the box 1 <= n <= N,
    -M <= m <= M: one strided strike per prime p <= N, at the rows n and
    columns m divisible by p (the m = 0 column is struck for every n > 1)."""
    import numpy as np

    mask = np.ones((N, 2 * M + 1), dtype=bool)
    for p in primes_upto(N).tolist():
        mask[p - 1::p, M % p::p] = False
    return mask


def enumerate_orbit(R: float) -> PrimitiveVectorSet:
    """All normalized primitive pairs of norm <= R, by prime sieve."""
    import numpy as np

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


def _cot(theta: float) -> float:
    s = math.sin(theta)
    return math.cos(theta) / s if s else math.inf


def _first_below(b: int, theta: float, x: float, lo: int, hi: int) -> int:
    """The least a in [lo, hi] with atan2(b, a) < theta, or hi + 1 if there is
    none.  For b > 0, atan2(b, a) falls as a rises, so those a are the top
    of [lo, hi]; x (about b cot theta) only brackets the end, and the float
    predicate itself places it."""
    a = lo if x <= lo else hi + 1 if x >= hi + 1 else math.ceil(x)
    while a > lo and math.atan2(b, a - 1) < theta:
        a -= 1
    while a <= hi and not math.atan2(b, a) < theta:
        a += 1
    return a


def _coprimes(divisors, lo: int, hi: int) -> int:
    """#{lo <= a <= hi : gcd(a, b) = 1}, from the pairs (d, mu(d)) over the
    squarefree divisors d of b (Moebius inversion)."""
    if lo > hi:
        return 0
    return sum(mu * (hi // d - (lo - 1) // d) for d, mu in divisors)


def primitive_count(q: SectorQuery) -> int:
    """Exact member count in the annular sector, with the tests of an
    enumeration's float arrays: l*l <= a*a + b*b <= 4.0*l*l, and
    theta1 < atan2(b, a) < theta2 (strict).

    Row by row over b = 1..isqrt(floor(4.0*l*l)) (the b = 0 member (1, 0) has
    theta 0, never inside): isqrt against ceil(l*l) and floor(4.0*l*l) gives
    the annulus' alpha range exactly, math.atan2 places the two angle ends,
    and the alpha coprime to b in the range are counted by Moebius inversion
    over the squarefree divisors of b.  The prime factors of the rows come
    from one sieve, primes_upto, block by block of rows.  A sector that
    leaves the canonical half-plane theta <= pi is refused first."""
    if q.theta2 > math.pi:
        raise SectorError("sector must lie inside the canonical half-plane")
    inner2, outer2 = math.ceil(q.l * q.l), math.floor(4.0 * q.l * q.l)
    t1 = math.nextafter(q.theta1, math.inf)  # atan2 <= theta1 iff atan2 < t1
    cot1, cot2 = _cot(t1), _cot(q.theta2)
    rows = math.isqrt(outer2)
    primes = primes_upto(rows)
    total = 0
    for b0 in range(1, rows + 1, _BLOCK):
        b1 = min(b0 + _BLOCK, rows + 1)
        factors = [[] for _ in range(b0, b1)]
        for p in primes:
            if p >= b1:
                break
            for b in range(-(-b0 // p) * p, b1, p):
                factors[b - b0].append(p)
        for b, ps in zip(range(b0, b1), factors):
            outer = math.isqrt(outer2 - b * b)
            lo = _first_below(b, q.theta2, b * cot2, -outer, outer)
            hi = _first_below(b, t1, b * cot1, -outer, outer) - 1
            if lo > hi:
                continue
            divisors = [(1, 1)]
            for p in ps:
                divisors += [(d * p, -mu) for d, mu in divisors]
            # |a| < inner holds the alpha inside the inner circle
            room = inner2 - b * b
            inner = math.isqrt(room - 1) + 1 if room > 0 else 0
            total += (_coprimes(divisors, lo, hi)
                      - _coprimes(divisors, max(lo, 1 - inner), min(hi, inner - 1)))
    return total


def sector_count(vecs: PrimitiveVectorSet, q: SectorQuery) -> int:
    """Exact member count of the enumeration vecs in the annular sector
    (strict angular inequalities): primitive_count(q), once vecs reaches 2l."""
    if 2.0 * q.l > vecs.radius:
        raise SectorError(
            f"sector outer radius {2 * q.l:g} exceeds enumeration radius {vecs.radius:g}"
        )
    return primitive_count(q)


def gap_constants() -> tuple[float, float]:
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
    return 1.0, 1.0
