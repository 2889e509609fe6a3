"""Tree-like interval families from slope packings, the density/diameter
lower bound for Hausdorff dimension, cover-sum upper bounds, and the
closed-form dimension of the non-Diophantine locus."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import primes_upto

_LEVEL_GUARD = 5
_L_GUARD = 5e4        # per-level sector radius guard (2l <= 1e5)
_CHILD_GUARD = 2 * 10**6
_FLOAT_MARGIN = 1e-11  # float pre-check band around exact comparisons
_CELLS = 1 << 18       # (parent, beta) cells per block of a level build
_CANDIDATES = 1 << 20  # candidate slopes expanded at once


class EmptyLevelError(RuntimeError):
    """Some parent interval received no children (schedule too aggressive)."""


class TreeLikeFamily:
    """Nested disjoint closed-interval levels with density/diameter data.

    levels[j] is an int64 array of shape (k_j, 2), sorted by slope: row
    (a, b) is the interval [a/b - (1/18) b^-e, a/b + (1/18) b^-e] with
    e = kappa + eps + 1.  Level 0, the root [0, 1], has no slope pair and is
    stored empty.  d_j is the largest diameter at level j; Delta_j the
    smallest child-mass fraction over level-j parents.
    """

    __slots__ = ("levels", "diameters", "densities")
    levels: list
    diameters: list
    densities: list

    def __init__(self, levels, diameters, densities):
        self.levels, self.diameters, self.densities = levels, diameters, densities


def _child_endpoints_int(a: int, b: int, e: int):
    """Exact endpoints of [a/b +- (1/18) b^-e] as integer pairs (p, q)."""
    q = 18 * b**e
    core = 18 * a * b ** (e - 1)
    return (core - 1, q), (core + 1, q)


def _leq(p1, q1, p2, q2) -> bool:
    """Exact p1/q1 <= p2/q2 for positive denominators."""
    return p1 * q2 <= p2 * q1


def _candidates(lo_f, hi_f, betas, rad_lo, rad_hi):
    """Candidate slopes a/beta of the parents [lo_f, hi_f], in parent order
    and in steps of at most _CANDIDATES (or one cell).

    Yields (a, beta index, parent index, upto): every parent below upto has
    had all its candidates.  The (parent, beta) grid is laid out in blocks
    of _CELLS cells; the alpha-window [lo b - 1e-6, hi b + 1e-6] of a cell
    is shorter than 1 in almost every cell, so the nonempty windows (floored
    top >= bottom, then clipped to the annulus) are expanded with np.repeat.
    """
    nb = betas.size
    bf = betas.astype(float)
    step = max(1, _CELLS // nb)
    for p0 in range(0, lo_f.size, step):
        p1 = min(lo_f.size, p0 + step)
        top = hi_f[p0:p1, None] * bf
        top += 1e-6
        np.floor(top, out=top)
        bottom = lo_f[p0:p1, None] * bf
        bottom -= 1e-6
        cells = np.flatnonzero(top >= bottom)
        bi = cells % nb
        a_lo = np.maximum(np.ceil(bottom.ravel()[cells]), rad_lo[bi])
        a_hi = np.minimum(top.ravel()[cells], rad_hi[bi])
        nonempty = a_lo <= a_hi
        cells, a_lo = cells[nonempty], a_lo[nonempty].astype(np.int64)
        n_cand = a_hi[nonempty].astype(np.int64) - a_lo + 1
        ends = np.cumsum(n_cand)
        c0 = 0
        while True:
            base = int(ends[c0 - 1]) if c0 else 0
            c1 = max(c0 + 1, int(np.searchsorted(ends, base + _CANDIDATES, side="right")))
            c1 = min(c1, cells.size)
            n = n_cand[c0:c1]
            # a = the cell's a_lo + the candidate's rank within its cell
            a = np.repeat(a_lo[c0:c1] - (ends[c0:c1] - n - base), n) + np.arange(n.sum())
            owner, bi = np.divmod(np.repeat(cells[c0:c1], n), nb)
            yield a, bi, owner + p0, (p0 + int(cells[c1]) // nb if c1 < cells.size else p1)
            if c1 == cells.size:
                break
            c0 = c1


def _level_children(l: float, parents, parent_pw, e, exact: bool, prior: int):
    """Children of every parent at sector scale l: the primitive (a, b) of
    S(l, pi/4, pi/2) whose child interval sits fully inside the parent.

    parents is a (k, 2) array of slope pairs with their b^-e in parent_pw,
    or None for the root [0, 1].  Returns the (n, 2) children sorted by
    slope, their b^-e and each child's parent index.

    Candidates are filtered in floats with a safety margin; those near a
    boundary are settled by exact integer comparison.  After each candidate
    step the completed parents are checked in order: EmptyLevelError for
    one without children, ValueError once the tree, prior intervals
    included, passes _CHILD_GUARD.
    """
    b_min = max(1, int(math.floor(l * math.sqrt(0.5))))
    b_max = int(math.ceil(2.0 * l))
    betas = np.arange(b_min, b_max + 1, dtype=np.int64)
    bf = betas.astype(float)
    neg_e = -float(e)
    pw_beta = np.array([b ** neg_e for b in bf.tolist()])  # scalar pow, as the tests' scalar reference
    # the annulus l <= r <= 2l and 0 < a < b, per beta
    rad_lo = np.maximum(np.ceil(np.sqrt(np.maximum(l * l - bf * bf, 0.0)) - 1e-9), 1.0)
    rad_hi = np.minimum(np.floor(np.sqrt(np.maximum(4.0 * l * l - bf * bf, 0.0)) + 1e-9),
                        bf - 1.0)
    if parents is None:
        lo_f, hi_f = np.zeros(1), np.ones(1)
    else:
        s_p = parents[:, 0] / parents[:, 1]
        w_p = (1.0 / 18.0) * parent_pw
        lo_f, hi_f = s_p - w_p, s_p + w_p

    def parent_ends(i):
        if parents is None:
            return (0, 1), (1, 1)
        return _child_endpoints_int(int(parents[i, 0]), int(parents[i, 1]), e)

    counts = np.zeros(lo_f.size, dtype=np.int64)
    found = []
    done, total = 0, prior  # parents below done are checked
    for a, bi, owner, upto in _candidates(lo_f, hi_f, betas, rad_lo, rad_hi):
        b = betas[bi]
        r2 = a * a + b * b
        keep = (r2 >= l * l) & (r2 <= 4.0 * l * l) & (np.gcd(a, b) == 1)
        a, b, bi, owner = a[keep], b[keep], bi[keep], owner[keep]
        s = a / b
        w = (1.0 / 18.0) * pw_beta[bi]
        c_lo, c_hi = s - w, s + w
        p_lo, p_hi = lo_f[owner], hi_f[owner]
        if exact:
            keep = (c_lo >= p_lo - _FLOAT_MARGIN) & (c_hi <= p_hi + _FLOAT_MARGIN)
            band = keep & ((c_lo < p_lo + _FLOAT_MARGIN) | (c_hi > p_hi - _FLOAT_MARGIN))
            for j in np.flatnonzero(band).tolist():
                (plo, qlo), (phi, qhi) = parent_ends(int(owner[j]))
                (clo_p, c_q), (chi_p, _) = _child_endpoints_int(int(a[j]), int(b[j]), e)
                keep[j] = _leq(plo, qlo, clo_p, c_q) and _leq(chi_p, c_q, phi, qhi)
        else:
            keep = (c_lo >= p_lo) & (c_hi <= p_hi)
        found.append((a[keep], b[keep], pw_beta[bi[keep]], owner[keep]))
        np.add.at(counts, owner[keep], 1)
        total += int(keep.sum())
        # the first empty parent, unless the guard is passed at an earlier
        # one (that parent has children: it is at most the one at upto)
        empty = done + np.flatnonzero(counts[done:upto] == 0)
        if total > _CHILD_GUARD:
            cross = int(np.searchsorted(np.cumsum(counts), _CHILD_GUARD - prior, side="right"))
            if not empty.size or cross < empty[0]:
                raise ValueError("tree exceeds the interval-count guard")
        if empty.size:
            raise EmptyLevelError(
                f"parent ({lo_f[empty[0]]:.6g}, {hi_f[empty[0]]:.6g}) got no children "
                f"at sector scale l={l:g}"
            )
        done = upto
    a, b, pw, owner = (np.concatenate(cols) for cols in zip(*found))
    order = np.argsort(a / b, kind="stable")
    return np.stack([a, b], axis=1)[order], pw[order], owner[order]


def build_tree(kappa: float, eps: float, level_count: int, l_schedule) -> TreeLikeFamily:
    """Recursive slope-interval construction approximating the set of reals
    with approximation exponent kappa + eps, one sector scale per level.

    The children of a level are disjoint by theorem, so nothing checks it.
    They are distinct primitive a/b with l^2 <= a^2 + b^2 <= 4 l^2 and
    0 < a < b, so l/sqrt(2) < b <= 2l.  Two of them differ by
    |a/b - a'/b'| >= 1/(b b'), while their half-widths sum to
    (b^-e + b'^-e)/18 <= (b/b' + b'/b)/(18 b b') < 0.18/(b b'), as
    e = kappa + eps + 1 >= 2.  This holds across parents and in float mode
    too: the 82% margin dwarfs rounding.
    """
    if not (kappa >= 1.0 and eps >= 0.0 and math.isfinite(kappa + eps)):
        raise ValueError("need finite kappa >= 1 and eps >= 0")
    if not (1 <= level_count <= _LEVEL_GUARD):
        raise ValueError(f"level_count must be in [1, {_LEVEL_GUARD}]")
    l_schedule = [float(l) for l in l_schedule]
    if len(l_schedule) != level_count:
        raise ValueError("schedule length must equal level_count")
    if not all(l > 0.0 for l in l_schedule):  # NaN fails too
        raise ValueError("schedule entries must be positive")
    if any(l2 <= l1 for l1, l2 in zip(l_schedule, l_schedule[1:])):
        raise ValueError("schedule must be increasing")
    if any(l > _L_GUARD for l in l_schedule):
        raise ValueError(f"schedule exceeds the enumeration guard 2l <= {2 * _L_GUARD:g}")
    exact = float(kappa + eps).is_integer()
    e = int(kappa + eps) + 1 if exact else kappa + eps + 1.0
    parents, parent_pw = None, None
    levels = [np.empty((0, 2), dtype=np.int64)]
    diameters = [1.0]
    densities = []
    total = 0
    for level, l in enumerate(l_schedule, 1):
        try:
            pairs, pw, owner = _level_children(l, parents, parent_pw, e, exact, total)
        except EmptyLevelError as exc:
            sched = ",".join(f"{s:g}" for s in l_schedule)
            # at the root every primitive a/b in the sector has its interval
            # inside [0, 1], so only too small a scale leaves level 1 empty
            if level == 1:
                raise EmptyLevelError(
                    f"level 1 of schedule {sched}: the first sector scale l={l:g} is too small "
                    "to hold a primitive (a, b) with 0 < a < b and l <= |(a, b)| <= 2l") from None
            raise EmptyLevelError(f"level {level} of schedule {sched}: {exc}, at exponent kappa "
                                  f"+ eps + 1 = {e:g}; the schedule is too aggressive for this "
                                  "exponent") from None
        total += len(pairs)
        widths = (2.0 / 18.0) * pw
        mass = np.bincount(owner, weights=widths)  # every parent has children
        parent_len = 1.0 if parents is None else (2.0 / 18.0) * parent_pw
        densities.append(float(np.min(mass / parent_len)))
        diameters.append(float(widths.max()))
        levels.append(pairs)
        parents, parent_pw = pairs, pw
    return TreeLikeFamily(levels=levels, diameters=diameters, densities=densities)


class DimensionBound(NamedTuple):
    value: float
    series: tuple  # per-depth bounds, one entry per usable level


def dimension_lower_bound(fam: TreeLikeFamily) -> DimensionBound:
    """Finite-depth evaluation of the density/diameter dimension bound.

    dim >= 1 - sum_i log(1/Delta_i) / log(1/d_(j+1)), evaluated at each
    available depth; the reported value is the deepest one (the limsup of the
    infinite construction is replaced by the last finite level, and the whole
    series is returned so convergence is visible).
    """
    densities, diameters = fam.densities, fam.diameters
    if len(densities) < 1 or len(diameters) < len(densities) + 1:
        raise ValueError("need at least two levels (one density, two diameters)")
    series = []
    acc = 0.0
    for j, delta in enumerate(densities):
        acc += math.log(1.0 / delta)
        d_next = diameters[j + 1]
        series.append(1.0 - acc / math.log(1.0 / d_next))
    return DimensionBound(series[-1], tuple(series))


class CoverSumResult:
    __slots__ = ("decay", "convergent")
    decay: float  # fitted decay exponent of the dyadic block sums
    convergent: bool  # decay > 0.1

    def __init__(self, decay, convergent):
        self.decay, self.convergent = decay, convergent


@lru_cache(maxsize=1)
def _totients(R: int) -> np.ndarray:
    """phi(0..R), read-only: dim's two cover sums at one R share one sieve."""
    phi = np.arange(R + 1, dtype=np.int64)
    for p in primes_upto(R).tolist():
        phi[p::p] -= phi[p::p] // p
    phi.flags.writeable = False
    return phi


def cover_sum(kappa: float, delta: float, R: float) -> CoverSumResult:
    """Convergence of the cover sum over slope intervals of width
    2 b^-(kappa+1), fitted from its terms 2^delta phi(b) b^-((kappa+1) delta)
    up to b <= R, summed in the complete dyadic blocks 2^j <= b < 2^(j+1)
    with b >= 16 (two from R = 63 on).  Minus the least-squares slope of the
    blocks' log2 is the decay, which tends to delta (kappa+1) - 2.  One
    power of b underflows to 0 only past (kappa+1) delta = 60; a block of 0
    gives decay inf.  Convergent means decay > 0.1, a threshold that holds
    only with its floor R >= 63: at delta = 2/(kappa+1) the fit nears 0
    slowly, reading 0.070 at R = 63, 0.012 at 511 and 0.005 at 10^4 (for
    every kappa), so a threshold below 0.07 needs a higher floor on R.  At
    0.05 above that delta the fit reads at least 0.153.
    """
    if not (0.0 < delta <= 1.0) or not (1.0 <= kappa < math.inf):
        raise ValueError("need delta in (0, 1] and finite kappa >= 1")
    R = int(R)
    if not (63 <= R <= 10**5):
        raise ValueError("need 63 <= R <= 100000")
    phi = _totients(R)
    b = np.arange(2, R + 1, dtype=float)
    terms = 2.0 ** delta * phi[2:] * b ** (-(kappa + 1.0) * delta)
    blocks = np.bincount(np.frexp(b)[1] - 1, weights=terms)[4:(R + 1).bit_length() - 1]
    if not blocks.all():  # no log of 0, so no warning
        return CoverSumResult(decay=math.inf, convergent=True)
    j = np.arange(blocks.size) - (blocks.size - 1) / 2.0  # centred, so the fit is one ratio
    decay = -float((j * np.log2(blocks)).sum() / (j * j).sum())
    return CoverSumResult(decay=decay, convergent=decay > 0.1)


def assembled_dimension(kappa_list) -> float:
    """Hausdorff dimension of the locus of points failing the vector
    condition at exponents (kappa_1, ..., kappa_k): 2 + 2/min(kappa_j + 1)."""
    ks = [float(k) for k in kappa_list]
    if not ks or any(not (1.0 <= k < math.inf) for k in ks):
        raise ValueError("exponents must be finite and >= 1")
    return 2.0 + 2.0 / (min(ks) + 1.0)
