"""The explicit exponent chain of the main theorem: the mixing rate
kappa_mix = 2s - epsilon, beta, and the sparse-power threshold gamma_0
along both published routes.  Scalar float arithmetic only, so the
constants command loads neither numpy nor the orbit machinery."""

from __future__ import annotations

import math
from typing import NamedTuple


class ExponentBundle(NamedTuple):
    """The explicit exponents: the mixing rate and the sparse-power threshold
    computed along both published routes."""

    kappa_mix: float
    beta: float
    gamma0_spectral: float     # min_j s^2 / ((s+4)(kappa_j+4))
    gamma0_progression: float  # min_j 2 beta / (kappa_j+4)


def exponent_bundle(s: float, kappa_list, epsilon: float = 1e-3) -> ExponentBundle:
    """Evaluate the exponent chain for spectral parameter s and cusp types.

    epsilon is the slack in the mixing exponent kappa_mix = 2s - epsilon;
    epsilon = 0 is allowed so the two gamma_0 routes can be compared exactly
    (they coincide algebraically at kappa_mix = 2s).
    """
    if not (0.0 < s <= 0.5):
        raise ValueError("spectral parameter must lie in (0, 1/2]")
    if not (0.0 <= epsilon < 2.0 * s):
        raise ValueError("need 0 <= epsilon < 2s")
    kappa_list = tuple(float(k) for k in kappa_list)
    if not kappa_list or any(not (1.0 <= k < math.inf) for k in kappa_list):
        raise ValueError("cusp exponents must be finite and >= 1")
    kappa_mix = 2.0 * s - epsilon
    beta = s * kappa_mix / (2.0 * (8.0 + kappa_mix))
    g_spec = min(s * s / ((s + 4.0) * (k + 4.0)) for k in kappa_list)
    g_prog = min(2.0 * beta / (k + 4.0) for k in kappa_list)
    return ExponentBundle(kappa_mix=kappa_mix, beta=beta,
                          gamma0_spectral=g_spec, gamma0_progression=g_prog)
