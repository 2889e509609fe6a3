"""homodyn: a numerical laboratory for flows on the modular surface."""

__version__ = "0.1.0"

from .psl2 import (  # noqa: F401
    GroupElement,
    GroupError,
    IwasawaNAK,
    UpperHalfPoint,
    diagonal_flow,
    hyperbolic_distance,
    identity,
    rotation,
    unipotent,
)
from .surface import (  # noqa: F401
    ReductionError,
    SurfacePoint,
    cusp_norm,
    dist,
    geodesic_flow,
    horocycle_flow,
    in_S_delta,
    r_factor,
    reduce,
)
