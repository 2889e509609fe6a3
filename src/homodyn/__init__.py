"""homodyn: a numerical laboratory for flows on the modular surface."""

__version__ = "0.1.0"

from .psl2 import (  # noqa: F401
    GroupElement,
    GroupError,
    IwasawaNAK,
    diagonal_flow,
    hyperbolic_distance,
    identity,
    unipotent,
)
from .surface import (  # noqa: F401
    ReductionError,
    SurfacePoint,
    cusp_norm,
    r_factor,
    reduce,
)
