"""planesep: exact integer storage and retrieval via hyperplane sign vectors.

Integers become points whose coordinates are their digits; a small family
of hyperplanes gives every stored point a unique packed sign vector, and
membership queries reduce to one residual sweep plus one hash probe.
"""

from .counters import OpCounters
from .errors import (
    DigitOverflowError,
    DimensionMismatchError,
    DuplicatePointError,
    GeometryExhaustedError,
    IncidentPointError,
    InconsistentSystemError,
    NotADigitPointError,
    PlanesepError,
    RepositoryFormatError,
)
from .geometry import OrientationVector, fit_plane_through, shift_midpoints
from .repository import (
    IntegerMapping,
    Repository,
    build,
    grow_dimension,
    insert,
    load,
    map_to_point,
    point_to_integer,
    query,
    save,
)
from .separator import SeparationState, emit_plane, finalize, offer, run

__version__ = "0.1.0"

__all__ = [
    "OpCounters",
    "PlanesepError",
    "DimensionMismatchError",
    "DuplicatePointError",
    "IncidentPointError",
    "InconsistentSystemError",
    "GeometryExhaustedError",
    "DigitOverflowError",
    "NotADigitPointError",
    "RepositoryFormatError",
    "OrientationVector",
    "fit_plane_through",
    "shift_midpoints",
    "SeparationState",
    "offer",
    "emit_plane",
    "finalize",
    "run",
    "IntegerMapping",
    "Repository",
    "map_to_point",
    "point_to_integer",
    "build",
    "query",
    "insert",
    "grow_dimension",
    "save",
    "load",
    "__version__",
]
