"""Planes, residuals, sign vectors, and midpoint-constrained plane fitting.

Points are plain float64 numpy arrays of length n.  A plane is the zero
set of ``1 + alpha . x``; the constant term is always exactly 1, so a
plane is just its coefficient vector ``alpha``.  The residual of a point
against a plane is ``1 + alpha . p``, its sign tells which side the point
is on, and the sequence of signs against a whole plane family is the
point's orientation vector: the quadrant address used for indexing.

All functions are pure; pass an :class:`~planesep.counters.OpCounters` to
have the arithmetic tallied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .counters import OpCounters
from .errors import (
    DimensionMismatchError,
    IncidentPointError,
    InconsistentSystemError,
)

INCIDENT = 0

FIT_RANK_RTOL = 1e-10
FIT_VERIFY_RTOL = 1e-6


@dataclass
class Plane:
    """Coefficients of 1 + alpha . x = 0; saturated planes are never re-fit."""

    alpha: np.ndarray
    saturated: bool = False

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.ndim != 1:
            raise ValueError("plane coefficients must be a 1-d vector")
        if not np.any(self.alpha != 0.0):
            raise ValueError("plane coefficients must not all be zero")

    @property
    def dimension(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class OrientationVector:
    """Packed sign sequence of a point against q planes.

    Bit convention: positive side -> 1, negative side -> 0, with the first
    plane's sign in the most significant position.  That makes integer
    comparison of the packed value the dictionary order on the sign
    sequence, and appending a plane a shift-and-or.
    """

    length: int
    bits: int = field(default=0)

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.bits < (1 << max(self.length, 1)):
            raise ValueError("packed bits out of range for length")

    @classmethod
    def from_signs(cls, signs) -> "OrientationVector":
        signs = np.asarray(signs)
        if np.any(signs == INCIDENT):
            raise ValueError("cannot pack an incident (zero) sign")
        return cls(length=signs.shape[0], bits=pack_sign_bits(signs > 0))

    def signs(self) -> np.ndarray:
        out = np.empty(self.length, dtype=np.int8)
        for i in range(self.length):
            out[i] = 1 if (self.bits >> (self.length - 1 - i)) & 1 else -1
        return out

    def append(self, sign: int) -> "OrientationVector":
        if sign == INCIDENT:
            raise ValueError("cannot append an incident sign")
        return OrientationVector(self.length + 1, (self.bits << 1) | (1 if sign > 0 else 0))

    def prefix(self, k: int) -> "OrientationVector":
        if not 0 <= k <= self.length:
            raise ValueError("prefix length out of range")
        return OrientationVector(k, self.bits >> (self.length - k))

    def to_hex(self) -> str:
        return format(self.bits, "x")

    @classmethod
    def from_hex(cls, text: str, length: int) -> "OrientationVector":
        return cls(length, int(text, 16))

    def __lt__(self, other: "OrientationVector") -> bool:
        if self.length != other.length:
            raise ValueError("dictionary order is defined for equal lengths")
        return self.bits < other.bits

    def __len__(self) -> int:
        return self.length


def pack_sign_bits(positive: np.ndarray) -> int:
    """Pack a boolean positive-side array into an int, first plane as MSB."""
    q = positive.shape[0]
    if q == 0:
        return 0
    return int.from_bytes(np.packbits(positive).tobytes(), "big") >> (-q % 8)


def signs_from_residuals(residuals: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise sign with an incidence band: |r| <= epsilon maps to 0."""
    out = np.where(residuals > epsilon, 1, -1).astype(np.int8)
    out[np.abs(residuals) <= epsilon] = INCIDENT
    return out


def sign_of(r: float, epsilon: float):
    """Side of a plane from a residual: +1, -1, or INCIDENT inside the band."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if r > epsilon:
        return 1
    if r < -epsilon:
        return -1
    return INCIDENT


def _planes_matrix(planes) -> np.ndarray:
    if isinstance(planes, np.ndarray):
        return planes
    if len(planes) == 0:
        return np.empty((0, 0))
    return np.stack([pl.alpha for pl in planes])


def evaluate_residual(plane: Plane, p: np.ndarray, counters: OpCounters | None = None) -> float:
    """Residual 1 + alpha . p; costs n multiplications and n additions."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != plane.alpha.shape:
        raise DimensionMismatchError(
            f"point has dimension {p.shape[0]}, plane has {plane.dimension}"
        )
    r = float(kernels.residuals_plane(p[None, :], plane.alpha)[0])
    if counters is not None:
        n = p.shape[0]
        counters.multiplications += n
        counters.additions += n
        counters.ov_multiplications += n
    return r


def position_vector(planes, p: np.ndarray, counters: OpCounters | None = None) -> np.ndarray:
    """Residuals of one point against a plane family; exactly n*q mults and adds."""
    p = np.asarray(p, dtype=np.float64)
    mat = _planes_matrix(planes)
    if mat.shape[0] == 0:
        return np.empty(0)
    if mat.shape[1] != p.shape[0]:
        raise DimensionMismatchError(
            f"point has dimension {p.shape[0]}, planes have {mat.shape[1]}"
        )
    r = kernels.residuals_point(mat, p)
    if counters is not None:
        nq = mat.shape[0] * mat.shape[1]
        counters.multiplications += nq
        counters.additions += nq
        counters.ov_multiplications += nq
    return r


def orientation_vector(
    planes, p: np.ndarray, epsilon: float, counters: OpCounters | None = None
) -> OrientationVector:
    """Sign vector of a point against a plane family.

    Raises IncidentPointError if the point sits within epsilon of any
    plane; the caller must remedy the incidence before storing the point.
    """
    r = position_vector(planes, p, counters)
    signs = signs_from_residuals(r, epsilon)
    if counters is not None:
        counters.sign_evals += r.shape[0]
    incident = np.nonzero(signs == INCIDENT)[0]
    if incident.size:
        raise IncidentPointError(
            f"point lies within {epsilon} of plane(s) {incident.tolist()}"
        )
    return OrientationVector(length=r.shape[0], bits=pack_sign_bits(signs > 0))


def fit_plane_through(
    midpoints,
    dimension: int,
    rng,
    counters: OpCounters | None = None,
) -> Plane:
    """Fit 1 + alpha . m = 0 through k <= n midpoints.

    With n independent constraints the solution is unique (pivoted
    elimination); any remaining free directions are filled from ``rng``
    (a seed or a numpy Generator) with values in [-1, 1], then the
    constrained equations are re-verified.  Raises InconsistentSystemError
    when no plane with unit constant term satisfies the constraints.
    """
    mids = np.asarray(midpoints, dtype=np.float64)
    if mids.ndim == 1:
        mids = mids[None, :]
    k, n = mids.shape
    if n != dimension:
        raise DimensionMismatchError(f"midpoints have dimension {n}, expected {dimension}")
    if not 1 <= k <= n:
        raise ValueError(f"need between 1 and {n} midpoints, got {k}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    free_vals = rng.uniform(-1.0, 1.0, size=n)
    rhs = np.full(k, -1.0)
    alpha, status, rank, mults, adds = kernels.gauss_solve(
        mids, rhs, free_vals, FIT_RANK_RTOL, 1e-8
    )
    if counters is not None:
        counters.multiplications += mults
        counters.additions += adds
        counters.solve_multiplications += mults
    if status != kernels.GAUSS_OK:
        raise InconsistentSystemError(
            f"no plane with unit constant term passes through the {k} midpoints"
        )
    # re-verify every constrained equation against the produced coefficients
    resid = 1.0 + mids @ alpha
    scale = 1.0 + np.abs(mids) @ np.abs(alpha)
    if np.any(np.abs(resid) > FIT_VERIFY_RTOL * scale):
        raise InconsistentSystemError("solve residual exceeded verification tolerance")
    if not np.any(alpha != 0.0):
        # all constraints vanished and every free draw was zero; cannot occur
        # with a continuous rng, guarded for completeness
        raise InconsistentSystemError("degenerate all-zero plane")
    return Plane(alpha=alpha, saturated=(k == dimension))


def shift_midpoints(midpoints, normal: np.ndarray, delta: float):
    """Translate midpoints by delta along the unit direction of ``normal``."""
    mids = np.asarray(midpoints, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    norm = float(np.linalg.norm(normal))
    if norm == 0.0:
        raise ValueError("shift direction must be nonzero")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return mids + (delta / norm) * normal
