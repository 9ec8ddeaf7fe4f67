"""Sign-vector packing and midpoint-constrained plane fitting.

Points are plain float64 numpy arrays of length n.  A plane is the zero
set of ``1 + alpha . x``; the constant term is always exactly 1, so a
plane is just its coefficient vector ``alpha`` and a family of q planes
is a (q, n) matrix.  The residual of a point against a plane is
``1 + alpha . p`` (computed by :mod:`planesep.kernels`), its sign tells
which side the point is on, and the signs against a whole family, packed
into an int by :func:`pack_sign_bits`, are the point's orientation
vector: the quadrant address used for indexing.

All functions are pure; pass an :class:`~planesep.counters.OpCounters` to
have the arithmetic tallied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .counters import OpCounters
from .errors import DimensionMismatchError, InconsistentSystemError

INCIDENT = 0

FIT_RANK_RTOL = 1e-10
FIT_VERIFY_RTOL = 1e-6


@dataclass(frozen=True, slots=True)
class OrientationVector:
    """Packed sign sequence of a point against q planes: positive side -> 1,
    first plane's sign as the most significant of ``length`` bits."""

    length: int
    bits: int

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


def fit_plane_through(
    midpoints,
    dimension: int,
    rng,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Coefficients alpha of a plane 1 + alpha . m = 0 through k <= n midpoints.

    With n independent constraints the solution is unique (pivoted
    elimination); any remaining free directions are filled from ``rng``
    (a seed or a numpy Generator) with values in [-1, 1], then the
    constrained equations are re-verified.  Raises InconsistentSystemError
    when no plane with unit constant term satisfies the constraints; its
    ``rank`` is the midpoints' elimination rank, or None when only the
    re-verification failed.
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
            f"no plane with unit constant term passes through the {k} midpoints "
            f"(rank {rank})",
            rank=rank,
        )
    # re-verify every constrained equation against the produced coefficients
    resid = 1.0 + mids @ alpha
    scale = 1.0 + np.abs(mids) @ np.abs(alpha)
    if np.any(np.abs(resid) > FIT_VERIFY_RTOL * scale):
        raise InconsistentSystemError("solve residual exceeded verification tolerance")
    return alpha


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
