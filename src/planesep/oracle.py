"""Independent ground truth: prime sieve, separation verdicts, threshold
planes, and the least plane count any separator needs.

Everything here recomputes from first principles with plain numpy and
shares no state with the separator, so tests can use it to check builds
without circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_VERIFY_BLOCK = 4096  # points whose residuals verify_separation computes together


@dataclass
class SieveTable:
    limit: int
    is_prime: np.ndarray

    def primes(self) -> np.ndarray:
        return np.nonzero(self.is_prime)[0]

    def count(self) -> int:
        return int(self.is_prime.sum())


def sieve(limit: int) -> SieveTable:
    """Classic composite-marking sieve up to and including limit."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return SieveTable(limit=limit, is_prime=flags)


@dataclass
class Verdict:
    ok: bool
    incidences: list[tuple[int, int]] = field(default_factory=list)
    collisions: list[tuple[int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def verify_separation(points, planes: np.ndarray, epsilon: float) -> Verdict:
    """Check that the planes, a (q, n) coefficient matrix, give every point a
    clear, unique sign vector.

    Recomputes all residuals from scratch, ``_VERIFY_BLOCK`` points at a
    time: a point within epsilon of any plane is an incidence failure, and
    two points with identical sign rows are a collision.  Each block's
    sign rows are kept packed into bits, and any colliding pair shows up
    adjacently once the packed rows are sorted, so this reports the same
    failures as comparing all pairs without holding the N x q residuals.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    mat = np.asarray(planes, dtype=np.float64)
    verdict = Verdict(ok=True)
    npts = pts.shape[0]
    if mat.shape[0] == 0:
        if npts > 1:
            verdict.ok = False
            verdict.collisions = [(i, i + 1) for i in range(npts - 1)]
        return verdict

    # each row's sign bits, first plane first, padded to whole big-endian
    # words: rows of words sort as the rows of bits do
    words = -(-mat.shape[0] // 64)
    packed = np.zeros((npts, 8 * words), np.uint8)
    for start in range(0, npts, _VERIFY_BLOCK):
        resid = 1.0 + pts[start:start + _VERIFY_BLOCK] @ mat.T
        for i, j in zip(*np.nonzero(np.abs(resid) <= epsilon)):
            verdict.ok = False
            verdict.incidences.append((start + int(i), int(j)))
        bits = np.packbits(resid > 0, axis=1)
        packed[start:start + len(bits), :bits.shape[1]] = bits

    rows = packed.view(">u8")
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ranked = rows[order]
    same = np.all(ranked[1:] == ranked[:-1], axis=1)
    for k in np.nonzero(same)[0]:
        verdict.ok = False
        verdict.collisions.append((int(order[k]), int(order[k + 1])))
    return verdict


def plane_count_lower_bound(count: int, n: int) -> int:
    """Least q with sum over i <= n of C(q, i) >= count.

    q hyperplanes cut R^n into at most that many cells (Buck, *Partition
    of space*, 1943), and separated points need distinct cells, so no
    family of fewer planes separates ``count`` points in n dimensions.
    For q <= n the sum is 2^q, so a bound of at most n is ceil(log2 count).
    """
    q = 0
    while sum(math.comb(q, i) for i in range(n + 1)) < count:
        q += 1
    return q


def coordinate_plane_separator(n: int, base: int = 10) -> np.ndarray:
    """Axis-aligned threshold planes x_i = k + 1/2 for every digit gap, as a
    ((base-1)*n, n) coefficient matrix, coordinate-major.

    The planes separate every pair of distinct digit points:
    two such points differ in some coordinate, and a threshold between the
    two digit values puts them on opposite sides.  Serves as a guaranteed
    (if wasteful) baseline family.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if base < 2:
        raise ValueError("base must be at least 2")
    planes = np.zeros(((base - 1) * n, n))
    for i in range(n):
        for k in range(base - 1):
            planes[i * (base - 1) + k, i] = -1.0 / (k + 0.5)
    return planes
