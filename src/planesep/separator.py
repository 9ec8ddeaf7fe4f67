"""Incremental separation of a point stream by hyperplanes.

Points are offered one at a time, in queue order, though the stream
evaluates them in blocks and places each block's points in one loop.  A
point whose sign vector is new is stored immediately; a point that
lands in an occupied quadrant is parked on the occupant's pending chain
(up to three deep, further arrivals are recycled to the caller).
Whenever n chains are pending, one plane fitted through the n segment
midpoints separates every anchor from its first neighbour at once, and
every stored sign vector gains one trailing bit.  Existing bits are
never rewritten, which is what makes later insertion resume-free.

The state is single-owner and mutated sequentially; once finalized it is
safe for concurrent readers.  A read of the index's key order may fill
its cache, and the first whole-key read folds the key tails, but each
replaces one attribute in one assignment with a value computed from the
unchanged keys, so concurrent readers compute and see the same order.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, repeat

import numpy as np

from . import kernels
from .config import RunConfig
from .counters import OpCounters
from .errors import (
    DimensionMismatchError,
    DuplicatePointError,
    GeometryExhaustedError,
    IncidentPointError,
    InconsistentSystemError,
)
from .geometry import fit_plane_through, pack_sign_bits, shift_midpoints
from .geometry import signs_from_residuals  # only for bench/spans.py, which traces this name

_INIT_DRAW_BUDGET = 512
_OFFER_BLOCK = 256  # points evaluated together by stream_points
_NUDGE_STEPS = (3.0, -3.0, 9.0, -9.0, 27.0, -27.0, 81.0, -81.0)
_MIN_SLOTS = 8
_FIB = 0x9E3779B97F4A7C15  # 2**64 / golden ratio: multiplicative hashing (Knuth)
_U64 = (1 << 64) - 1


class OvIndex:
    """Map from packed sign vectors to point ids, hash-addressed by key prefix.

    This is the only place a stored point's sign vector is held.  Point
    ids are 0, 1, 2, ... in the order points are stored, and each key is
    held at its point's id, so storing a point moves no other entry and
    :meth:`lookup` answers "which stored point has key x?" with one
    slot probe.

    A q-bit key is held in two parts: a Python int *head*, its first
    q - t bits, and a *tail*, its last t <= 64 bits, MSB-aligned in a
    uint64 word of an ``array("Q")`` indexed by point id.  A new plane's
    bit lands at tail bit 63 - t of every key, so appending a plane is
    one numpy OR of the plane's bit column into the tail array, and
    moves nothing.  The heads absorb the tails, in one pass over the
    keys, only when the tail word is full, when the slots are rebuilt,
    and when whole keys are read, by :meth:`items` and :meth:`renumber`.
    A bulk-loaded index starts with empty tails.

    The top P bits of a key, its prefix, pick one of S = 2**b slots: the
    top b bits of ``hash(prefix) * _FIB`` modulo 2**64, which spread every
    bit of the hash over the slot.  (An int below 2**61 hashes to itself,
    and its low bits are the last planes' bits, on which most points
    agree.)  ``_slots`` holds the last point stored in each slot and
    ``_next`` links each point to the one stored in its slot before it
    (-1 ends a chain): two int32 arrays, where a dict would hold a Python
    int or two per point.  The slots are rebuilt, with P = q and S the
    least power of two >= 4N (at least 8), when q reaches 2P and when N
    reaches S/2; a rebuild folds the tails first, so the head always
    holds the prefix, and a new plane's bit, which lies below it, moves
    no point to another slot.  Keys are distinct, so just after a rebuild
    two keys share a slot only when their hashes collide.  A probe walks
    one chain, comparing head and then tail; each key it compares is
    tallied as the bits examined, up to and including the first
    differing bit (all q on a match).

    :meth:`items` gives the keys in dictionary order, as ``save`` writes
    them, from a cached array of point ids in key order.  Storing a point
    does not touch it: the first read after new ids were stored sorts
    them in, and appending a plane keeps the distinct keys in the same
    order, so a plane leaves it valid.
    """

    __slots__ = ("_keys", "_q", "_bits", "_spread", "_slots", "_next", "_order")

    def __init__(self):
        self._hold_sorted([], 0)

    @classmethod
    def from_sorted(cls, keys: list[int], q: int) -> "OvIndex":
        """Index over strictly increasing q-bit keys, key i belonging to point id i."""
        index = cls()
        index._hold_sorted(keys, q)
        return index

    def _hold_sorted(self, keys: list[int], q: int) -> None:
        """Hold strictly increasing q-bit keys, key i belonging to point id i."""
        # heads and tails by point id, and the tail width t: one tuple, which
        # a fold replaces at once, so a concurrent lookup never mixes layouts
        self._keys = (keys, array("Q", bytes(8 * len(keys))), 0)
        self._q = q
        self._rehash()
        # the first len(_order) ids in dictionary order of their keys
        self._order = array("i", np.arange(len(keys), dtype=np.int32).tobytes())

    def __len__(self) -> int:
        return len(self._keys[0])

    def _fold(self) -> None:
        """Move every key's tail bits into its head, in one pass over the keys."""
        heads, tails, t = self._keys
        if t:
            low = (np.frombuffer(tails, np.uint64) >> np.uint64(64 - t)).tolist()
            heads = list(map(operator.or_, map(operator.lshift, heads, repeat(t)), low))
            self._keys = (heads, array("Q", bytes(8 * len(heads))), 0)

    def _rehash(self) -> None:
        """Slot every key on all q of its bits, in at least 4 slots per key."""
        self._fold()
        keys = self._keys[0]
        n = len(keys)
        self._bits = self._q
        size = max(_MIN_SLOTS, 1 << (4 * n - 1).bit_length())
        self._spread = 65 - size.bit_length()  # slot = top b bits of the 64-bit product
        hashes = np.fromiter(map(hash, keys), np.uint64, n)
        slots = (hashes * np.uint64(_FIB) >> np.uint64(self._spread)).astype(np.intp)
        first = np.full(size, -1, np.int32)
        np.maximum.at(first, slots, np.arange(n, dtype=np.int32))  # a slot's last id heads it
        # each id in a shared slot links to the id before it there
        shared = np.flatnonzero(np.bincount(slots, minlength=size)[slots] > 1)
        shared = shared[np.argsort(slots[shared], kind="stable")]
        linked = slots[shared[1:]] == slots[shared[:-1]]
        nxt = np.full(n, -1, np.int32)
        nxt[shared[1:][linked]] = shared[:-1][linked]
        self._slots = array("i", first.tobytes())
        self._next = array("i", nxt.tobytes())

    def _walk(self, pid: int, keys, packed: int, counters: OpCounters) -> int:
        """The id on the chain from ``pid`` whose key in ``keys`` is ``packed``, or -1."""
        heads, tails, t = keys
        xh, xt = packed >> t, (packed << (64 - t)) & _U64
        nxt = self._next
        # a head comparison examines top - (head ^ xh).bit_length() bits
        top = self._q - t + 1
        bits = 0
        while pid >= 0:
            head = heads[pid]
            if head != xh:
                bits += top - (head ^ xh).bit_length()
            else:
                tail = tails[pid]
                if tail == xt:
                    counters.bit_comparisons += bits + self._q
                    return pid
                bits += top + 64 - (tail ^ xt).bit_length()
            pid = nxt[pid]
        counters.bit_comparisons += bits
        return -1

    def lookup(self, packed: int, q: int, counters: OpCounters) -> int:
        """The point id stored under ``packed``, or -1 when it is absent."""
        pid = self._slots[(hash(packed >> (q - self._bits)) * _FIB & _U64) >> self._spread]
        return pid if pid < 0 else self._walk(pid, self._keys, packed, counters)

    def insert(self, packed: int, q: int, counters: OpCounters) -> int:
        """Store ``packed`` for the next point id, len(self), and return it.

        The key's chain is walked, and tallied, to check the key is new.
        """
        if q != self._q:
            # an empty index takes the width of its first key
            if len(self):
                raise AssertionError(f"{q}-bit key inserted among {self._q}-bit keys")
            self._hold_sorted([], q)
        slot = (hash(packed >> (q - self._bits)) * _FIB & _U64) >> self._spread
        keys = heads, tails, t = self._keys
        first = self._slots[slot]
        if first >= 0 and self._walk(first, keys, packed, counters) >= 0:
            raise AssertionError("duplicate sign vector in index")
        pid = len(heads)
        heads.append(packed >> t)
        tails.append((packed << (64 - t)) & _U64)
        self._next.append(first)
        self._slots[slot] = pid
        if 2 * len(heads) >= len(self._slots):
            self._rehash()
        return pid

    def extend_all(self, bit_by_id: np.ndarray) -> None:
        """Append one bit to every key, bit_by_id[i] to point i's."""
        if self._keys[2] == 64:
            self._fold()
        heads, tails, t = self._keys
        column = np.frombuffer(tails, np.uint64)
        column |= np.asarray(bit_by_id, np.uint64) << np.uint64(63 - t)
        del column  # an exported buffer cannot grow: release it before the next insert
        self._keys = (heads, tails, t + 1)
        self._q += 1
        if self._q >= 2 * self._bits:
            self._rehash()

    def _sorted_ids(self) -> array:
        """The point ids in dictionary order of their keys, the tails folded.

        The ids stored since the order was last computed are sorted in
        with it; the ids already in order form one run, which the sort
        merges, so after a few inserts the sort is one pass over the keys.
        """
        self._fold()  # whole keys sort faster as ints than as (head, tail) pairs
        order = self._order
        if len(order) < len(self):
            new = range(len(order), len(self))
            order = array("i", sorted(chain(order, new), key=self._keys[0].__getitem__))
            self._order = order
        return order

    def items(self):
        """(packed sign vector, point id) pairs in dictionary order."""
        order = self._sorted_ids()
        return zip(map(self._keys[0].__getitem__, order), order)

    def renumber(self) -> np.ndarray:
        """Give point id i to the i-th key in dictionary order, as
        :meth:`from_sorted` numbers them, and return each point's old id."""
        order = self._sorted_ids()
        old_ids = np.frombuffer(order, np.int32)
        keys = list(map(self._keys[0].__getitem__, order))
        self._hold_sorted(keys, self._q)  # which frees the old keys before rebuilding the slots
        return old_ids


@dataclass
class PendingChain:
    """A stored anchor plus the one to three unplaced points in its quadrant.

    ``members`` holds the waiting points in arrival order; the first is
    the anchor's neighbour whose segment midpoint the next plane is fitted
    through.
    """

    anchor_id: int
    anchor_key: int  # the anchor's packed sign vector at the current q
    midpoint_ab: np.ndarray  # midpoint of the anchor and members[0]
    members: list[np.ndarray]


@dataclass
class PlaneReport:
    plane_index: int
    constraint_count: int
    retries: int
    delta: float
    promoted_ids: list[int]
    rehomed: int


class OfferKind(Enum):
    ACCEPTED = "accepted"
    PENDING = "pending"
    RECYCLED = "recycled"
    PLANE_EMITTED = "plane_emitted"


@dataclass
class OfferResult:
    kind: OfferKind
    reports: tuple[PlaneReport, ...] = ()


class SeparationState:
    """Live algorithm state: stored points, their sign vectors, pending chains.

    ``seed`` is anything :func:`numpy.random.default_rng` takes (a
    ``Generator`` is used as is); see :meth:`reseed`.
    """

    def __init__(self, n: int, seed):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        self.config = RunConfig()
        self.reseed(seed)
        self.counters = OpCounters()

        self._alpha_buf = np.empty((8, n))
        self._saturated: list[bool] = []
        self.q = 0
        self.q0 = 0

        self._pts_buf = np.empty((16, n))
        self.count = 0
        self.index = OvIndex()

        # pending chains keyed by anchor id, in the order they were opened:
        # the order emit_plane takes its batch in
        self.chains: dict[int, PendingChain] = {}

        self.offers = 0
        self.recycle_events = 0

    def reseed(self, seed) -> None:
        """Draw from ``numpy.random.default_rng(seed)`` from now on.

        The generator is made at the first draw, so a caller that draws
        nothing does not pay for seeding it.
        """
        self._seed = seed
        self._rng: np.random.Generator | None = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    # -- views ------------------------------------------------------------

    @property
    def plane_matrix(self) -> np.ndarray:
        return self._alpha_buf[: self.q]

    @property
    def points(self) -> np.ndarray:
        return self._pts_buf[: self.count]

    @property
    def counter(self) -> int:
        return len(self.chains)

    @property
    def q_emitted(self) -> int:
        return self.q - self.q0

    @property
    def packed(self) -> list[int]:
        """Each stored point's packed sign vector, by point id.

        An O(N) copy out of the index, for tests and inspection only.
        """
        out = [0] * self.count
        for key, pid in self.index.items():
            out[pid] = key
        return out

    # -- mutation helpers ---------------------------------------------------

    def _append_plane(self, alpha: np.ndarray, saturated: bool) -> int:
        if self.q == self._alpha_buf.shape[0]:
            grown = np.empty((2 * self.q, self.n))
            grown[: self.q] = self._alpha_buf
            self._alpha_buf = grown
        self._alpha_buf[self.q] = alpha
        self._saturated.append(saturated)
        self.q += 1
        return self.q - 1

    def _add_point(self, p: np.ndarray, packed: int) -> int:
        if self.count == self._pts_buf.shape[0]:
            grown = np.empty((2 * self.count, self.n))
            grown[: self.count] = self._pts_buf
            self._pts_buf = grown
        self._pts_buf[self.count] = p
        self.index.insert(packed, self.q, self.counters)
        self.count += 1
        return self.count - 1

    def _midpoint(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.counters.multiplications += self.n
        self.counters.additions += self.n
        return 0.5 * (a + b)

    def _sweep(self, mat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Residuals of many points against one plane, tallied as extension work."""
        r = kernels.residuals_plane(mat, alpha)
        rows = mat.shape[0]
        c = self.counters
        c.multiplications += rows * self.n
        c.additions += rows * self.n
        c.extension_multiplications += rows * self.n
        c.sign_evals += rows
        return r

    def _evaluate(self, pts: np.ndarray) -> tuple[np.ndarray, list[int | None]]:
        """Residuals of a block of points at the current planes, and their keys.

        One matmul, one band test and one packbits for the whole block.  A
        row with a residual inside the incidence band gets the key None: its
        plane must be nudged first.  Nothing is tallied here; the window
        that places the points tallies their evaluations.
        """
        r = kernels.residuals_block(pts, self.plane_matrix)
        q = self.q
        if not q:
            return r, [0] * len(pts)
        eps = self.config.epsilon
        width = (q + 7) // 8
        shift = -q % 8
        raw = np.packbits(r > eps, axis=1).tobytes()
        keys: list[int | None] = [
            int.from_bytes(raw[i:i + width], "big") >> shift for i in range(0, len(raw), width)
        ]
        band = np.abs(r) <= eps
        if np.count_nonzero(band):
            for i in np.flatnonzero(band.any(axis=1)).tolist():
                keys[i] = None
        return r, keys

    def _pending_points(self) -> np.ndarray | None:
        """Every pending point, chain by chain in member order; None if none."""
        pend = [pt for ch in self.chains.values() for pt in ch.members]
        return np.stack(pend) if pend else None

    def _check_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.n,):
            raise DimensionMismatchError(f"point shape {p.shape} does not match n={self.n}")
        if not np.isfinite(p).all():
            raise ValueError("point coordinates must be finite")
        return p

    def _check_block(self, points) -> np.ndarray:
        """Points as an (N, n) float array; a bad point raises what offer raises for it."""
        try:
            pts = np.asarray(points, dtype=np.float64)
            ok = pts.shape == (len(pts), self.n) and np.isfinite(pts).all()
        except ValueError:  # rows of unequal lengths
            ok = False
        if not ok:
            for p in points:
                self._check_point(p)
        return pts


# ---------------------------------------------------------------------------
# initial plane accretion
# ---------------------------------------------------------------------------

def _collision_groups(packed: list[int]) -> list[list[int]]:
    seen: dict[int, list[int]] = {}
    for i, key in enumerate(packed):
        seen.setdefault(key, []).append(i)
    return [ids for ids in seen.values() if len(ids) > 1]


def _draw_split_plane(state: SeparationState, pts: np.ndarray, pair, attempt: int):
    """One candidate plane through the data region; None if the draw degenerates.

    Even attempts cut anywhere in the bounding box; odd attempts aim at a
    specific colliding pair, passing near the pair's midpoint with a normal
    close to the segment direction (jittered so coefficients stay generic).
    """
    rng = state.rng
    n = state.n
    if pair is not None and attempt % 2 == 1:
        u, v = pts[pair[0]], pts[pair[1]]
        seg = v - u
        c = 0.5 * (u + v) + rng.uniform(-0.25, 0.25) * seg
        normal = seg + 0.05 * np.linalg.norm(seg) * rng.standard_normal(n)
    else:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = hi - lo
        # pad the box so degenerate extents (single point, shared digit)
        # cannot force the plane through a data point
        pad = 0.25 * np.where(span > 0, span, 1.0)
        c = rng.uniform(lo - pad, hi + pad)
        normal = rng.standard_normal(n)
    norm = np.linalg.norm(normal)
    if norm < 1e-12:
        return None
    normal = normal / norm
    denom = float(normal @ c)
    if abs(denom) < 1e-9:
        return None
    return -normal / denom


def _accrete_initial(state: SeparationState, points0: np.ndarray) -> None:
    """Seed the state with random saturated planes giving all points distinct
    sign vectors, with at least ceil(log2(max(N0, n+1))) planes."""
    n0 = points0.shape[0]
    if n0 == 0:
        return
    q_min = max(1, math.ceil(math.log2(max(n0, state.n + 1))))
    packed = [0] * n0
    eps = state.config.epsilon

    rounds = 0
    while True:
        groups = _collision_groups(packed)
        if not groups and state.q >= q_min:
            break
        rounds += 1
        if rounds > n0 + q_min + 8:
            raise GeometryExhaustedError("initial plane accretion failed to converge")
        pair = groups[0][:2] if groups else None
        for attempt in range(_INIT_DRAW_BUDGET):
            alpha = _draw_split_plane(state, points0, pair, attempt)
            if alpha is None:
                continue
            r = state._sweep(points0, alpha)
            if np.any(np.abs(r) <= eps):
                continue
            bits = r > 0
            if groups:
                splits = any(
                    len({bool(bits[i]) for i in g}) > 1 for g in groups
                )
                if not splits:
                    continue
            state._append_plane(alpha, saturated=True)
            for i in range(n0):
                packed[i] = (packed[i] << 1) | int(bits[i])
            break
        else:
            raise GeometryExhaustedError(
                f"could not draw a splitting plane after {_INIT_DRAW_BUDGET} attempts"
            )

    state.q0 = state.q
    for i in range(n0):
        state._add_point(points0[i], packed[i])


def _require_distinct(pts: np.ndarray) -> None:
    if pts.shape[0] < 2:
        return
    order = np.lexsort(pts.T)
    eq = np.all(pts[order[1:]] == pts[order[:-1]], axis=1)
    if np.any(eq):
        i = int(np.nonzero(eq)[0][0])
        raise DuplicatePointError(
            f"points {order[i]} and {order[i + 1]} are coordinate-identical"
        )


def _check_points(points, n: int) -> np.ndarray:
    """Input as an (N, n) float array of finite, distinct rows; empty input is N=0."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(f"expected shape (N, {n}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    _require_distinct(pts)
    return pts


def init(points0, n: int, seed) -> SeparationState:
    """Fresh state seeded with enough random planes to tell the first batch apart.

    ``seed`` goes to :func:`numpy.random.default_rng`; a ``Generator`` is used as is.
    """
    state = SeparationState(n=n, seed=seed)
    _accrete_initial(state, _check_points(points0, n))
    return state


# ---------------------------------------------------------------------------
# offer
# ---------------------------------------------------------------------------

def _nudge_plane(state: SeparationState, j: int, p: np.ndarray, r_p: float) -> float:
    """Rescale plane j away from an offered point sitting on it.

    Scaling alpha by 1/(1+d) moves every residual r to (r+d)/(1+d), so a
    |d| below the smallest stored residual magnitude preserves every
    stored and pending sign while pushing the offered point clear of the
    incidence band.  Verified by re-evaluation before committing.
    """
    eps = state.config.epsilon
    alpha = state._alpha_buf[j].copy()
    pend_mat = state._pending_points()
    live_mats = (state.points,) if pend_mat is None else (state.points, pend_mat)

    def live_residuals(a: np.ndarray) -> np.ndarray:
        return np.concatenate([state._sweep(m, a) for m in live_mats])

    def keeps_signs(r: np.ndarray) -> bool:
        return not (np.any(np.sign(r) != np.sign(live)) or np.any(np.abs(r) <= eps))

    live = live_residuals(alpha)
    for step in _NUDGE_STEPS:
        d = step * eps
        factor = 1.0 + d
        if not keeps_signs((live + d) / factor) or abs((r_p + d) / factor) <= eps:
            continue
        candidate = alpha / factor
        # verify the analytic prediction on the real arithmetic path
        if not keeps_signs(live_residuals(candidate)):
            continue
        new_rp = float(state._sweep(p[None, :], candidate)[0])
        if abs(new_rp) <= eps:
            continue
        state._alpha_buf[j] = candidate
        return new_rp
    raise IncidentPointError(
        f"offered point is incident on plane {j} and no rescale preserved all signs"
    )


def _place(state: SeparationState, block: np.ndarray, keys: list[int | None],
           recycled: list[np.ndarray]) -> tuple[int, tuple[PlaneReport, ...]]:
    """Place a window of a block's points, in order, at the current planes.

    ``keys[i]`` is point i's packed sign vector, None when a residual lies
    in the incidence band.  A point whose key is new is stored; one whose
    quadrant is occupied parks on the occupant's pending chain, or, when
    that chain is full, is recycled onto ``recycled``.  The window ends
    before the first point keyed None, which must nudge a plane first, or
    after the first point that makes n chains pending; planes are then
    emitted until fewer are.  The window's points are tallied together,
    each as one sign-vector evaluation, n*q multiply-adds.

    Returns the number of points placed and the emitted planes' reports.
    """
    n, q = state.n, state.q
    index, counters = state.index, state.counters
    chains = state.chains  # emit_plane replaces the dict, and emitting ends the window
    placed = 0
    for p, key in zip(block, keys):
        if key is None:
            break
        placed += 1
        pid = index.lookup(key, q, counters)
        if pid < 0:
            state._add_point(p, key)
            continue
        ch = chains.get(pid)
        if ch is None:
            chains[pid] = PendingChain(pid, key, state._midpoint(state._pts_buf[pid], p), [p])
        elif len(ch.members) < 3:
            ch.members.append(p)
        else:
            state.recycle_events += 1
            recycled.append(p)
            continue
        if len(chains) >= n:
            break

    nq = n * q * placed
    counters.multiplications += nq
    counters.additions += nq
    counters.ov_multiplications += nq
    counters.sign_evals += q * placed
    state.offers += placed
    reports = []
    while len(state.chains) >= n:
        reports.append(emit_plane(state))
    return placed, tuple(reports)


def offer(state: SeparationState, p, r: np.ndarray | None = None) -> OfferResult:
    """Place one point: accept into a fresh quadrant, park on a chain, or recycle.

    Called with a point alone, offer checks and evaluates it as a block of
    one.  :func:`stream_points` calls it for a point with a residual in
    the incidence band, passing the point's residuals ``r`` from its
    block.  Any plane the point lies on is nudged off it, and the point is
    then placed as a window of one, tallied as one sign-vector evaluation,
    n*q multiply-adds.
    """
    packed = None
    if r is None:
        p = state._check_point(p)
        rows, keys = state._evaluate(p[None, :])
        r, packed = rows[0], keys[0]
    if packed is None:
        eps = state.config.epsilon
        # a nudged residual leaves the band, so r > eps below reads its side
        for j in np.nonzero(np.abs(r) <= eps)[0]:
            r[j] = _nudge_plane(state, int(j), p, float(r[j]))
        packed = pack_sign_bits(r > eps)

    count, recycled = state.count, []
    _, reports = _place(state, p[None, :], [packed], recycled)
    if reports:
        return OfferResult(OfferKind.PLANE_EMITTED, reports=reports)
    if recycled:
        return OfferResult(OfferKind.RECYCLED)
    return OfferResult(OfferKind.ACCEPTED if state.count > count else OfferKind.PENDING)


# ---------------------------------------------------------------------------
# plane emission
# ---------------------------------------------------------------------------

def _try_separating_plane(state, batch, starts, pend_mat):
    """Fit a plane through the batch midpoints that clears every live point
    and splits every batch segment.

    ``starts[i]`` is the row of batch chain i's first member in the
    pending matrix ``pend_mat``.  An exact fit separates each anchor from
    its first neighbour by the midpoint identity r(a) = -r(b); shifted
    refits (doubling delta along the failed normal) handle incidences on
    the digit lattice.

    Returns the fit, or on failure the batch size to try next: r+1 when
    the exact fit through the k midpoints is inconsistent at elimination
    rank r with r+1 < k, without trying the shifted refits, and k-1 when
    every attempt failed (see :func:`emit_plane` for why r+1).
    """
    cfg = state.config
    eps = cfg.epsilon
    n = state.n
    mids0 = np.stack([ch.midpoint_ab for ch in batch])
    seg_lens = [
        float(np.linalg.norm(state.points[ch.anchor_id] - ch.members[0])) for ch in batch
    ]
    delta_base = cfg.delta0 * (sum(seg_lens) / len(seg_lens))

    k = len(batch)
    direction = None
    for attempt in range(cfg.max_retries + 1):
        if attempt == 0:
            mids = mids0
            delta = 0.0
        else:
            delta = delta_base * (2.0 ** (attempt - 1))
            if direction is None:
                direction = state.rng.standard_normal(n)
            mids = shift_midpoints(mids0, direction, delta)
        try:
            cand = fit_plane_through(mids, n, state.rng, state.counters)
        except InconsistentSystemError as exc:
            if attempt == 0 and exc.rank is not None and exc.rank + 1 < k:
                return exc.rank + 1
            direction = None
            continue
        r_s = state._sweep(state.points, cand) if state.count else np.empty(0)
        r_pend = state._sweep(pend_mat, cand)
        if np.any(np.abs(r_s) <= eps) or np.any(np.abs(r_pend) <= eps):
            direction = cand
            continue
        separated = all(
            (r_s[ch.anchor_id] > 0) != (r_pend[start] > 0)
            for ch, start in zip(batch, starts)
        )
        if not separated:
            direction = cand
            continue
        return cand, r_s, r_pend, attempt, delta
    return k - 1


def emit_plane(state: SeparationState) -> PlaneReport:
    """Fit one plane through the pending midpoints and promote the first
    neighbours; surviving second/third neighbours are re-homed onto whichever
    side of the new plane they fall.

    If every shifted refit leaves some segment unsplit, the batch geometry
    is degenerate (all endpoints in one lower-dimensional slab, so planes
    through all the midpoints are parallel to the segments); narrowing the
    batch frees coefficients and restores transversality, and the dropped
    chains simply wait for a later plane.

    The batch narrows one chain at a time, except that an exact fit that
    is inconsistent at elimination rank r with r+1 < k sends it straight
    to r+1 chains.  A common shift adds at most one dimension to the
    midpoints' span, so r+1 is the largest batch a shifted refit can make
    full rank.  And a shifted solution for an inconsistent batch must have
    alpha . m = 0 at every unshifted midpoint (else rescaling it would
    solve the exact system), so it can split a segment only along
    directions outside the midpoints' span; when that span covers the
    coordinates the points differ in, as on values stored with dead
    leading digits, it splits nothing.  Batches of rank k-1 keep their
    shifted refits, which do rescue some of them.

    Chains are keyed by anchor and anchors hold distinct sign vectors, so
    no two chains share a quadrant: nothing is merged before the fit, and
    every pending point ends up stored or still pending, never recycled.
    """
    if not state.chains:
        raise ValueError("no pending chains to separate")
    n = state.n
    chains = list(state.chains.values())
    pend_mat = state._pending_points()
    # each chain's members are consecutive rows of pend_mat, from starts[i]
    starts = list(accumulate((len(ch.members) for ch in chains), initial=0))

    k = min(n, len(chains))
    while k >= 1:
        fit = _try_separating_plane(state, chains[:k], starts, pend_mat)
        if not isinstance(fit, int):
            break
        k = fit
    else:
        raise GeometryExhaustedError(
            f"no admissible plane after {state.config.max_retries} shift retries, "
            f"even through a single midpoint"
        )
    alpha, r_s, r_pend, retries, delta = fit

    # commit: append the plane and extend every stored sign vector by one bit
    bit_s = r_s > 0
    plane_index = state._append_plane(alpha, saturated=(k == n))
    state.index.extend_all(bit_s)

    # every pending point is re-validated against the new plane.  It joins
    # the point of its old quadrant that now holds its side: the anchor, or
    # the first member to fall across from the anchor, which is stored
    # outright since the anchor's old address extended by the opposite bit
    # is provably unoccupied.  A batch chain's first member falls across
    # from its anchor by construction, so it is always stored.
    promoted: list[int] = []
    rehomed = 0
    state.chains = {}
    for ch, start in zip(chains, starts):
        hosts: dict[bool, int] = {bool(bit_s[ch.anchor_id]): ch.anchor_id}
        for ri, pt in enumerate(ch.members):
            bit = bool(r_pend[start + ri] > 0)
            key = (ch.anchor_key << 1) | int(bit)
            host = hosts.get(bit)
            if host is None:
                hosts[bit] = pid = state._add_point(pt, key)
                promoted.append(pid)
            elif host in state.chains:
                rehomed += 1
                state.chains[host].members.append(pt)
            else:
                if host == ch.anchor_id and ri == 0:
                    mid = ch.midpoint_ab  # the pair is unchanged, keep its midpoint
                else:
                    rehomed += 1
                    mid = state._midpoint(state.points[host], pt)
                state.chains[host] = PendingChain(host, key, mid, [pt])

    return PlaneReport(
        plane_index=plane_index,
        constraint_count=k,
        retries=retries,
        delta=delta,
        promoted_ids=promoted,
        rehomed=rehomed,
    )


# ---------------------------------------------------------------------------
# finalize and driver
# ---------------------------------------------------------------------------

def finalize(state: SeparationState) -> SeparationState:
    """Flush pending chains with planes through however many midpoints remain.

    Each emission may leave re-homed chains behind, so planes are emitted
    until none is pending.  The index's key order is left to its next
    read, which sorts the points stored since the last one in.
    """
    while state.chains:
        emit_plane(state)
    return state


def stream_points(state: SeparationState, pts) -> None:
    """Offer points in order, recycling and forcing emissions as needed.

    ``pts`` is an (N, n) array or a sequence of points.  The queue is
    evaluated in blocks of up to ``_OFFER_BLOCK`` points: one matmul gives
    their residuals at the current planes, one band test and one packbits
    their keys.  One loop then places the block's points in turn, as a
    window whose evaluations are tallied at once, until a plane is
    emitted; a point in the incidence band goes to :func:`offer`, which
    nudges the plane off it.  After an emission or a nudge the block's
    remaining points are evaluated again at the new planes, so every
    point meets exactly the planes it would meet offered alone.

    Recycled points rejoin the queue after the next plane emission; if the
    queue drains while recycled points wait, one plane is forced through
    the pending midpoints to open fresh quadrants.  Pending chains may
    remain afterwards; call :func:`finalize` to flush them.  The index's
    key order is not kept up to date here: see :meth:`OvIndex.items`.
    """
    pts = state._check_block(pts)
    start = 0
    requeued: deque[np.ndarray] = deque()  # recycled points, behind the rest of pts
    bucket: list[np.ndarray] = []
    while True:
        if start < len(pts):
            block = pts[start:start + _OFFER_BLOCK]
            start += len(block)
        elif requeued:
            block = np.stack([requeued.popleft()
                              for _ in range(min(len(requeued), _OFFER_BLOCK))])
        elif bucket:
            # only recycled points remain; force a plane to open new quadrants
            # (a point is recycled only onto a full, hence pending, chain)
            emit_plane(state)
            requeued.extend(bucket)
            bucket.clear()
            continue
        else:
            return
        while len(block):
            r, keys = state._evaluate(block)
            placed, reports = _place(state, block, keys, bucket)
            if not reports and placed < len(block):
                # the window stopped at a point in the incidence band
                p = block[placed]
                res = offer(state, p, r[placed])
                if res.kind is OfferKind.RECYCLED:
                    bucket.append(p)
                reports = res.reports
                placed += 1
            if reports:
                requeued.extend(bucket)
                bucket.clear()
            block = block[placed:]


def run(points, n: int, seed) -> SeparationState:
    """Shuffle, seed, stream every point, and flush: the full build driver.

    Returns a state in which every input point is stored under a unique
    sign vector, point id i holding the i-th in dictionary order, as
    :func:`planesep.repository.load` numbers them.
    """
    pts = _check_points(points, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(pts.shape[0])
    n0 = min(pts.shape[0], n + 1)

    state = SeparationState(n=n, seed=rng)
    _accrete_initial(state, pts[order[:n0]])
    stream_points(state, pts[order[n0:]])
    finalize(state)
    if state.count != pts.shape[0]:
        raise AssertionError("driver lost points; this is a bug")
    if state.count:  # an empty state keeps its point buffer, as load leaves it
        state._pts_buf = state.points[state.index.renumber()]
    return state
