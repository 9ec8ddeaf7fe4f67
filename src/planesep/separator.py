"""Incremental separation of a point stream by hyperplanes.

Points are offered one at a time, in queue order, though the stream
evaluates them in blocks and places each block's points in windows.  A
point whose sign vector is new is stored immediately; one that lands in
an occupied quadrant is dropped if it equals the occupant, else parked
on the occupant's pending chain, up to three deep.  Whenever n chains
are pending, one plane fitted through the n segment midpoints separates
every anchor from its first neighbour at once, and every stored sign
vector gains one trailing bit.  A point that meets a full chain forces
one plane at once, through the fewer midpoints pending, and is then
offered again at the new planes.  Existing bits are never rewritten,
which is what makes later insertion resume-free.

The state is single-owner and mutated sequentially; once finalized it is
safe for concurrent readers, since a read writes nothing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from typing import Sequence

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
from .geometry import signs_from_residuals  # only for bench/spans.py, which traces this name here

_OFFER_BLOCK = 256  # points evaluated together by stream_points
_HEX_BLOCK = 4096  # keys converted to or from hex together, and entry lines read together
_NUDGE_STEPS = (3.0, -3.0, 9.0, -9.0, 27.0, -27.0, 81.0, -81.0)
_MIN_SLOTS = 8
_FIB = 0x9E3779B97F4A7C15  # 2**64 / golden ratio: multiplicative hashing (Knuth)
_U64 = (1 << 64) - 1


def _width(q: int) -> int:
    """Words in the row of a q-bit key: one per 64 planes begun, at least one."""
    return max(1, -(-q // 64))


def _shift_down(rows: np.ndarray, s: int) -> np.ndarray:
    """Shift each row, read as one integer of its words, right by s < 64
    bits in place; s = 64 comes only with the 0-bit keys, which are 0."""
    if s % 64:
        carry = rows[:, :-1] << np.uint64(64 - s)
        rows >>= np.uint64(s)
        rows[:, 1:] |= carry
    return rows


def _shift_up(rows: np.ndarray, s: int) -> np.ndarray:
    """Shift each row, read as one integer of its words, left by s < 64
    bits in place; s = 64 comes only with the 0-bit keys, which are 0."""
    if s % 64:
        carry = rows[:, 1:] >> np.uint64(64 - s)
        rows <<= np.uint64(s)
        rows[:, :-1] |= carry
    return rows


def _words(rows: np.ndarray) -> array:
    """The words of C-contiguous uint64 rows in an ``array("Q")``."""
    words = array("Q")
    words.frombytes(rows.ravel().view(np.uint8))  # a 1-D byte view, not a copy
    return words


def hex_rows(keys: Sequence[str], q: int) -> np.ndarray:
    """q-bit keys in hex, as ``save`` writes them, as the index holds them: a
    (K, W) uint64 array of rows, W = :func:`_width` (q), plane j at bit
    63 - j % 64 of word j // 64.

    Raises ValueError when a key is not hex digits, has more than 16W of
    them, or is 2**q or above.  The keys are converted in one pass, so a
    caller that holds text a block at a time, as ``load`` does with
    ``_HEX_BLOCK`` entry lines, passes one block per call.
    """
    width = _width(q)
    raw = bytes.fromhex("".join(map(str.zfill, keys, repeat(16 * width))))
    if len(raw) != 8 * width * len(keys):
        raise ValueError("a key has more hex digits than its row holds")
    right = np.frombuffer(raw, ">u8").reshape(-1, width).astype(np.uint64)
    pad = 64 * width - q
    if pad and np.count_nonzero(right[:, 0] >> np.uint64(64 - pad)):
        raise ValueError("a key is wider than q bits")
    return _shift_up(right, pad)


def _pack_keys(r: np.ndarray, epsilon: float) -> np.ndarray:
    """The keys of points with residuals ``r``, (B, q), as packed bytes: each
    point's positive-side bits, first plane first, padded to 8W bytes.
    Read as big-endian words, a point's bytes are its key's row."""
    size, q = r.shape
    positive = np.zeros((size, 64 * _width(q)), bool)
    np.greater(r, epsilon, out=positive[:, :q])
    return np.packbits(positive, axis=1)


def _key_int(packed: np.ndarray, q: int) -> int:
    """The q-bit int key of one point's packed bytes."""
    return int.from_bytes(packed.tobytes(), "big") >> (8 * packed.size - q)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each uint64: frexp's exponent of a positive float is
    its bit length, and each 32-bit half converts to float64 exactly."""
    high = x >> np.uint64(32)
    return np.where(high > 0, 32 + np.frexp(high.astype(np.float64))[1],
                    np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1])


class OvIndex:
    """Map from packed sign vectors to point ids, hash-addressed by key prefix.

    This is the only place a stored point's sign vector is held.  Point
    ids are 0, 1, 2, ... in the order points are stored, and each key is
    held at its point's id, so storing points moves no other entry.

    The keys are the rows of an (N, W) uint64 array by point id, W =
    ceil(q/64) words (at least one), held row-major in an ``array("Q")``:
    a key is MSB-aligned in its row, plane j at bit 63 - j % 64 of word
    j // 64.  A new plane's bit is one numpy OR into one column, and a
    column is added when q reaches 64W.  The array has no Python int per
    key; a probe for one key reads the words of the keys it compares as
    Python ints straight from the ``array``, with no numpy call.

    The top P bits of a key, its prefix, pick one of S = 2**b slots: its
    prefix words (the last one cut to the prefix) are combined by
    h = (h + word) * _FIB modulo 2**64 from h = 0, and the slot is the top
    b bits of h, which spread every bit of the prefix over the slot.
    :meth:`_slots_of` computes it for a block of rows and :meth:`_slot` for
    one int key.  ``_slots`` holds the last point stored in each slot and
    ``_next`` links each point to the one stored in its slot before it
    (-1 ends a chain): two int32 ``array``s.  The slots are rebuilt, with
    P = q and S the least power of two >= 4N (at least 8), when q reaches
    2P and when N reaches S/2.  A new plane's bit lies below the prefix,
    so it moves no point to another slot, and keys are distinct, so just
    after a rebuild two keys share a slot only when their hashes collide.
    A probe walks one chain; each key it compares is tallied as the bits
    examined, up to and including the first differing bit (all q on a
    match).  :meth:`lookup` probes for one int key and :meth:`lookup_many`
    for a window of rows in distinct slots; :meth:`append` stores one int
    key and :meth:`insert` rows in distinct slots.  :meth:`items` and
    :meth:`hex_blocks` read the keys by point id, the only order it has.
    """

    __slots__ = ("_rows", "_width", "_q", "_bits", "_pad", "_shifts", "_prefix", "_spread",
                 "_slots", "_next")

    def __init__(self):
        self._hold(array("Q"), 0)

    @classmethod
    def from_rows(cls, rows: np.ndarray, q: int) -> "OvIndex":
        """Index over the rows of q-bit keys, row i belonging to point id i.
        The keys must be distinct: :meth:`first_repeat` tells."""
        return cls.from_words(_words(rows), q)

    @classmethod
    def from_words(cls, words: array, q: int) -> "OvIndex":
        """:meth:`from_rows` on the rows' words, held row-major in ``words``,
        which the index keeps: a caller that fills it a block of rows at a
        time never holds the rows twice."""
        index = cls()
        index._hold(words, q)
        return index

    def _hold(self, words: array, q: int) -> None:
        """Hold the words of q-bit key rows, row i belonging to point id i."""
        self._rows = words
        self._width = _width(q)
        self._q = q
        self._rehash()

    def __len__(self) -> int:
        return len(self._rows) // self._width

    def _view(self) -> np.ndarray:
        """The keys as an (N, W) array on the ``array``'s buffer.  While a view
        lives the ``array`` cannot grow, so none outlives the call that makes it."""
        return np.frombuffer(self._rows, np.uint64).reshape(-1, self._width)

    @property
    def room(self) -> int:
        """Keys that can be stored before the slots are rebuilt: storing the
        room-th from now rebuilds them."""
        return len(self._slots) // 2 - len(self)

    def _slot(self, packed: int, q: int) -> int:
        """The slot of the q-bit int key ``packed``: :meth:`_slots_of` in Python ints."""
        x = packed >> (q - self._bits) << self._pad  # the prefix, MSB-aligned in its words
        h = 0
        for shift in self._shifts:
            # x >> shift is its word plus a multiple of 2**64, which the product drops
            h = (h + (x >> shift)) * _FIB
        return (h & _U64) >> self._spread

    def _slots_of(self, rows: np.ndarray) -> np.ndarray:
        """The slot of each row's key: h expanded, the sum of word i times
        _FIB ** (k - i) over the k prefix words, which uint64 arithmetic
        takes modulo 2**64."""
        words, mask, powers = self._prefix
        return (rows[:, :words] & mask) @ powers >> np.uint64(self._spread)

    def _rehash(self) -> None:
        """Slot every key on all q of its bits, in at least 4 slots per key."""
        n = len(self)
        self._bits = self._q
        words = -(-self._q // 64)
        self._pad = 64 * words - self._q
        self._shifts = tuple(range(64 * (words - 1), -1, -64))
        mask = np.full(words, _U64, np.uint64)
        mask[-1:] = _U64 << self._pad & _U64  # the last word cut to the prefix
        powers = np.array([pow(_FIB, words - i, 1 << 64) for i in range(words)], np.uint64)
        self._prefix = (words, mask, powers)
        size = max(_MIN_SLOTS, 1 << (4 * n - 1).bit_length())
        self._spread = 65 - size.bit_length()  # slot = top b bits of the 64-bit hash
        slots = self._slots_of(self._view()).astype(np.intp)
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

    def lookup(self, packed: int, q: int, counters: OpCounters) -> int:
        """The point id stored under the q-bit int key ``packed``, or -1 when it is absent."""
        pid = self._slots[self._slot(packed, q)]
        if pid < 0:
            return pid
        rows, width, nxt = self._rows, self._width, self._next
        x = packed << (64 * width - q)  # aligned as the rows hold it
        first = x >> (64 * width - 64)  # its first word, which most compares end in
        top = 64 * width + 1  # a compare examines top - (key ^ x).bit_length() bits
        bits = 0
        while pid >= 0:
            at = pid * width
            key = rows[at]
            if key != first:
                bits += 65 - (key ^ first).bit_length()
            else:
                for at in range(at + 1, at + width):
                    key = key << 64 | rows[at]
                if key == x:
                    counters.bit_comparisons += bits + q
                    return pid
                bits += top - (key ^ x).bit_length()
            pid = nxt[pid]
        counters.bit_comparisons += bits
        return -1

    def lookup_many(self, rows: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
        """The id each row of a window finds, -1 on a miss, and the bits its
        probe examines.  The window is ``rows`` up to the first row whose
        slot an earlier row holds, probed on the stored chains at once, and
        ends sooner at the miss whose store rebuilds the slots.  Its rows
        share no slot, so none meets another: each id and tally is that of
        looking the rows up in turn with every miss stored before the next,
        and the misses can be stored with one :meth:`insert`.
        """
        slots = self._slots_of(rows)
        order = np.argsort(slots, kind="stable")
        same = slots[order[1:]] == slots[order[:-1]]
        end = int(order[1:][same].min()) if same.any() else len(rows)
        pids, bits = self._probe(rows[:end], slots[:end], q)
        missed = np.flatnonzero(pids < 0)
        room = self.room
        if len(missed) >= room:
            end = int(missed[room - 1]) + 1
        return pids[:end], bits[:end]

    def _probe(self, rows, slots, q):
        """Each row's id and tally on the stored chains: all chains are
        walked one step at a time together, and every compare is tallied
        at the end."""
        stored, nxt = self._view(), np.frombuffer(self._next, np.int32)
        pid = np.frombuffer(self._slots, np.int32)[slots]
        live = np.flatnonzero(pid >= 0)
        pid = pid[live]
        steps = []  # per step: the rows compared, the ids they met, and the keys' XOR
        while len(live):
            diff = stored[pid] ^ rows[live]
            steps.append((live, pid, diff))
            pid = nxt[pid]
            more = diff.any(axis=1) & (pid >= 0)
            live, pid = live[more], pid[more]
        pids = np.full(len(rows), -1, np.intp)
        if not steps:
            return pids, np.zeros(len(rows), np.int64)
        live, met, diff = (np.concatenate(x) for x in zip(*steps))
        word = (diff != 0).argmax(axis=1)  # the first word that differs, 0 on a match
        first = diff[np.arange(len(live)), word]
        hit = first == 0
        pids[live[hit]] = met[hit]
        examined = np.where(hit, q, 64 * word + 65 - _bit_length(first))
        return pids, np.bincount(live, examined, len(rows)).astype(np.int64)

    def insert(self, rows: np.ndarray, q: int) -> int:
        """Store the q-bit keys of ``rows`` for the next point ids, and return the first.

        Every key must be new: a caller stores a key after its lookup
        missed, or one new by construction, so no chain is walked here.
        No two rows may share a slot, as in a window of :meth:`lookup_many`,
        so one gather links each row to its slot's head and one scatter
        makes it the head.
        """
        self._take_width(q)
        first = len(self)
        slots = self._slots_of(rows)
        heads = np.frombuffer(self._slots, np.int32)
        self._next.frombytes(heads[slots].tobytes())
        heads[slots] = np.arange(first, first + len(rows), dtype=np.int32)
        self._rows.frombytes(rows.ravel().view(np.uint8))
        if 2 * len(self) >= len(self._slots):
            self._rehash()
        return first

    def append(self, packed: int, q: int) -> int:
        """Store one new q-bit int key for the next point id, and return the id.

        :meth:`insert` in Python ints, for the stores that hold their key
        as an int: a window of one point and a plane's promotions.  For a
        few keys numpy's calls would cost more than the whole store.
        """
        self._take_width(q)
        pid = len(self._next)  # one link per stored key
        slot = self._slot(packed, q)
        self._next.append(self._slots[slot])
        self._slots[slot] = pid
        x = packed << (64 * self._width - q)  # aligned as the rows hold it
        for shift in range(64 * self._width - 64, -1, -64):
            self._rows.append(x >> shift & _U64)
        if 2 * pid + 2 >= len(self._slots):
            self._rehash()
        return pid

    def _take_width(self, q: int) -> None:
        """Check that stored keys have q bits; an empty index takes that width."""
        if q != self._q:
            if len(self):
                raise AssertionError(f"{q}-bit keys inserted among {self._q}-bit keys")
            self._hold(array("Q"), q)

    def extend_all(self, bit_by_id: np.ndarray) -> None:
        """Append one bit to every key, bit_by_id[i] to point i's."""
        q, width = self._q, self._width
        if q == 64 * width:
            grown = np.zeros((len(self), width + 1), np.uint64)
            grown[:, :width] = self._view()
            self._rows, self._width = _words(grown), width + 1
        self._view()[:, q // 64] |= np.left_shift(bit_by_id, np.uint64(63 - q % 64),
                                                  dtype=np.uint64)
        self._q = q + 1
        if self._q >= 2 * self._bits:
            self._rehash()

    def first_repeat(self) -> int:
        """The first point id whose key an earlier id holds, or -1 when the
        keys are distinct.  Equal keys share a slot, so only the ids on a
        chain of more than one are sorted by key, and neighbours compared."""
        nxt = np.frombuffer(self._next, np.int32)
        linked = nxt >= 0
        on_chain = linked.copy()
        on_chain[nxt[linked]] = True
        ids = np.flatnonzero(on_chain)
        rows = self._view()[ids]
        order = np.lexsort(rows.T[::-1])  # stable: equal keys keep their ids rising
        same = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
        return int(ids[order[1:][same]].min()) if same.any() else -1

    def hex_blocks(self):
        """The packed sign vectors in hex without leading zeros, as ``save``
        writes them, by point id: one list for each ``_HEX_BLOCK`` keys,
        each from one hex conversion of the block's right-aligned rows, so
        the text of all the keys is never held at once."""
        width = self._width
        for start in range(0, len(self), _HEX_BLOCK):
            # a copy, since the shift is in place and a slice is a view of the keys
            rows = _shift_down(self._view()[start:start + _HEX_BLOCK].copy(),
                               64 * width - self._q)
            text = rows.astype(">u8").tobytes().hex(" ", 8 * width)
            keys = list(map(str.lstrip, text.split(), repeat("0")))
            if "" in keys:  # the key 0; keys are distinct, so there is one at most
                keys[keys.index("")] = "0"
            yield keys

    def items(self):
        """The packed sign vectors as ints, by point id."""
        for keys in self.hex_blocks():
            yield from map(int, keys, repeat(16))


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
    REPEATED = "repeated"


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

        self._pts_buf = np.empty((16, n))
        self.count = 0
        self.index = OvIndex()

        # pending chains keyed by anchor id, in the order they were opened:
        # the order emit_plane takes its batch in
        self.chains: dict[int, PendingChain] = {}

        self.offers = 0
        self.recycle_events = 0
        self.repeat_events = 0  # points dropped as a stored or pending point's copy; not saved

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
    def packed(self) -> list[int]:
        """Each stored point's packed sign vector, by point id.

        An O(N) copy out of the index, for tests and inspection only.
        """
        return list(self.index.items())

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
        """Store a point, and its int key in the index, under the next point
        id, and return the id."""
        if self.count == self._pts_buf.shape[0]:
            grown = np.empty((2 * self.count, self.n))
            grown[: self.count] = self._pts_buf
            self._pts_buf = grown
        self._pts_buf[self.count] = p
        self.index.append(packed, self.q)
        self.count += 1
        return self.count - 1

    def _add_points(self, pts: np.ndarray, keys: np.ndarray) -> None:
        """Store points, and their keys' rows in the index, under the next point ids."""
        end = self.count + len(pts)
        if end > self._pts_buf.shape[0]:
            grown = np.empty((max(end, 2 * self.count), self.n))
            grown[: self.count] = self.points
            self._pts_buf = grown
        self._pts_buf[self.count:end] = pts
        self.index.insert(keys, self.q)
        self.count = end

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

    def _evaluate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Residuals of a block of points at the current planes, their keys
        as packed bytes (see :func:`_pack_keys`), and the number of leading
        points clear of the incidence band.

        One matmul, one band test and one packbits for the whole block.  A
        point with a residual inside the band has no key yet: its plane
        must be nudged first.  Nothing is tallied here; the window that
        places the points tallies their evaluations.
        """
        r = kernels.residuals_block(pts, self.plane_matrix)
        eps = self.config.epsilon
        band = np.abs(r) <= eps
        clear = int(band.any(axis=1).argmax()) if np.count_nonzero(band) else len(pts)
        return r, _pack_keys(r, eps), clear

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


def _check_points(points, n: int) -> np.ndarray:
    """Input as an (N, n) float array of finite rows; empty input is N=0."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(f"expected shape (N, {n}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


# ---------------------------------------------------------------------------
# offer
# ---------------------------------------------------------------------------

def _nudge_plane(state: SeparationState, j: int, p: np.ndarray, r_p: float) -> float:
    """Rescale plane j away from an offered point sitting on it.

    Scaling alpha by 1/(1+d) moves every residual r to (r+d)/(1+d), so a
    |d| below the smallest stored residual magnitude preserves every
    stored and pending sign while pushing the offered point clear of the
    incidence band.  Verified by re-evaluation before committing.

    The prediction reads at most two residuals.  r -> fl(fl(r + d) / (1 + d))
    is monotone, so a step keeps every positive live residual above the
    band exactly when it keeps the least positive one there, and every
    negative one below it exactly when it keeps the greatest negative one.
    The residual nearest zero bounds both and decides most steps alone;
    the two are found only for a step it leaves open.  A zero or NaN live
    residual fails every step.
    """
    eps = state.config.epsilon
    alpha = state._alpha_buf[j].copy()
    pend_mat = state._pending_points()
    live_mats = (state.points,) if pend_mat is None else (state.points, pend_mat)

    def live_residuals(a: np.ndarray) -> np.ndarray:
        return np.concatenate([state._sweep(m, a) for m in live_mats])

    live = live_residuals(alpha)
    above, below = live > 0, live < 0
    nearest = np.abs(live).min(initial=np.inf)  # NaN if a residual is NaN
    ends = None  # the least positive and the greatest negative live residual
    for step in _NUDGE_STEPS if nearest > 0 else ():
        d = step * eps
        factor = 1.0 + d
        if abs((r_p + d) / factor) <= eps:
            continue
        if (nearest + d) / factor <= eps or (d - nearest) / factor >= -eps:
            if ends is None:
                ends = (live[above].min(initial=np.inf), live[below].max(initial=-np.inf))
            if (ends[0] + d) / factor <= eps or (ends[1] + d) / factor >= -eps:
                continue
        candidate = alpha / factor
        # verify the prediction on the real arithmetic path: every live
        # residual, none of them zero or NaN, keeps its side out of the band
        r = live_residuals(candidate)
        if not (np.array_equal(r > eps, above) and np.array_equal(r < -eps, below)):
            continue
        new_rp = float(state._sweep(p[None, :], candidate)[0])
        if abs(new_rp) <= eps:
            continue
        state._alpha_buf[j] = candidate
        return new_rp
    raise IncidentPointError(
        f"offered point is incident on plane {j} and no rescale preserved all signs"
    )


def _park(state: SeparationState, pid: int, p: np.ndarray, key: int) -> bool:
    """Park p, whose int key ``key`` stored point ``pid`` holds, on pid's
    pending chain, which it opens when there is none.  A p equal to pid's
    point, which no plane can split from it, is dropped as a repeat and
    tallied.  Returns False, and leaves p unplaced, when the chain is full."""
    anchor = state._pts_buf[pid]
    if anchor.tolist() == p.tolist():
        state.repeat_events += 1
        return True
    ch = state.chains.get(pid)
    if ch is None:
        state.chains[pid] = PendingChain(pid, key, state._midpoint(anchor, p), [p])
    elif len(ch.members) < 3:
        ch.members.append(p)
    else:
        return False
    return True


def _close_window(state: SeparationState, placed: int, full: bool) -> tuple[PlaneReport, ...]:
    """Tally ``placed`` offers, each one sign-vector evaluation of n*q
    multiply-adds, and emit planes until fewer than n chains are pending.
    When the last offer met a full chain, one plane is forced first from
    the chains pending, fewer than n, and tallied as a recycle event."""
    nq = state.n * state.q * placed
    counters = state.counters
    counters.multiplications += nq
    counters.additions += nq
    counters.ov_multiplications += nq
    counters.sign_evals += state.q * placed
    state.offers += placed
    reports = []
    if full:
        state.recycle_events += 1
        reports.append(emit_plane(state))
    while len(state.chains) >= state.n:
        reports.append(emit_plane(state))
    return tuple(reports)


def _place_one(state: SeparationState, p: np.ndarray,
               key: int) -> tuple[int, tuple[PlaneReport, ...]]:
    """Place one point, clear of the incidence band, with int key ``key``:
    :func:`_place` for a window of one, probed with :meth:`OvIndex.lookup`
    and stored with :meth:`OvIndex.append`, since for one point the numpy
    calls of the block forms cost more than the whole Python walk and
    store."""
    pid = state.index.lookup(key, state.q, state.counters)
    if pid < 0:
        state._add_point(p, key)
        return 1, _close_window(state, 1, False)
    placed = _park(state, pid, p, key)
    return int(placed), _close_window(state, 1, not placed)


def _place(state: SeparationState, block: np.ndarray,
           keys: np.ndarray) -> tuple[int, tuple[PlaneReport, ...]]:
    """Place a window of points, in order, at the current planes.

    ``keys`` holds the points' keys as packed bytes (see
    :func:`_pack_keys`); none of the points has a residual in the
    incidence band.  A point whose key is new is stored; one whose
    quadrant is occupied parks on the occupant's pending chain.  The
    window is the points :meth:`OvIndex.lookup_many` answers, which share
    no hash slot and end at the store that rebuilds the slots.  It also
    ends after the first point that makes n chains pending, and planes
    are then emitted until fewer are; or at the first point that meets a
    full chain, which forces one plane from the chains pending and is
    left unplaced, to be offered again at the new planes.

    The window is probed with one :meth:`OvIndex.lookup_many` and its
    new points go to the index in one :meth:`OvIndex.insert`; only the
    points that find an occupant are handled one by one.  A window of one
    point goes to :func:`_place_one` on its int key instead: this is the
    one choice made on the window's size.  Either way a point's probe is
    tallied as it would be offered alone, and so are the window's
    evaluations, an unplaced point's among them.

    Returns the number of points placed and the emitted planes' reports.
    """
    q = state.q
    if len(block) == 1:
        return _place_one(state, block[0], _key_int(keys, q))
    rows = keys.view(">u8").astype(np.uint64)
    pids, bits = state.index.lookup_many(rows, q)
    offered, full = len(pids), False
    at = np.flatnonzero(pids >= 0)
    for i, pid in zip(at.tolist(), pids[at].tolist()):
        # the occupant is stored: a window's points share no slot
        full = not _park(state, pid, block[i], _key_int(keys[i], q))
        if full or len(state.chains) >= state.n:
            offered = i + 1
            break
    state.counters.bit_comparisons += int(bits[:offered].sum())
    missed = np.flatnonzero(pids[:offered] < 0)
    if len(missed):
        state._add_points(block[missed], rows[missed])
    return offered - full, _close_window(state, offered, full)


def offer(state: SeparationState, p, r: np.ndarray | None = None) -> OfferResult:
    """Place one point: accept, park on a chain, or drop as a repeat; or,
    when it meets a full chain, force a plane and report it RECYCLED, with
    the plane's report, for the caller to offer it again.

    Called with a point alone, offer checks it and evaluates its
    residuals with one :func:`kernels.residuals_block` call on its row,
    the arithmetic of a block.  A caller that holds a checked float64
    point and its residuals ``r`` at the current planes, computed that
    way, passes both: :func:`stream_points` for a point with a residual in
    the incidence band, from its block, and a one-value
    :func:`planesep.repository.insert`, from the point's row.  ``r`` is
    written to when a plane is nudged.  One reduction tells whether any
    residual lies in the band; only then is each plane the point lies on
    nudged off it.  The point's int key is packed from its residuals, and
    the point is placed by :func:`_place_one`, tallied as one sign-vector
    evaluation, n*q multiply-adds.
    """
    if r is None:
        p = state._check_point(p)
        r = kernels.residuals_block(p[None, :], state.plane_matrix)[0]
    eps = state.config.epsilon
    # fmin skips a NaN as the elementwise test does, and the initial value
    # answers q = 0; a nudged residual leaves the band, so r > eps below
    # reads its side
    if np.fmin.reduce(abs(r), initial=np.inf) <= eps:
        for j in np.flatnonzero(abs(r) <= eps).tolist():
            r[j] = _nudge_plane(state, j, p, float(r[j]))

    count, repeats = state.count, state.repeat_events
    placed, reports = _place_one(state, p, pack_sign_bits(r > eps))
    if not placed:
        return OfferResult(OfferKind.RECYCLED, reports=reports)
    if reports:
        return OfferResult(OfferKind.PLANE_EMITTED, reports=reports)
    if state.repeat_events > repeats:
        return OfferResult(OfferKind.REPEATED)
    return OfferResult(OfferKind.ACCEPTED if state.count > count else OfferKind.PENDING)


# ---------------------------------------------------------------------------
# plane emission
# ---------------------------------------------------------------------------

def _segments_in_span(mids: np.ndarray, segs: np.ndarray, rank: int) -> bool:
    """Whether every segment direction lies in the span of the midpoints,
    whose elimination rank is ``rank``: the rank of both stacked is no more."""
    return int(np.linalg.matrix_rank(np.vstack([mids, segs]))) <= rank


def _try_separating_plane(state, batch, starts, pend_mat):
    """Fit a plane through the batch midpoints that clears every live point
    and splits every batch segment.

    ``starts[i]`` is the row of batch chain i's first member in the
    pending matrix ``pend_mat``.  An exact fit separates each anchor from
    its first neighbour by the midpoint identity r(a) = -r(b); shifted
    refits (doubling delta along the failed normal) handle incidences on
    the digit lattice.

    Returns the fit, or on failure the batch size to try next.  When the
    exact fit through the k midpoints is inconsistent at elimination rank
    r, no shifted refit is tried if it provably splits nothing: the result
    is r+1 when r+1 < k, and k-1 when r = k-1 and every segment lies in
    the midpoints' span.  Otherwise it is k-1 once every attempt failed
    (see :func:`emit_plane` for both proofs).
    """
    cfg = state.config
    eps = cfg.epsilon
    n = state.n
    k = len(batch)
    mids0 = np.stack([ch.midpoint_ab for ch in batch])
    anchors = [ch.anchor_id for ch in batch]
    firsts = starts[:k]
    # segment directions, each anchor minus its first member, and their
    # lengths are taken only where the span test or a shifted refit reads them
    segs = None

    direction = None
    for attempt in range(cfg.max_retries + 1):
        if attempt == 0:
            mids = mids0
            delta = 0.0
        else:
            if attempt == 1:
                if segs is None:
                    segs = state.points[anchors] - pend_mat[firsts]
                seg_lens = [float(np.linalg.norm(s)) for s in segs]
                delta_base = cfg.delta0 * (sum(seg_lens) / len(seg_lens))
            delta = delta_base * (2.0 ** (attempt - 1))
            if direction is None:
                direction = state.rng.standard_normal(n)
            mids = shift_midpoints(mids0, direction, delta)
        try:
            cand = fit_plane_through(mids, n, state.rng, state.counters)
        except InconsistentSystemError as exc:
            if attempt == 0 and exc.rank is not None:
                if exc.rank + 1 < k:
                    return exc.rank + 1
                segs = state.points[anchors] - pend_mat[firsts]
                if _segments_in_span(mids0, segs, exc.rank):
                    return k - 1
            direction = None
            continue
        r_s = state._sweep(state.points, cand)
        r_pend = state._sweep(pend_mat, cand)
        # fmin skips a NaN as the elementwise band test would
        if (np.fmin.reduce(np.abs(r_s), initial=np.inf) <= eps
                or np.fmin.reduce(np.abs(r_pend)) <= eps):
            direction = cand
            continue
        if not np.all((r_s[anchors] > 0) != (r_pend[firsts] > 0)):
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
    leading digits, it splits nothing.  For the same reason a batch of
    rank k-1 whose segment directions all lie in its midpoints' span
    narrows to k-1 without refits: with alpha . m = 0 and alpha . d = 0
    both ends of every segment have residual 1, so every refit would
    fail.  A batch of rank k-1 with a segment outside the span keeps its
    shifted refits, which do rescue some of them.

    Chains are keyed by anchor and anchors hold distinct sign vectors, so
    no two chains share a quadrant: nothing is merged before the fit, and
    every pending point ends up stored or still pending; one equal to the
    point it joins is dropped as a repeat.
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
            elif state._pts_buf[host].tolist() == pt.tolist():
                state.repeat_events += 1
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
    until none is pending.
    """
    while state.chains:
        emit_plane(state)
    return state


def stream_points(state: SeparationState, pts) -> None:
    """Offer points in order, forcing emissions as needed.

    ``pts`` is an (N, n) array or a sequence of points.  The queue is
    evaluated in blocks of up to ``_OFFER_BLOCK`` points: one matmul gives
    their residuals at the current planes, one band test and one packbits
    their keys.  The block's points up to the first one in the incidence
    band are then placed in windows (see :func:`_place`) until a plane is
    emitted; a point in the band goes to :func:`offer`, which nudges the
    plane off it.  After an emission or a nudge the block's remaining
    points are evaluated again at the new planes, so every point meets
    exactly the planes it would meet offered alone.  A point that met a
    full chain is not placed, and is the first of the remaining points:
    the plane it forced opens fresh quadrants for it.  Pending chains may
    remain afterwards; call :func:`finalize` to flush them.
    """
    pts = state._check_block(pts)
    for start in range(0, len(pts), _OFFER_BLOCK):
        block = pts[start:start + _OFFER_BLOCK]
        while len(block):
            r, keys, clear = state._evaluate(block)
            placed, reports = 0, ()
            while placed < clear and not reports:
                # a window that ends at a shared slot or a slot rebuild is
                # followed by the next at the same planes, its points stored
                k, reports = _place(state, block[placed:clear], keys[placed:clear])
                placed += k
            if not reports and placed < len(block):
                # the windows stopped at a point in the incidence band
                if offer(state, block[placed], r[placed]).kind is not OfferKind.RECYCLED:
                    placed += 1
            block = block[placed:]


def run(points, n: int, seed) -> SeparationState:
    """Shuffle, stream every point into an empty state, and flush: the
    build of a point set.

    Returns a state in which every input point is stored under a unique
    sign vector, with the ids the stream gave the points.  Its slots are
    rebuilt at the end, at all q bits for the final N, so they are the
    slots :func:`planesep.repository.load` builds for the same keys.  A
    point is dropped where it meets its twin, and once the stream is
    flushed any drop raises DuplicatePointError.
    """
    pts = _check_points(points, n)
    rng = np.random.default_rng(seed)
    state = SeparationState(n=n, seed=rng)
    stream_points(state, pts[rng.permutation(pts.shape[0])])
    finalize(state)
    if state.repeat_events:  # tallied where each repeat met its twin
        raise DuplicatePointError(f"{state.repeat_events} input points repeat another point")
    if state.count != pts.shape[0]:
        raise AssertionError("driver lost points; this is a bug")
    state.index._rehash()
    return state
