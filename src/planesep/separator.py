"""Incremental separation of a point stream by hyperplanes.

Points are consumed one at a time.  A point whose sign vector is new is
stored immediately; a point that lands in an occupied quadrant is parked
on the occupant's pending chain (up to three deep, further arrivals are
recycled to the caller).  Whenever n chains are pending, one plane fitted
through the n segment midpoints separates every anchor from its first
neighbour at once, and every stored sign vector gains one trailing bit.
Existing bits are never rewritten, which is what makes later insertion
resume-free.

The state is single-owner and mutated sequentially; once finalized it is
safe for concurrent readers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

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
from .geometry import (
    Plane,
    fit_plane_through,
    pack_sign_bits,
    shift_midpoints,
)
from .geometry import signs_from_residuals  # only for bench/spans.py, which traces this name

_INIT_DRAW_BUDGET = 512
_NUDGE_STEPS = (3.0, -3.0, 9.0, -9.0, 27.0, -27.0, 81.0, -81.0)


def _cmp_bits(a: int, b: int, q: int) -> int:
    """Bits a dictionary-order comparison examines: up to the first difference."""
    if a == b:
        return q
    return q - (a ^ b).bit_length() + 1


class OvIndex:
    """Sorted map from packed sign vectors to point ids.

    Keys are kept in dictionary order so membership is a binary search;
    every key comparison is tallied as the number of bits it examines
    (:func:`_cmp_bits`, inlined in the search loops).  This is the only
    place a stored point's sign vector is held.
    """

    __slots__ = ("_keys", "_ids")

    def __init__(self):
        self._keys: list[int] = []
        self._ids: list[int] = []

    @classmethod
    def from_sorted(cls, keys: list[int]) -> "OvIndex":
        """Index over strictly increasing keys, key i belonging to point id i."""
        index = cls()
        index._keys = keys
        index._ids = list(range(len(keys)))
        return index

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, packed: int, q: int, counters: OpCounters) -> int | None:
        keys = self._keys
        lo, hi = 0, len(keys)
        bits = 0
        while lo < hi:
            mid = (lo + hi) // 2
            key = keys[mid]
            if key == packed:
                counters.bit_comparisons += bits + q
                return self._ids[mid]
            bits += q + 1 - (key ^ packed).bit_length()
            if key < packed:
                lo = mid + 1
            else:
                hi = mid
        counters.bit_comparisons += bits
        return None

    def insert(self, packed: int, pid: int, q: int, counters: OpCounters) -> None:
        keys = self._keys
        lo, hi = 0, len(keys)
        bits = 0
        while lo < hi:
            mid = (lo + hi) // 2
            key = keys[mid]
            if key == packed:
                raise AssertionError("duplicate sign vector in index")
            bits += q + 1 - (key ^ packed).bit_length()
            if key < packed:
                lo = mid + 1
            else:
                hi = mid
        counters.bit_comparisons += bits
        keys.insert(lo, packed)
        self._ids.insert(lo, pid)

    def extend_all(self, bit_by_id: np.ndarray) -> None:
        """Append one bit to every key; relative order is preserved."""
        bits = bit_by_id.tolist()
        self._keys = [(k << 1) | bits[i] for k, i in zip(self._keys, self._ids)]

    def items(self):
        return zip(self._keys, self._ids)


@dataclass
class PendingChain:
    """A stored anchor plus up to three unplaced points sharing its quadrant."""

    anchor_id: int
    anchor_key: int  # the anchor's packed sign vector at the current q
    b: np.ndarray
    midpoint_ab: np.ndarray
    c: np.ndarray | None = None
    d: np.ndarray | None = None

    def members(self):
        for pt in (self.b, self.c, self.d):
            if pt is not None:
                yield pt


@dataclass
class PlaneReport:
    plane_index: int
    constraint_count: int
    retries: int
    delta: float
    promoted_ids: list[int]
    rehomed: int
    recycled: list[np.ndarray] = field(default_factory=list)
    demotions: int = 0


class OfferKind(Enum):
    ACCEPTED = "accepted"
    PENDING = "pending"
    RECYCLED = "recycled"
    PLANE_EMITTED = "plane_emitted"


@dataclass
class OfferResult:
    kind: OfferKind
    point_id: int | None = None
    reports: tuple[PlaneReport, ...] = ()


class SeparationState:
    """Live algorithm state: stored points, their sign vectors, pending chains."""

    def __init__(self, n: int, config: RunConfig, rng: np.random.Generator):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        self.config = config
        self.rng = rng
        self.counters = OpCounters()

        self._alpha_buf = np.empty((8, n))
        self._saturated: list[bool] = []
        self.q = 0
        self.q0 = 0

        self._pts_buf = np.empty((16, n))
        self.count = 0
        self.index = OvIndex()

        self.chains: list[PendingChain] = []
        self._chain_by_anchor: dict[int, PendingChain] = {}

        self.offers = 0
        self.offered_nq = 0
        self.recycle_events = 0

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

    def planes(self) -> list[Plane]:
        return [
            Plane(self._alpha_buf[j].copy(), self._saturated[j]) for j in range(self.q)
        ]

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
        self.index.insert(packed, self.count, self.q, self.counters)
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

    def _ov_residuals(self, p: np.ndarray) -> np.ndarray:
        """Full sign-vector evaluation of one point, tallied as OV work."""
        r = kernels.residuals_point(self.plane_matrix, p)
        nq = self.n * self.q
        c = self.counters
        c.multiplications += nq
        c.additions += nq
        c.ov_multiplications += nq
        c.sign_evals += self.q
        return r

    def _pending_points(self) -> list[np.ndarray]:
        out = []
        for ch in self.chains:
            out.extend(ch.members())
        return out

    def _check_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.n,):
            raise DimensionMismatchError(f"point shape {p.shape} does not match n={self.n}")
        if not np.isfinite(p).all():
            raise ValueError("point coordinates must be finite")
        return p


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
    _require_distinct(points0)
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


def init(points0, n: int, seed, config: RunConfig | None = None) -> SeparationState:
    """Fresh state seeded with enough random planes to tell the first batch apart."""
    config = config or RunConfig(seed=seed if isinstance(seed, int) else 0)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = SeparationState(n=n, config=config, rng=rng)
    pts = np.asarray(points0, dtype=np.float64)
    if pts.size == 0:
        return state
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(f"expected shape (N, {n}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    _accrete_initial(state, pts)
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
    stored = state.points
    pend = state._pending_points()
    pend_mat = np.stack(pend) if pend else None

    r_stored = state._sweep(stored, alpha) if state.count else np.empty(0)
    r_pend = state._sweep(pend_mat, alpha) if pend_mat is not None else np.empty(0)
    live = np.concatenate([r_stored, r_pend])

    for step in _NUDGE_STEPS:
        d = step * eps
        factor = 1.0 + d
        moved = (live + d) / factor
        if live.size and (
            np.any(np.sign(moved) != np.sign(live)) or np.any(np.abs(moved) <= eps)
        ):
            continue
        if abs((r_p + d) / factor) <= eps:
            continue
        candidate = alpha / factor
        # verify the analytic prediction on the real arithmetic path
        chk_stored = state._sweep(stored, candidate) if state.count else np.empty(0)
        chk_pend = (
            state._sweep(pend_mat, candidate) if pend_mat is not None else np.empty(0)
        )
        chk = np.concatenate([chk_stored, chk_pend])
        if live.size and (
            np.any(np.sign(chk) != np.sign(live)) or np.any(np.abs(chk) <= eps)
        ):
            continue
        new_rp = float(state._sweep(p[None, :], candidate)[0])
        if abs(new_rp) <= eps:
            continue
        state._alpha_buf[j] = candidate
        return new_rp
    raise IncidentPointError(
        f"offered point is incident on plane {j} and no rescale preserved all signs"
    )


def offer(state: SeparationState, p) -> OfferResult:
    """Place one point: accept into a fresh quadrant, park on a chain, or recycle."""
    p = state._check_point(p)
    n = state.n

    r = state._ov_residuals(p)
    state.offers += 1
    state.offered_nq += n * state.q

    eps = state.config.epsilon
    # a nudged residual leaves the band, so r > eps below reads its side
    for j in np.nonzero(np.abs(r) <= eps)[0]:
        r[j] = _nudge_plane(state, int(j), p, float(r[j]))

    packed = pack_sign_bits(r > eps)
    anchor = state.index.lookup(packed, state.q, state.counters)
    if anchor is None:
        pid = state._add_point(p, packed)
        return OfferResult(OfferKind.ACCEPTED, point_id=pid)

    chain = state._chain_by_anchor.get(anchor)
    if chain is None:
        chain = PendingChain(
            anchor_id=anchor,
            anchor_key=packed,
            b=p,
            midpoint_ab=state._midpoint(state.points[anchor], p),
        )
        state.chains.append(chain)
        state._chain_by_anchor[anchor] = chain
    elif chain.c is None:
        chain.c = p
    elif chain.d is None:
        chain.d = p
    else:
        state.recycle_events += 1
        return OfferResult(OfferKind.RECYCLED)

    reports = []
    while len(state.chains) >= n:
        reports.append(emit_plane(state))
    if reports:
        return OfferResult(OfferKind.PLANE_EMITTED, reports=tuple(reports))
    return OfferResult(OfferKind.PENDING)


# ---------------------------------------------------------------------------
# plane emission
# ---------------------------------------------------------------------------

def _dedupe_chain_quadrants(state: SeparationState) -> tuple[list[np.ndarray], int]:
    """Guard pass: chains whose anchors share a quadrant get merged.

    Attach-time bookkeeping keys chains by anchor, and anchors hold
    pairwise-distinct sign vectors, so this never fires on the normal path;
    it is kept as the documented demotion rule for defence in depth.
    """
    recycled: list[np.ndarray] = []
    demotions = 0
    survivors: list[PendingChain] = []
    for ch in state.chains:
        host = None
        for kept in survivors:
            state.counters.bit_comparisons += _cmp_bits(
                kept.anchor_key, ch.anchor_key, state.q
            )
            if kept.anchor_key == ch.anchor_key:
                host = kept
                break
        if host is None:
            survivors.append(ch)
            continue
        demotions += 1
        state._chain_by_anchor.pop(ch.anchor_id, None)
        for pt in ch.members():
            if host.c is None:
                host.c = pt
            elif host.d is None:
                host.d = pt
            else:
                recycled.append(pt)
    state.chains = survivors
    return recycled, demotions


def _try_separating_plane(state, batch, pend_mat, pend_pos):
    """Fit a plane through the batch midpoints that clears every live point
    and splits every batch segment; None when the shift budget runs out.

    An exact fit separates each anchor from its first neighbour by the
    midpoint identity r(a) = -r(b); shifted refits (doubling delta along
    the failed normal) handle incidences on the digit lattice.
    """
    cfg = state.config
    eps = cfg.epsilon
    n = state.n
    mids0 = np.stack([ch.midpoint_ab for ch in batch])
    seg_lens = [
        float(np.linalg.norm(state.points[ch.anchor_id] - ch.b)) for ch in batch
    ]
    delta_base = cfg.delta0 * (sum(seg_lens) / len(seg_lens))

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
            plane = fit_plane_through(mids, n, state.rng, state.counters)
        except InconsistentSystemError:
            direction = None
            continue
        cand = plane.alpha
        r_s = state._sweep(state.points, cand) if state.count else np.empty(0)
        r_pend = state._sweep(pend_mat, cand)
        if np.any(np.abs(r_s) <= eps) or np.any(np.abs(r_pend) <= eps):
            direction = cand
            continue
        separated = all(
            (r_s[ch.anchor_id] > 0) != (r_pend[pend_pos[(ci, 0)]] > 0)
            for ci, ch in enumerate(batch)
        )
        if not separated:
            direction = cand
            continue
        return cand, r_s, r_pend, attempt, delta
    return None


def emit_plane(state: SeparationState) -> PlaneReport:
    """Fit one plane through the pending midpoints and promote the first
    neighbours; surviving second/third neighbours are re-homed onto whichever
    side of the new plane they fall.

    If every shifted refit leaves some segment unsplit, the batch geometry
    is degenerate (all endpoints in one lower-dimensional slab, so planes
    through all the midpoints are parallel to the segments); narrowing the
    batch frees coefficients and restores transversality, and the dropped
    chains simply wait for a later plane.
    """
    if not state.chains:
        raise ValueError("no pending chains to separate")
    n = state.n
    cfg = state.config

    recycled, demotions = _dedupe_chain_quadrants(state)

    pend_rows: list[np.ndarray] = []
    pend_pos: dict[tuple[int, int], int] = {}
    for ci, ch in enumerate(state.chains):
        for ri, pt in enumerate((ch.b, ch.c, ch.d)):
            if pt is not None:
                pend_pos[(ci, ri)] = len(pend_rows)
                pend_rows.append(pt)
    pend_mat = np.stack(pend_rows)

    fit = None
    k = min(n, len(state.chains))
    while k >= 1:
        fit = _try_separating_plane(state, state.chains[:k], pend_mat, pend_pos)
        if fit is not None:
            break
        k -= 1
    if fit is None:
        raise GeometryExhaustedError(
            f"no admissible plane after {cfg.max_retries} shift retries, "
            f"even through a single midpoint"
        )
    alpha, r_s, r_pend, retries, delta = fit
    all_chains = state.chains

    # commit: append the plane and extend every stored sign vector by one bit
    bit_s = r_s > 0
    plane_index = state._append_plane(alpha, saturated=(k == n))
    state.index.extend_all(bit_s)

    # every chain is re-validated against the new plane.  Batch chains had
    # their first neighbour split off by construction; leftover chains may
    # also have members cut away from their anchor, and the anchor's old
    # address extended by the opposite bit is provably unoccupied, so the
    # first such member is stored outright.
    promoted: list[int] = []
    new_chains: list[PendingChain] = []
    rehomed = 0
    for ci, ch in enumerate(all_chains):
        state._chain_by_anchor.pop(ch.anchor_id, None)
        prefix = ch.anchor_key
        a_bit = bool(bit_s[ch.anchor_id])
        hosts: dict[bool, int] = {a_bit: ch.anchor_id}
        members = [(ri, pt) for ri, pt in enumerate((ch.b, ch.c, ch.d)) if pt is not None]
        if ci < k:
            b_bit = bool(r_pend[pend_pos[(ci, 0)]] > 0)
            pid = state._add_point(ch.b, (prefix << 1) | int(b_bit))
            promoted.append(pid)
            hosts[b_bit] = pid
            members = members[1:]
        side_chain: dict[int, PendingChain] = {}
        for ri, pt in members:
            pt_bit = bool(r_pend[pend_pos[(ci, ri)]] > 0)
            host = hosts.get(pt_bit)
            if host is None:
                pid = state._add_point(pt, (prefix << 1) | int(pt_bit))
                promoted.append(pid)
                hosts[pt_bit] = pid
                continue
            sc = side_chain.get(host)
            if sc is None:
                if host == ch.anchor_id and ri == 0:
                    mid = ch.midpoint_ab  # the pair is unchanged, keep its midpoint
                else:
                    rehomed += 1
                    mid = state._midpoint(state.points[host], pt)
                sc = PendingChain(
                    anchor_id=host,
                    anchor_key=(prefix << 1) | int(pt_bit),
                    b=pt,
                    midpoint_ab=mid,
                )
                side_chain[host] = sc
                new_chains.append(sc)
                state._chain_by_anchor[host] = sc
            elif sc.c is None:
                rehomed += 1
                sc.c = pt
            else:
                rehomed += 1
                sc.d = pt

    state.chains = new_chains

    return PlaneReport(
        plane_index=plane_index,
        constraint_count=k,
        retries=retries,
        delta=delta,
        promoted_ids=promoted,
        rehomed=rehomed,
        recycled=recycled,
        demotions=demotions,
    )


# ---------------------------------------------------------------------------
# finalize and driver
# ---------------------------------------------------------------------------

def finalize(state: SeparationState) -> SeparationState:
    """Flush pending chains with planes through however many midpoints remain."""
    queue: deque[np.ndarray] = deque()
    while state.chains or queue:
        if state.chains:
            report = emit_plane(state)
            queue.extend(report.recycled)
            still: deque[np.ndarray] = deque()
            while queue:
                p = queue.popleft()
                res = offer(state, p)
                if res.kind is OfferKind.RECYCLED:
                    still.append(p)
                for rep in res.reports:
                    still.extend(rep.recycled)
            queue = still
        else:
            # no chains are open, so this offer can only accept or start one
            p = queue.popleft()
            res = offer(state, p)
            if res.kind is OfferKind.RECYCLED:
                queue.append(p)
            for rep in res.reports:
                queue.extend(rep.recycled)
    return state


def stream_points(state: SeparationState, pts) -> None:
    """Offer a batch of points, recycling and forcing emissions as needed.

    Recycled points rejoin the queue after the next plane emission; if the
    queue drains while recycled points wait, one plane is forced through
    the pending midpoints to open fresh quadrants.  Pending chains may
    remain afterwards; call :func:`finalize` to flush them.
    """
    queue: deque[np.ndarray] = deque(pts)
    bucket: list[np.ndarray] = []
    while queue or bucket:
        if not queue:
            # only recycled points remain; force a plane to open new quadrants
            if state.chains:
                report = emit_plane(state)
                bucket.extend(report.recycled)
            queue.extend(bucket)
            bucket.clear()
            continue
        p = queue.popleft()
        res = offer(state, p)
        if res.kind is OfferKind.RECYCLED:
            bucket.append(p)
        elif res.kind is OfferKind.PLANE_EMITTED:
            for rep in res.reports:
                bucket.extend(rep.recycled)
            queue.extend(bucket)
            bucket.clear()


def run(points, n: int, seed, config: RunConfig | None = None) -> SeparationState:
    """Shuffle, seed, stream every point, and flush: the full build driver.

    Returns a state in which every input point is stored under a unique
    sign vector.
    """
    config = config or RunConfig(seed=seed if isinstance(seed, int) else 0)
    pts = np.asarray(points, dtype=np.float64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if pts.size == 0:
        return SeparationState(n=n, config=config, rng=rng)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(f"expected shape (N, {n}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    _require_distinct(pts)

    order = rng.permutation(pts.shape[0])
    n0 = min(pts.shape[0], n + 1)

    state = SeparationState(n=n, config=config, rng=rng)
    _accrete_initial(state, pts[order[:n0]])
    stream_points(state, (pts[order[i]] for i in range(n0, pts.shape[0])))
    finalize(state)
    if state.count != pts.shape[0]:
        raise AssertionError("driver lost points; this is a bug")
    return state
