"""The incremental separation algorithm: chains, emissions, invariants."""

import random
from collections import deque

import numpy as np
import pytest

from planesep import (
    DimensionMismatchError,
    DuplicatePointError,
    OpCounters,
    oracle,
    separator,
)
from planesep.geometry import pack_sign_bits
from planesep.repository import IntegerMapping, map_to_points
from planesep.separator import (
    OfferKind,
    OvIndex,
    PendingChain,
    SeparationState,
    emit_plane,
    finalize,
    init,
    offer,
    run,
    stream_points,
)

EPS = 1e-9


def packed_of(state, p):
    """Sign vector of p recomputed independently of the state's bookkeeping."""
    r = 1.0 + state.plane_matrix @ p
    assert np.all(np.abs(r) > EPS)
    return pack_sign_bits(r > 0)


def find_same_quadrant_points(state, anchor_id, count, lo=0.0, hi=9.0):
    """Deterministic scan for points sharing the anchor's quadrant."""
    target = state.packed[anchor_id]
    rng = np.random.default_rng(123)
    anchor = state.points[anchor_id]
    found = []
    for _ in range(20000):
        cand = anchor + rng.uniform(-1.5, 1.5, size=state.n)
        cand = np.clip(cand, lo, hi)
        r = 1.0 + state.plane_matrix @ cand
        if np.any(np.abs(r) <= EPS):
            continue
        if pack_sign_bits(r > 0) == target:
            found.append(cand)
            if len(found) == count:
                return found
    raise AssertionError("could not find enough same-quadrant candidates")


def assert_state_separated(state):
    verdict = oracle.verify_separation(state.points, state.plane_matrix, EPS)
    assert verdict.ok, f"incidences={verdict.incidences} collisions={verdict.collisions}"


def _cmp_bits(a: int, b: int, q: int) -> int:
    """Bits a dictionary-order comparison of two q-bit keys examines: up to
    and including the first difference, all q when they are equal."""
    if a == b:
        return q
    return q - (a ^ b).bit_length() + 1


class TestCmpBits:
    def test_equal_examines_all_bits(self):
        assert _cmp_bits(0b1011, 0b1011, 4) == 4

    def test_first_bit_differs(self):
        assert _cmp_bits(0b1000, 0b0000, 4) == 1

    def test_last_bit_differs(self):
        assert _cmp_bits(0b1010, 0b1011, 4) == 4


def replay_search(keys, packed, q, stop_on_hit):
    """Bits a binary search over sorted keys examines, one _cmp_bits per probe.

    The lookup loop stops on an exact hit; the insert loop narrows to the
    leftmost position whatever it meets.
    """
    lo, hi, bits = 0, len(keys), 0
    while lo < hi:
        mid = (lo + hi) // 2
        bits += _cmp_bits(keys[mid], packed, q)
        if keys[mid] < packed:
            lo = mid + 1
        elif keys[mid] > packed or not stop_on_hit:
            hi = mid
        else:
            break
    return bits


class TestOvIndex:
    def test_lookup_and_insert_count_comparisons(self):
        idx = OvIndex()
        c = OpCounters()
        for i, key in enumerate([0b100, 0b001, 0b111, 0b010]):
            idx.insert(key, i, 3, c)
        assert c.bit_comparisons > 0
        hits = OpCounters()
        assert idx.lookup(0b111, 3, hits) == 2
        assert idx.lookup(0b101, 3, hits) == ~3  # after 0b001, 0b010 and 0b100
        assert hits.bit_comparisons > 0

    def test_comparison_counts_equal_a_replay_of_the_search(self):
        q = 12
        rng = np.random.default_rng(3)
        keys = [int(k) for k in rng.choice(1 << q, size=300, replace=False)]
        idx = OvIndex()
        for pid, key in enumerate(keys):
            c = OpCounters()
            before = sorted(keys[:pid])
            idx.insert(key, pid, q, c)
            assert c.bit_comparisons == replay_search(before, key, q, stop_on_hit=False)
        stored = sorted(keys)
        for probe in [*keys[:50], *(int(k) for k in rng.integers(0, 1 << q, size=50))]:
            c = OpCounters()
            pid = idx.lookup(probe, q, c)
            assert pid == (keys.index(probe) if probe in keys
                           else ~sum(k < probe for k in keys))
            assert c.bit_comparisons == replay_search(stored, probe, q, stop_on_hit=True)

    def test_bulk_build_matches_one_built_by_insert(self):
        q = 10
        rng = np.random.default_rng(4)
        keys = sorted(int(k) for k in rng.choice(1 << q, size=200, replace=False))
        inserted = OvIndex()
        c = OpCounters()
        for pos in rng.permutation(len(keys)):
            inserted.insert(keys[pos], int(pos), q, c)
        bulk = OvIndex.from_sorted(list(keys), q)
        assert list(bulk.items()) == list(inserted.items())
        for probe in range(1 << q):
            a, b = OpCounters(), OpCounters()
            assert bulk.lookup(probe, q, a) == inserted.lookup(probe, q, b)
            assert a.bit_comparisons == b.bit_comparisons

    def test_keys_stay_sorted_and_extend_preserves_order(self):
        idx = OvIndex()
        c = OpCounters()
        for i, key in enumerate([5, 1, 7, 3]):
            idx.insert(key, i, 3, c)
        keys = [k for k, _ in idx.items()]
        assert keys == sorted(keys)
        bits = np.array([1, 0, 1, 0], dtype=bool)
        idx.extend_all(bits)
        keys2 = [k for k, _ in idx.items()]
        assert keys2 == sorted(keys2)
        assert keys2 == [(k << 1) | int(bits[i]) for k, i in zip(keys, [1, 3, 0, 2])]

    def test_duplicate_insert_is_a_bug(self):
        idx = OvIndex()
        c = OpCounters()
        idx.insert(4, 0, 3, c)
        with pytest.raises(AssertionError):
            idx.insert(4, 1, 3, c)

    def test_key_of_another_width_is_a_bug(self):
        idx = OvIndex()
        c = OpCounters()
        idx.insert(4, 0, 3, c)
        with pytest.raises(AssertionError):
            idx.insert(4, 1, 4, c)


class TwoListIndex:
    """The index as it was before keys were stored aligned: q-bit keys in
    one list, point ids in another, every key rebuilt on each new plane,
    and every insert a search of its own.  A missed lookup returns ~pos,
    pos being where the key would go.  The reference for the differential
    tests below."""

    def __init__(self):
        self._keys = []
        self._ids = []

    @classmethod
    def from_sorted(cls, keys):
        index = cls()
        index._keys = list(keys)
        index._ids = list(range(len(keys)))
        return index

    def lookup(self, packed, q, counters):
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
        return ~lo

    def insert(self, packed, pid, q, counters):
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

    def extend_all(self, bit_by_id):
        bits = bit_by_id.tolist()
        self._keys = [(k << 1) | bits[i] for k, i in zip(self._keys, self._ids)]

    def items(self):
        return zip(self._keys, self._ids)


class TestAlignedIndexAgainstTwoLists:
    """Same ids, the same bit comparisons per call and the same items as
    the two-list index, as the keys grow past 64 and 128 bits and are
    realigned on the way."""

    @staticmethod
    def call_both(new, ref, method, *args):
        a, b = OpCounters(), OpCounters()
        got = getattr(new, method)(*args, a)
        assert got == getattr(ref, method)(*args, b)
        assert a.bit_comparisons == b.bit_comparisons, (method, args)
        return got

    def probe(self, new, ref, q, rnd, count):
        """Lookups of stored keys, of keys one low bit away, and of random keys."""
        stored = [k for k, _ in ref.items()]
        for _ in range(count):
            if stored:
                key = rnd.choice(stored)
                self.call_both(new, ref, "lookup", key, q)
                if q:
                    self.call_both(new, ref, "lookup", key ^ (1 << rnd.randrange(min(q, 3))), q)
            self.call_both(new, ref, "lookup", rnd.getrandbits(q) if q else 0, q)

    def test_interleaved_inserts_lookups_and_plane_appends(self):
        rnd = random.Random(10)
        new, ref = OvIndex(), TwoListIndex()
        self.probe(new, ref, 0, rnd, 2)  # the empty index
        present = set()
        for q in range(140):
            for _ in range(4):
                key = rnd.getrandbits(q) if q else 0
                if key not in present:
                    present.add(key)
                    self.call_both(new, ref, "insert", key, len(present) - 1, q)
            self.probe(new, ref, q, rnd, 4)
            assert list(new.items()) == list(ref.items())
            bits = np.array([rnd.random() < 0.5 for _ in present], dtype=bool)
            new.extend_all(bits)
            ref.extend_all(bits)
            present = {k for k, _ in ref.items()}
            assert list(new.items()) == list(ref.items())
        assert len(new) == len(present) > 400

    def test_insert_at_a_missed_lookups_position_skips_the_search(self):
        """Keys stored at ~lookup(...) after a miss, as offer stores them:
        the insert tallies no comparison and leaves the same items as the
        reference's searching insert, at widths that realign the keys."""
        rnd = random.Random(11)
        new, ref = OvIndex.from_sorted([], 5), TwoListIndex()
        for q in range(5, 71):
            if q in (5, 40, 70):
                present = {k for k, _ in ref.items()}
                for _ in range(60):
                    key = rnd.getrandbits(q)
                    miss = self.call_both(new, ref, "lookup", key, q)
                    if key in present:
                        continue
                    assert miss < 0
                    present.add(key)
                    skipped, searched = OpCounters(), OpCounters()
                    new.insert(key, len(present) - 1, q, skipped, ~miss)
                    ref.insert(key, len(present) - 1, q, searched)
                    assert skipped.bit_comparisons == 0
                    assert list(new.items()) == list(ref.items())
            bits = np.array([rnd.random() < 0.5 for _ in range(len(new))], dtype=bool)
            new.extend_all(bits)
            ref.extend_all(bits)
        assert list(new.items()) == list(ref.items())
        assert len(new) > 140

    @pytest.mark.parametrize("after_miss", [True, False], ids=["at-missed-pos", "searching"])
    def test_insert_at_the_front_the_back_and_between(self, after_miss):
        """Each width stores a key below every key (position 0), one above
        every key (position len) and one between, from q = 27 past the
        realigns at 30 and 60 bits.  The first keys sit far enough from 0
        and 2**q that both edges stay free."""
        rnd = random.Random(12)
        new, ref = OvIndex(), TwoListIndex()
        for pid, key in enumerate([5 << 20, 9 << 20, 13 << 20]):
            self.call_both(new, ref, "insert", key, pid, 27)
        for q in range(27, 63):
            present = {k for k, _ in ref.items()}
            lowest, highest = min(present), max(present)
            middle = lowest
            while middle in present:
                middle = rnd.randrange(lowest, highest)
            for key, edge in ((lowest - 1, "front"), (highest + 1, "back"), (middle, None)):
                pid = len(new)
                pos = {"front": 0, "back": pid}.get(edge)
                if after_miss:
                    miss = self.call_both(new, ref, "lookup", key, q)
                    assert miss < 0 and pos in (None, ~miss)
                    skipped = OpCounters()
                    new.insert(key, pid, q, skipped, ~miss)
                    ref.insert(key, pid, q, OpCounters())
                    assert skipped.bit_comparisons == 0
                else:
                    self.call_both(new, ref, "insert", key, pid, q)
                assert list(new.items()) == list(ref.items())
                assert pos in (None, [i for _, i in new.items()].index(pid))
            self.probe(new, ref, q, rnd, 4)
            bits = np.array([rnd.random() < 0.5 for _ in range(len(new))], dtype=bool)
            new.extend_all(bits)
            ref.extend_all(bits)
            assert list(new.items()) == list(ref.items())
        assert new._width == 90 and len(new) == 3 + 3 * 36

    @pytest.mark.parametrize("q", [0, 64, 65])
    def test_bulk_load_then_grow(self, q):
        rnd = random.Random(q)
        keys = [0] if q == 0 else sorted({rnd.getrandbits(q) for _ in range(60)})
        new, ref = OvIndex.from_sorted(list(keys), q), TwoListIndex.from_sorted(keys)
        assert list(new.items()) == list(ref.items())
        self.probe(new, ref, q, rnd, 20)
        for step in range(3):
            bits = np.array([rnd.random() < 0.5 for _ in range(len(ref._keys))], dtype=bool)
            new.extend_all(bits)
            ref.extend_all(bits)
            q += 1
            present = {k for k, _ in ref.items()}
            for _ in range(5):
                key = rnd.getrandbits(q)
                if key not in present:
                    present.add(key)
                    self.call_both(new, ref, "insert", key, len(present) - 1, q)
            self.probe(new, ref, q, rnd, 20)
            assert list(new.items()) == list(ref.items())


class TestInit:
    def test_first_primes_as_two_digit_points(self):
        pts = np.array([[2, 0], [3, 0], [5, 0], [7, 0], [1, 1]], dtype=float)
        state = init(pts, 2, seed=0)
        assert state.q >= 3  # ceil(log2(5)) with 5 starting points
        assert state.count == 5
        assert len(set(state.packed)) == 5
        assert_state_separated(state)
        assert all(state._saturated)

    def test_duplicate_points_rejected(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        with pytest.raises(DuplicatePointError):
            init(pts, 2, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_plane_floor_holds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        n0 = n + 1
        pts = rng.random((n0, n)) * 9
        state = init(pts, n, seed=seed)
        assert state.q >= int(np.ceil(np.log2(max(n0, n + 1))))
        assert len(set(state.packed)) == n0

    def test_empty_input_gives_empty_state(self):
        state = init(np.empty((0, 3)), 3, seed=0)
        assert state.q == 0
        assert state.count == 0


class TestOffer:
    def make_state(self, seed=0):
        pts = np.array([[0, 0], [9, 0], [0, 9], [9, 9]], dtype=float)
        return init(pts, 2, seed=seed)

    def test_fresh_quadrant_accepted(self):
        # three points under at least two planes leave a quadrant free
        state = init(np.array([[0, 0], [9, 0], [0, 9]], dtype=float), 2, seed=0)
        before = state.count
        rng = np.random.default_rng(7)
        stored = set(state.packed)
        for _ in range(5000):
            cand = rng.uniform(0, 9, size=2)
            r = 1.0 + state.plane_matrix @ cand
            if np.all(np.abs(r) > EPS) and pack_sign_bits(r > 0) not in stored:
                break
        else:
            raise AssertionError("no fresh quadrant found in scan")
        res = offer(state, cand)
        assert res.kind is OfferKind.ACCEPTED
        assert state.count == before + 1

    def test_chain_fills_then_recycles(self):
        state = self.make_state()
        anchor = 0
        b, c, d, e = find_same_quadrant_points(state, anchor, 4)
        assert offer(state, b).kind is OfferKind.PENDING
        chain = state.chains[anchor]
        assert chain.anchor_id == anchor
        assert np.allclose(chain.midpoint_ab, 0.5 * (state.points[anchor] + b))
        assert offer(state, c).kind is OfferKind.PENDING
        assert offer(state, d).kind is OfferKind.PENDING
        assert [pt.tolist() for pt in chain.members] == [b.tolist(), c.tolist(), d.tolist()]
        res = offer(state, e)
        assert res.kind is OfferKind.RECYCLED
        assert state.counter == 1  # the full chain still counts once

    def test_nth_chain_completion_emits_plane(self):
        state = self.make_state(seed=3)
        q_before = state.q
        filled = 0
        for anchor in range(state.count):
            try:
                (b,) = find_same_quadrant_points(state, anchor, 1)
            except AssertionError:
                continue
            res = offer(state, b)
            filled += 1
            if filled == 2:
                assert res.kind is OfferKind.PLANE_EMITTED
                break
            assert res.kind is OfferKind.PENDING
        assert filled == 2
        assert state.q == q_before + 1
        assert state.counter < state.n
        assert_state_separated(state)

    def test_offered_ov_work_is_tallied_per_offer(self):
        state = self.make_state(seed=1)
        expected = state.counters.ov_multiplications
        rng = np.random.default_rng(11)
        for _ in range(10):
            q_now = state.q
            p = rng.uniform(0, 9, size=2)
            if any(np.array_equal(p, state.points[i]) for i in range(state.count)):
                continue
            offer(state, p)
            expected += 2 * q_now
        assert state.counters.ov_multiplications == expected


class TestEmitPlane:
    def build_two_chain_state(self, n=2, seed=5):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 9, size=(n + 1, n))
        state = init(pts, n, seed=seed)
        got = 0
        for anchor in range(state.count):
            try:
                (b,) = find_same_quadrant_points(state, anchor, 1)
            except AssertionError:
                continue
            state.chains[anchor] = PendingChain(
                anchor, state.packed[anchor], 0.5 * (state.points[anchor] + b), [b]
            )
            got += 1
            if got == 2:
                break
        if got < 2:
            pytest.skip("could not stage two chains")
        return state

    def test_prefix_invariance_and_last_bit_split(self):
        state = self.build_two_chain_state()
        anchors = list(state.chains)
        old_packed = list(state.packed)
        old_q = state.q
        report = emit_plane(state)
        assert state.q == old_q + 1
        for pid, old in enumerate(old_packed):
            assert state.packed[pid] >> 1 == old, "stored prefixes must never change"
        for anchor, pid in zip(anchors, report.promoted_ids):
            assert state.packed[anchor] >> 1 == state.packed[pid] >> 1
            assert (state.packed[anchor] & 1) != (state.packed[pid] & 1)
        assert state.counter == 0
        assert_state_separated(state)

    def test_second_neighbour_rehomes_with_fresh_midpoint(self):
        state = self.build_two_chain_state(seed=8)
        anchor = next(iter(state.chains))
        try:
            extra = find_same_quadrant_points(state, anchor, 2)[1]
        except AssertionError:
            pytest.skip("no second neighbour available")
        state.chains[anchor].members.append(extra)
        report = emit_plane(state)
        assert report.rehomed == 1
        assert state.counter == 1
        (host, nxt), = state.chains.items()
        assert [pt.tolist() for pt in nxt.members] == [extra.tolist()]
        assert np.allclose(nxt.midpoint_ab, 0.5 * (state.points[host] + extra))
        # the re-homed point shares its new host's quadrant
        assert packed_of(state, extra) == state.packed[host]
        assert_state_separated(state)

    def test_requires_pending_chains(self):
        state = init(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]]), 2, seed=0)
        with pytest.raises(ValueError):
            emit_plane(state)


class TestLeftoverChains:
    def test_leftover_chain_member_across_its_anchor_is_stored(self, monkeypatch):
        # 200 values below 10^6 at n=25: 19 dead digits narrow most batches,
        # and the new plane cuts some members of the chains left out of the
        # batch away from their anchor; each such member is stored outright
        values = np.random.default_rng(5).choice(10**6, 200, replace=False)
        pts = map_to_points([int(v) for v in values], IntegerMapping(25))
        state = init(pts[:26], 25, seed=0)
        emit = separator.emit_plane

        def checked_emit(state):
            old = state.packed
            report = emit(state)
            new = state.packed
            assert len(new) == len(old) + len(report.promoted_ids)
            assert [key >> 1 for key in new[: len(old)]] == old
            assert_state_separated(state)
            return report

        monkeypatch.setattr(separator, "emit_plane", checked_emit)
        reports = offer_one_at_a_time(state, pts[26:])
        while state.chains:
            reports.append(separator.emit_plane(state))
        assert state.count == len(values)
        # a batch of k chains promotes exactly k points; the rest are leftovers'
        assert any(len(r.promoted_ids) > r.constraint_count for r in reports)


class TestFinalize:
    def test_counter_zero_is_noop(self):
        state = init(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]]), 2, seed=0)
        q = state.q
        finalize(state)
        assert state.q == q

    def test_partial_batch_flush_in_5d(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 9, size=(6, 5))
        state = init(pts, 5, seed=21)
        staged = 0
        for anchor in range(state.count):
            try:
                (b,) = find_same_quadrant_points(state, anchor, 1)
            except AssertionError:
                continue
            state.chains[anchor] = PendingChain(
                anchor, state.packed[anchor], 0.5 * (state.points[anchor] + b), [b]
            )
            staged += 1
            if staged == 2:
                break
        if staged < 2:
            pytest.skip("could not stage chains")
        total = state.count + staged
        q_before = state.q
        finalize(state)
        assert state.counter == 0
        assert state.count == total
        assert state.q >= q_before + 1
        assert_state_separated(state)


def offer_one_at_a_time(state, pts):
    """The stream driven by hand, one offer(state, p) per point, as in c06;
    returns the report of every plane emitted."""
    queue = deque(pts)
    stash = []
    reports = []
    while queue or stash:
        if not queue:
            reports.append(separator.emit_plane(state))
            queue.extend(stash)
            stash.clear()
            continue
        p = queue.popleft()
        res = offer(state, p)
        reports.extend(res.reports)
        if res.kind is OfferKind.RECYCLED:
            stash.append(p)
        elif res.kind is OfferKind.PLANE_EMITTED:
            queue.extend(stash)
            stash.clear()
    return reports


def chain_fields(chain):
    rows = (chain.midpoint_ab, *chain.members)
    return chain.anchor_id, chain.anchor_key, *(x.tobytes() for x in rows)


def assert_same_state(a, b):
    assert a.plane_matrix.tobytes() == b.plane_matrix.tobytes()
    assert list(a.index.items()) == list(b.index.items())
    assert a.points.tobytes() == b.points.tobytes()
    assert [chain_fields(c) for c in a.chains.values()] == [
        chain_fields(c) for c in b.chains.values()
    ]
    assert a.recycle_events == b.recycle_events
    assert a.offers == b.offers
    assert a.counters == b.counters


class TestSaturatedRecord:
    def test_a_plane_is_saturated_exactly_when_n_midpoints_fixed_it(self):
        # primes below 1000 at n=3 emit planes through 3 midpoints and through fewer
        n = 3
        pts = map_to_points(oracle.sieve(1000).primes(), IntegerMapping(n))
        state = init(pts[: n + 1], n, seed=2)
        reports = offer_one_at_a_time(state, pts[n + 1:])
        while state.chains:
            reports.append(emit_plane(state))
        assert state.q0 > 0 and all(state._saturated[: state.q0])
        assert [r.plane_index for r in reports] == list(range(state.q0, state.q))
        full = [r.constraint_count == n for r in reports]
        assert [state._saturated[r.plane_index] for r in reports] == full
        assert set(full) == {True, False}


class TestStreamInBlocks:
    """stream_points evaluates its queue in blocks, and must end exactly
    where offering the same points one at a time ends."""

    def test_block_stream_equals_offers_one_at_a_time(self, monkeypatch):
        # primes below 1000 at n=3, shuffled with seed 2: all 164 streamed
        # points fit in one block, which emits planes, nudges planes off
        # offered points and recycles points
        lattice = np.array([[(v // 10**i) % 10 for i in range(3)] for v in range(1000)],
                           dtype=float)
        pts = lattice[oracle.sieve(1000).primes()]
        pts = pts[np.random.default_rng(2).permutation(len(pts))]
        assert len(pts) - 4 <= separator._OFFER_BLOCK

        scalar = init(pts[:4], 3, seed=2)
        offer_one_at_a_time(scalar, pts[4:])

        kinds, nudged_at = [], []
        real_offer, real_nudge = separator.offer, separator._nudge_plane

        def traced_offer(*args):
            res = real_offer(*args)
            kinds.append(res.kind)
            return res

        def traced_nudge(*args):
            nudged_at.append(len(kinds))  # the number of the offer under way
            return real_nudge(*args)

        monkeypatch.setattr(separator, "offer", traced_offer)
        monkeypatch.setattr(separator, "_nudge_plane", traced_nudge)
        blocked = init(pts[:4], 3, seed=2)
        stream_points(blocked, pts[4:])
        first_block = kinds[: len(pts) - 4]
        assert OfferKind.PLANE_EMITTED in first_block and OfferKind.RECYCLED in first_block
        assert nudged_at and nudged_at[0] < len(first_block)
        assert scalar.recycle_events > 0
        assert_same_state(blocked, scalar)

        # two unstored lattice points on one plane, in one block: the first
        # one's nudge moves the plane off the second, which must then be
        # judged at the nudged plane, not nudge it a second time
        on_plane = np.abs(1.0 + lattice @ scalar.plane_matrix.T) <= EPS
        j = int(np.flatnonzero(on_plane.sum(axis=0) >= 2)[0])
        pair = lattice[on_plane[:, j]][:2]
        nudges = len(nudged_at)
        stream_points(blocked, pair)
        offer_one_at_a_time(scalar, pair)
        assert len(nudged_at) > nudges
        assert_same_state(blocked, scalar)

    @pytest.mark.parametrize("bad, error", [
        ([1.0, 2.0, 3.0], DimensionMismatchError),
        ([1.0, np.nan], ValueError),
        ([np.inf, 4.0], ValueError),
    ])
    def test_bad_point_in_a_block_raises_what_offer_raises(self, bad, error):
        def fresh():
            return init(np.array([[0, 0], [9, 0], [0, 9], [9, 9]], dtype=float), 2, seed=0)

        with pytest.raises(error) as from_offer:
            offer(fresh(), bad)
        with pytest.raises(error) as from_block:
            stream_points(fresh(), [[1.5, 2.5], bad, [3.5, 4.5]])
        assert str(from_block.value) == str(from_offer.value)

    def test_block_of_the_wrong_width_is_a_dimension_mismatch(self):
        state = init(np.array([[0, 0], [9, 0], [0, 9]], dtype=float), 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            stream_points(state, np.ones((5, 3)))


class TestRun:
    def test_25_primes_in_2d(self):
        pts = np.array([[p % 10, p // 10] for p in oracle.sieve(100).primes()],
                       dtype=float)
        state = run(pts, 2, 0)
        assert state.count == 25
        assert len(set(state.packed)) == 25
        assert_state_separated(state)

    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_cube_points(self, seed):
        pts = np.random.default_rng(seed).random((300, 10))
        state = run(pts, 10, seed)
        assert state.count == 300
        assert_state_separated(state)

    def test_plane_count_floor(self):
        pts = np.random.default_rng(2).random((128, 6))
        state = run(pts, 6, 2)
        assert state.q >= int(np.ceil(np.log2(128)))

    def test_duplicates_rejected(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        with pytest.raises(DuplicatePointError):
            run(pts, 2, 0)

    def test_empty_input(self):
        state = run(np.empty((0, 4)), 4, 0)
        assert state.count == 0
        assert state.q == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_adversarial_tight_clusters_terminate(self, seed):
        rng = np.random.default_rng(seed)
        cluster = rng.normal(0.0, 1e-5, size=(40, 3)) + 4.5
        spread = rng.uniform(0, 9, size=(20, 3))
        pts = np.vstack([cluster, spread])
        state = run(pts, 3, seed)
        assert state.count == 60
        assert_state_separated(state)

    def test_quiescent_counter_below_n(self):
        pts = np.random.default_rng(5).random((100, 4)) * 9
        state = run(pts, 4, 5)
        assert state.counter == 0

    def test_deterministic_replay(self):
        pts = np.random.default_rng(6).random((80, 5))
        a = run(pts, 5, 99)
        b = run(pts, 5, 99)
        assert a.q == b.q
        assert a.packed == b.packed
        assert np.array_equal(a.plane_matrix, b.plane_matrix)

    def test_digit_lattice_with_shared_digit_degeneracy(self):
        # values whose units digit repeats heavily force batches whose
        # segments all live in one digit slab
        vals = [v for v in range(1, 2000, 2) if v % 10 in (1, 3, 7, 9)][:300]
        pts = np.array([[(v // 10**i) % 10 for i in range(4)] for v in vals],
                       dtype=float)
        state = run(pts, 4, 13)
        assert state.count == len(vals)
        assert_state_separated(state)


class TestRankAwareNarrowing:
    def test_inconsistent_batch_jumps_to_rank_plus_one(self, monkeypatch):
        # values below 10^4 as 10-digit points: 6 coordinates are dead, so
        # batches of 10 midpoints are rank-deficient
        values = np.random.default_rng(0).choice(10**4, 400, replace=False)
        pts = np.array([[(int(v) // 10**i) % 10 for i in range(10)] for v in values],
                       dtype=float)
        fits = []
        reports = []
        fit = separator.fit_plane_through
        emit = separator.emit_plane
        monkeypatch.setattr(separator, "fit_plane_through",
                            lambda *a, **kw: fits.append(1) or fit(*a, **kw))
        monkeypatch.setattr(separator, "emit_plane",
                            lambda state: reports.append(emit(state)) or reports[-1])
        state = run(pts, 10, 0)
        assert state.count == len(values)
        assert_state_separated(state)

        # stepping k down one chain at a time from 10 would take 52.5 fits
        # per plane here; the jump costs one exact fit, and the walk from
        # r+1 keeps the shifted refits of rank k-1 batches
        retries = state.config.max_retries
        assert len(fits) <= (retries + 3) * len(reports)
        # 4 live digits span at most 4 dimensions, one more for the shift
        assert max(r.constraint_count for r in reports) <= 5
        assert state.q <= 37  # the one-step walk's plane count
