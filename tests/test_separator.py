"""The incremental separation algorithm: chains, emissions, invariants."""

import copy
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


class ListIndex:
    """The reference for :class:`OvIndex`: q-bit keys in a list by point id
    and a dict from key to point id, every key rebuilt on each new plane.

    Beside them it keeps the bucketing OvIndex documents, which
    :meth:`replay_bits` reads: a key's top P bits pick
    one of S = 2**b slots, the top b bits of the sum of the prefix's
    64-bit words (the last one filled with zeros), word i of k times
    FIB**(k - i), modulo 2**64.  The slots are rebuilt with P = q and S
    the least power of two >= 4N (at least 8) when the index is
    bulk-loaded or takes its first keys, when a new plane brings q to 2P,
    and when an insert brings N to S/2.
    """

    FIB = 0x9E3779B97F4A7C15

    def __init__(self):
        self.by_id, self.ids = [], {}
        self.q = 0
        self.rebuild()

    @classmethod
    def from_rows(cls, keys, q):
        index = cls()
        index.by_id = list(keys)
        index.ids = {key: pid for pid, key in enumerate(keys)}
        index.q = q
        index.rebuild()
        return index

    def rebuild(self):
        self.p = self.q
        self.slots = 8
        while self.slots < 4 * len(self.by_id):
            self.slots *= 2

    def slot(self, packed):
        words = -(-self.p // 64)
        prefix = (packed >> (self.q - self.p)) << (64 * words - self.p)
        text = format(prefix, f"0{16 * words}x")
        h = sum(int(text[16 * i:16 * i + 16], 16) * self.FIB ** (words - i) for i in range(words))
        return h % 2**64 >> (64 - self.slots.bit_length() + 1)

    def lookup(self, packed):
        return self.ids.get(packed, -1)

    def insert(self, packed, q):
        if q != self.q:
            if self.by_id:
                raise AssertionError("key of another width")
            self.q = q
            self.rebuild()
        if packed in self.ids:
            raise AssertionError("duplicate sign vector in index")
        pid = self.ids[packed] = len(self.by_id)
        self.by_id.append(packed)
        if 2 * len(self.by_id) >= self.slots:
            self.rebuild()
        return pid

    def extend_all(self, bit_by_id):
        self.by_id = [(k << 1) | b for k, b in zip(self.by_id, bit_by_id.tolist())]
        self.ids = {key: pid for pid, key in enumerate(self.by_id)}
        self.q += 1
        if self.q >= 2 * self.p:
            self.rebuild()

    def items(self):
        return list(self.by_id)

    def replay_bits(self, packed):
        """The bits OvIndex tallies probing for ``packed``: the stored keys
        in its slot, newest first, each compared up to and including its
        first differing bit, and all q on the match, which ends the walk."""
        slot = self.slot(packed)
        bits = 0
        for key in reversed(self.by_id):
            if self.slot(key) == slot:
                bits += _cmp_bits(key, packed, self.q)
                if key == packed:
                    break
        return bits


def key_rows(keys, q):
    """q-bit int keys as the index's rows, through the hex that save writes."""
    return separator.hex_rows([format(key, "x") for key in keys], q)


def hex_keys(index):
    """The hex keys, as save writes them, by point id."""
    return [key for keys in index.hex_blocks() for key in keys]


def lookup_both(new, ref, key):
    """The same hit or miss from both indexes, and the replayed tally."""
    c = OpCounters()
    got = new.lookup(key, ref.q, c)
    assert got == ref.lookup(key), key
    assert c.bit_comparisons == ref.replay_bits(key), key
    return got


def insert_both(new, ref, key, q):
    pid = new.insert(key_rows([key], q), q)
    assert pid == ref.insert(key, q) == len(new) - 1
    return pid


def extend_both(new, ref, rnd):
    bits = np.array([rnd.random() < 0.5 for _ in range(len(new))], dtype=bool)
    new.extend_all(bits)
    ref.extend_all(bits)


def probe_both(new, ref, rnd, count):
    """Lookups of stored keys, of keys one low bit away, and of random keys."""
    q = ref.q
    for _ in range(count):
        if ref.by_id:
            key = rnd.choice(ref.by_id)
            assert lookup_both(new, ref, key) >= 0
            if q:
                lookup_both(new, ref, key ^ (1 << rnd.randrange(min(q, 3))))
        lookup_both(new, ref, rnd.getrandbits(q) if q else 0)


def window_both(new, ref, keys):
    """lookup_many window by window against the reference looking the keys
    up in turn, storing each miss before the next; each window's misses
    stored in one insert.  A window's rows have distinct slots, and the row
    that ends it has the slot of one of them.  The keys must not reach the
    store that rebuilds the slots.  Returns the number of windows."""
    q = ref.q
    windows = 0
    while keys:
        rows = key_rows(keys, q)
        pids, bits = new.lookup_many(rows, q)
        end = len(pids)
        slots = new._slots_of(rows).tolist()
        assert end > 0 and len(set(slots[:end])) == end
        assert end == len(keys) or slots[end] in slots[:end]
        want_pids, want_bits, missed = [], [], []
        for key in keys[:end]:
            want_bits.append(ref.replay_bits(key))
            want_pids.append(ref.lookup(key))
            if want_pids[-1] < 0:
                missed.append(key)
                ref.insert(key, q)
        assert pids.tolist() == want_pids
        assert bits.tolist() == want_bits
        new.insert(key_rows(missed, q), q)
        assert list(new.items()) == ref.items()
        keys = keys[end:]
        windows += 1
    return windows


class TestOvIndex:
    def test_lookup_returns_the_id_or_minus_one(self):
        idx = OvIndex()
        c = OpCounters()
        for key in [0b100, 0b001, 0b111, 0b010]:
            idx.insert(key_rows([key], 3), 3)
        assert idx.lookup(0b111, 3, c) == 2
        assert idx.lookup(0b001, 3, c) == 1
        assert idx.lookup(0b101, 3, c) == -1
        assert list(idx.items()) == [0b100, 0b001, 0b111, 0b010]

    def test_a_hit_examines_all_q_bits(self):
        idx = OvIndex.from_rows(key_rows([0b1011], 4), 4)
        c = OpCounters()
        assert idx.lookup(0b1011, 4, c) == 0
        assert c.bit_comparisons == 4

    def test_tally_replays_the_bucket_walk(self):
        """Keys stored between rebuilds share slots with keys of the same
        prefix and with keys whose prefixes hash alike; every lookup
        tallies exactly the walk :meth:`ListIndex.replay_bits` replays,
        through the rebuilds as q and N double."""
        rnd = random.Random(3)
        new, ref = OvIndex.from_rows(key_rows([], 4), 4), ListIndex.from_rows([], 4)
        walked = 0
        for _ in range(30):
            for _ in range(12):
                key = rnd.getrandbits(ref.q)
                if ref.lookup(key) < 0:
                    walked += ref.replay_bits(key) > 0
                    insert_both(new, ref, key, ref.q)
            probe_both(new, ref, rnd, 10)
            extend_both(new, ref, rnd)
        assert ref.q == 34 and len(ref.by_id) > 300
        assert walked > 20  # new keys whose slot already held a chain

    def test_bulk_load_matches_one_built_by_insert(self):
        # the same ids and items; a bulk load sizes its slots for all its
        # keys at once, so the two tally different chains
        q = 10
        rng = np.random.default_rng(4)
        keys = [int(k) for k in rng.choice(1 << q, size=200, replace=False)]
        inserted = OvIndex()
        for key in keys:
            inserted.insert(key_rows([key], q), q)
        bulk = OvIndex.from_rows(key_rows(keys, q), q)
        assert list(bulk.items()) == list(inserted.items())
        for probe in range(1 << q):
            assert bulk.lookup(probe, q, OpCounters()) == inserted.lookup(probe, q, OpCounters())

    def test_extend_preserves_dictionary_order(self):
        idx = OvIndex()
        for key in [5, 1, 7, 3]:
            idx.insert(key_rows([key], 3), 3)
        bits = np.array([1, 0, 1, 0], dtype=bool)
        idx.extend_all(bits)
        keys = list(idx.items())
        assert keys == [0b1011, 0b0010, 0b1111, 0b0110]  # each key gains its point's bit
        assert sorted(range(4), key=keys.__getitem__) == [1, 3, 0, 2]  # as [5, 1, 7, 3] sort

    def test_keys_are_read_by_point_id(self):
        # the key 0 stored after others, and more keys than one hex block holds
        idx = OvIndex()
        idx.insert(key_rows([5, 0, 3], 3), 3)
        assert hex_keys(idx) == ["5", "0", "3"] and list(idx.items()) == [5, 0, 3]
        keys = list(range(separator._HEX_BLOCK + 5, 0, -1))
        idx = OvIndex.from_rows(key_rows(keys, 14), 14)
        assert list(idx.items()) == keys
        assert hex_keys(idx) == [format(key, "x") for key in keys]

    def test_first_repeat_names_the_later_of_two_equal_keys(self):
        keys = [9, 4, 7, 12, 4, 1, 7]
        assert OvIndex.from_rows(key_rows(keys, 70), 70).first_repeat() == 4
        assert OvIndex.from_rows(key_rows(keys[:4], 70), 70).first_repeat() == -1
        assert OvIndex.from_rows(key_rows([], 3), 3).first_repeat() == -1

    def test_key_of_another_width_is_a_bug(self):
        idx = OvIndex()
        idx.insert(key_rows([4], 3), 3)
        with pytest.raises(AssertionError):
            idx.insert(key_rows([4], 4), 4)

    def test_empty_index_and_zero_planes(self):
        c = OpCounters()
        idx = OvIndex()
        assert idx.lookup(0, 0, c) == -1 and list(idx.items()) == []
        assert idx.insert(key_rows([0], 0), 0) == 0
        assert idx.lookup(0, 0, c) == 0
        assert c.bit_comparisons == 0  # a 0-bit key matches without a bit examined
        assert hex_keys(idx) == ["0"]
        idx.extend_all(np.array([True]))
        assert idx.lookup(1, 1, c) == 0 and idx.lookup(0, 1, c) == -1
        empty = OvIndex.from_rows(key_rows([], 5), 5)
        assert empty.lookup(17, 5, c) == -1 and list(empty.items()) == []
        assert empty.insert(key_rows([3], 7), 7) == 0  # an empty index takes its first keys' width
        assert list(empty.items()) == [3]
        assert empty.lookup(3, 7, c) == 0

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 128, 129, 200])
    def test_numpy_and_python_slots_agree(self, q):
        """The slot of a block of rows and the slot of one int key, with the
        slots built at P = q and at a P < q (P = q // 2 + 1, none below
        q = 3): both agree with each other and with the reference's."""
        rnd = random.Random(q)
        for p in sorted({q, q // 2 + 1}):
            stored = list({rnd.getrandbits(p) for _ in range(40)})
            new = OvIndex.from_rows(key_rows(stored, p), p)
            ref = ListIndex.from_rows(stored, p)
            while ref.q < q:
                extend_both(new, ref, rnd)
            assert ref.p == p and ref.q == q
            keys = [rnd.getrandbits(q) for _ in range(200)] + [0, (1 << q) - 1]
            block = new._slots_of(key_rows(keys, q)).tolist()
            assert block == [new._slot(key, q) for key in keys] == list(map(ref.slot, keys))

    def test_lookup_many_replays_lookups_in_turn(self):
        """Windows of stored keys, new keys, keys repeated inside the window
        and keys one low bit from a stored key, as q grows past 64 and 128:
        each row's id and tally are those of looking the keys up one at a
        time, every miss stored before the next lookup.  A repeat shares
        its first occurrence's slot, so it starts a later window and finds
        that occurrence stored."""
        rnd = random.Random(21)
        start = list({rnd.getrandbits(50) for _ in range(300)})
        new, ref = OvIndex.from_rows(key_rows(start, 50), 50), ListIndex.from_rows(start, 50)
        repeats = calls = windows = 0
        while ref.q < 140:
            while new.room < 3:
                key = rnd.getrandbits(ref.q)
                if ref.lookup(key) < 0:
                    insert_both(new, ref, key, ref.q)
            window = []
            for _ in range(min(rnd.randrange(2, 40), new.room - 1)):
                op = rnd.random()
                if op < 0.3:
                    window.append(rnd.choice(ref.by_id))
                elif op < 0.45 and window:
                    window.append(rnd.choice(window))
                elif op < 0.6:
                    window.append(rnd.choice(ref.by_id) ^ 1)
                else:
                    window.append(rnd.getrandbits(ref.q))
            repeats += len(window) - len(set(window))
            calls += 1
            windows += window_both(new, ref, window)
            extend_both(new, ref, rnd)
        assert repeats > 50 and windows > calls + 50

    def test_insert_of_rows_in_distinct_slots_equals_appends_in_turn(self):
        """One gather and one scatter leave the slot heads, the chain links
        and the keys as storing the keys one at a time does, also when a
        row's slot already heads a chain."""
        rnd = random.Random(8)
        for q in (30, 64, 100):
            start = list({rnd.getrandbits(q) for _ in range(200)})
            by_rows = OvIndex.from_rows(key_rows(start, q), q)
            by_ints = OvIndex.from_rows(key_rows(start, q), q)
            held = {by_rows._slot(key, q) for key in start}
            keys, slots = [], set()
            while len(keys) < by_rows.room - 1:
                key = rnd.getrandbits(q)
                slot = by_rows._slot(key, q)
                if key not in start and slot not in slots:
                    keys.append(key)
                    slots.add(slot)
            assert len(slots & held) > 10
            assert by_rows.insert(key_rows(keys, q), q) == len(start)
            for key in keys:
                by_ints.append(key, q)
            assert by_rows._slots == by_ints._slots
            assert by_rows._next == by_ints._next
            assert by_rows._rows == by_ints._rows


class TestAlignedIndexAgainstTwoLists:
    """Random interleavings of inserts, lookups, plane appends and reads
    of the items: the same hit or miss ids, the replayed bit tallies and
    the same keys by point id as the list reference, as keys grow past 64
    and 128 bits, gaining a word and re-bucketed on the way."""

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_random_interleavings(self, seed):
        rnd = random.Random(seed)
        new, ref = OvIndex(), ListIndex()
        probe_both(new, ref, rnd, 2)  # the empty index at q = 0
        insert_both(new, ref, 0, 0)
        probe_both(new, ref, rnd, 2)
        while ref.q < 140:
            op = rnd.random()
            if op < 0.55:
                key = rnd.getrandbits(ref.q)
                if ref.lookup(key) < 0:
                    insert_both(new, ref, key, ref.q)
            elif op < 0.75:
                probe_both(new, ref, rnd, 1)
            elif op < 0.85:
                extend_both(new, ref, rnd)
            else:
                assert list(new.items()) == ref.items()
        assert list(new.items()) == ref.items()
        assert len(new) > 400

    def test_items_place_keys_at_the_front_the_back_and_between(self):
        """Each width stores a key below every key, one above every key and
        one between, reading the items after each, from q = 27 to 62, so
        new keys often differ from a stored key in the last bit alone (the
        key just below the lowest, when the lowest is odd).  The items are
        read once more after the plane, every fifth width.  The first keys
        sit far enough from 0 and 2**q that both edges stay free."""
        rnd = random.Random(12)
        new, ref = OvIndex(), ListIndex()
        for key in [5 << 20, 9 << 20, 13 << 20]:
            insert_both(new, ref, key, 27)
        for q in range(27, 63):
            lowest, highest = min(ref.by_id), max(ref.by_id)
            middle = lowest
            while ref.lookup(middle) >= 0:
                middle = rnd.randrange(lowest, highest)
            for key in (lowest - 1, highest + 1, middle):
                insert_both(new, ref, key, q)
                assert list(new.items()) == ref.items()
            assert min(ref.by_id) == lowest - 1 and max(ref.by_id) == highest + 1
            probe_both(new, ref, rnd, 4)
            extend_both(new, ref, rnd)
            if q % 5 == 0:
                assert list(new.items()) == ref.items()
        assert list(new.items()) == ref.items()
        # every key is held at all 63 of its bits, under its point id
        assert ref.q == 63 and len(new) == 3 + 3 * 36
        assert all(new.lookup(key, 63, OpCounters()) == pid for pid, key in enumerate(ref.items()))

    @pytest.mark.parametrize("q0", [64, 70])
    def test_tail_word_fills_between_slot_rebuilds(self, q0):
        """From a bulk load at q0 bits, 64 planes or more are appended before
        the next slot rebuild, and the keys gain a word on the way: from 64
        at the first plane, and again at q = 128, which rebuilds the slots;
        from 70 at q = 128, before the rebuild at 140.  Every plane is
        followed by an insert and lookups; the items are read only at the
        end, two planes after the rebuild."""
        rnd = random.Random(q0)
        keys = list({rnd.getrandbits(q0) for _ in range(40)})
        new, ref = OvIndex.from_rows(key_rows(keys, q0), q0), ListIndex.from_rows(keys, q0)
        full = 0
        while ref.q < 2 * q0 + 2:
            since = ref.p  # the key bits slotted at the last rebuild (or the load)
            extend_both(new, ref, rnd)
            full += ref.q - since == 64
            key = rnd.getrandbits(ref.q)
            if ref.lookup(key) < 0:
                insert_both(new, ref, key, ref.q)
            probe_both(new, ref, rnd, 3)
        assert ref.q - ref.p == 2
        assert list(new.items()) == ref.items()
        assert full == 1 and len(new) < ref.slots // 2  # no insert rebuilt the slots

    @pytest.mark.parametrize("q", [0, 64, 65])
    def test_bulk_load_then_grow(self, q):
        rnd = random.Random(q)
        keys = [0] if q == 0 else list({rnd.getrandbits(q) for _ in range(60)})
        new, ref = OvIndex.from_rows(key_rows(keys, q), q), ListIndex.from_rows(keys, q)
        assert list(new.items()) == ref.items()
        probe_both(new, ref, rnd, 20)
        for _ in range(3):
            extend_both(new, ref, rnd)
            for _ in range(5):
                key = rnd.getrandbits(ref.q)
                if ref.lookup(key) < 0:
                    insert_both(new, ref, key, ref.q)
            probe_both(new, ref, rnd, 20)
            assert list(new.items()) == ref.items()


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
        # points fit in one block, whose windows emit planes, nudge planes
        # off offered points and recycle points
        lattice = np.array([[(v // 10**i) % 10 for i in range(3)] for v in range(1000)],
                           dtype=float)
        pts = lattice[oracle.sieve(1000).primes()]
        pts = pts[np.random.default_rng(2).permutation(len(pts))]
        first_block = len(pts) - 4
        assert first_block <= separator._OFFER_BLOCK

        scalar = init(pts[:4], 3, seed=2)
        offer_one_at_a_time(scalar, pts[4:])

        windows, nudged_at = [], []
        # every window ends in _close_window, a nudged offer's window of one too
        real_close, real_nudge = separator._close_window, separator._nudge_plane

        def traced_close(state, *args):
            res = real_close(state, *args)
            windows.append((state.offers, state.q, state.recycle_events))
            return res

        def traced_nudge(state, *args):
            nudged_at.append(state.offers)  # the offers placed before the one under way
            return real_nudge(state, *args)

        monkeypatch.setattr(separator, "_close_window", traced_close)
        monkeypatch.setattr(separator, "_nudge_plane", traced_nudge)
        blocked = init(pts[:4], 3, seed=2)
        q0 = blocked.q
        stream_points(blocked, pts[4:])
        # the window that places the first block's last point; only an
        # emission adds a plane
        _, q, recycled = next(w for w in windows if w[0] == first_block)
        assert q > q0 and recycled > 0
        assert nudged_at and nudged_at[0] < first_block
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

    @pytest.mark.parametrize("seed, recycles", [(0, False), (5, True)])
    def test_many_blocks_and_windows_equal_offers_one_at_a_time(self, seed, recycles):
        # primes below 10^4 at n=4: five blocks, each placed in many
        # windows, ended by some 60 plane emissions
        n = 4
        pts = map_to_points(oracle.sieve(10**4).primes(), IntegerMapping(n))
        pts = pts[np.random.default_rng(seed).permutation(len(pts))]
        assert len(pts) - (n + 1) > 4 * separator._OFFER_BLOCK
        scalar = init(pts[: n + 1], n, seed=seed)
        offer_one_at_a_time(scalar, pts[n + 1:])
        blocked = init(pts[: n + 1], n, seed=seed)
        stream_points(blocked, pts[n + 1:])
        assert blocked.q - blocked.q0 > 50
        assert (blocked.recycle_events > 0) == recycles
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


class TestWindows:
    """A window of a block's points is probed at once and its new points
    stored in one insert; it ends before a point whose slot an earlier
    point of it holds, or where offering the same points one at a time
    would stop agreeing with it, and the state and every counter are then
    those of the offers."""

    @staticmethod
    def built():
        """The primes below 1000 at n=3, and fresh points in their digit
        cube: those in quadrants that hold no point, one per quadrant, and
        one point in each of some occupied quadrants, by occupant."""
        state = run(map_to_points(oracle.sieve(1000).primes(), IntegerMapping(3)), 3, seed=2)
        pts = np.random.default_rng(5).uniform(0, 9, (3000, 3))
        _, rows, clear = state._evaluate(pts)
        assert clear == len(pts)
        fresh, hits = {}, {}
        for p, row in zip(pts, rows):
            key = separator._key_int(row, state.q)
            pid = state.index.lookup(key, state.q, OpCounters())
            if pid < 0:
                fresh.setdefault(key, []).append(p)
            else:
                hits.setdefault(pid, p)
        return state, list(fresh.values()), list(hits.values())

    @staticmethod
    def both_ways(state, block, monkeypatch):
        """The block streamed, and offered one at a time, from two copies of
        ``state``; the same state and counters.  Returns the streamed copy
        and each of its windows' (points placed, planes emitted)."""
        blocked, scalar = copy.deepcopy(state), copy.deepcopy(state)
        windows = []
        real = separator._place

        def traced(st, *args):
            placed, reports = real(st, *args)
            windows.append((placed, len(reports)))
            return placed, reports

        monkeypatch.setattr(separator, "_place", traced)
        stream_points(blocked, block)
        monkeypatch.undo()
        offer_one_at_a_time(scalar, block)
        assert_same_state(blocked, scalar)
        return blocked, windows

    def test_two_points_of_one_new_quadrant(self, monkeypatch):
        # the second shares the first's slot, so it starts the next window
        # and finds the first stored
        state, fresh, _ = self.built()
        first, second = next(ps for ps in fresh if len(ps) >= 2)[:2]
        other = next(ps for ps in fresh if len(ps) == 1)[0]
        blocked, windows = self.both_ways(state, np.array([first, other, second]), monkeypatch)
        assert windows == [(2, 0), (1, 0)]
        assert blocked.count == state.count + 2
        assert [pt.tolist() for pt in blocked.chains[state.count].members] == [second.tolist()]

    def test_a_window_ends_at_the_store_that_rebuilds_the_slots(self, monkeypatch):
        state, fresh, _ = self.built()
        fresh = [ps[0] for ps in fresh]
        while state.index.room > 4:
            offer(state, fresh.pop())
        room, slots = state.index.room, len(state.index._slots)
        blocked, windows = self.both_ways(state, np.array(fresh[:room + 6]), monkeypatch)
        assert windows == [(room, 0), (6, 0)]
        assert len(blocked.index._slots) > slots

    def test_a_window_ends_at_the_nth_pending_chain(self, monkeypatch):
        state, fresh, hits = self.built()
        fresh = [ps[0] for ps in fresh]
        block = np.array([fresh[0], hits[0], hits[1], fresh[1], hits[2], fresh[2], fresh[3]])
        _, windows = self.both_ways(state, block, monkeypatch)
        placed, emitted = windows[0]
        assert placed == 5 and emitted >= 1


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
    @staticmethod
    def wide_points():
        """400 values below 10^4 as 10-digit points: 6 coordinates are dead,
        so batches of 10 midpoints are rank-deficient."""
        values = np.random.default_rng(0).choice(10**4, 400, replace=False)
        return np.array([[(int(v) // 10**i) % 10 for i in range(10)] for v in values],
                        dtype=float)

    def test_inconsistent_batch_jumps_to_rank_plus_one(self, monkeypatch):
        pts = self.wide_points()
        fits = []
        reports = []
        fit = separator.fit_plane_through
        emit = separator.emit_plane
        monkeypatch.setattr(separator, "fit_plane_through",
                            lambda *a, **kw: fits.append(1) or fit(*a, **kw))
        monkeypatch.setattr(separator, "emit_plane",
                            lambda state: reports.append(emit(state)) or reports[-1])
        state = run(pts, 10, 0)
        assert state.count == len(pts)
        assert_state_separated(state)

        # stepping k down one chain at a time from 10 would take 52.5 fits
        # per plane here; the jump costs one exact fit, and the walk from
        # r+1 keeps the shifted refits of rank k-1 batches with a segment
        # outside their midpoints' span
        retries = state.config.max_retries
        assert len(fits) <= (retries + 3) * len(reports)
        # 4 live digits span at most 4 dimensions, one more for the shift
        assert max(r.constraint_count for r in reports) <= 5
        assert state.q <= 37  # the one-step walk's plane count

    # three midpoints in R^4 with m3 = m1 + m2: the exact fit asks for
    # alpha . m3 = -2 and -1 at once, so it is inconsistent at rank 2 = k-1
    M1 = np.array([2.0, 1.0, 0.0, 1.0])
    M2 = np.array([1.0, 3.0, 1.0, 0.0])
    MIDS = [M1, M2, M1 + M2]
    OFF_SPAN = np.array([0.0, 0.0, 1.0, -1.0])  # no combination of M1 and M2

    def try_batch(self, monkeypatch, segs):
        """Stage a chain per midpoint, its anchor and first member half a
        segment either side, and try one plane through the three."""
        anchors = np.array([m + d / 2 for m, d in zip(self.MIDS, segs)])
        members = np.array([m - d / 2 for m, d in zip(self.MIDS, segs)])
        state = init(anchors, 4, 0)
        batch = [PendingChain(i, state.packed[i], m, [b])
                 for i, (m, b) in enumerate(zip(self.MIDS, members))]
        fits = []
        fit = separator.fit_plane_through
        monkeypatch.setattr(separator, "fit_plane_through",
                            lambda *a, **kw: fits.append(1) or fit(*a, **kw))
        result = separator._try_separating_plane(state, batch, [0, 1, 2], members)
        return state, result, len(fits)

    def test_batch_with_every_segment_in_the_span_narrows_after_one_fit(self, monkeypatch):
        segs = [self.M1 - self.M2, self.M2, self.M1]
        _, result, fits = self.try_batch(monkeypatch, segs)
        assert (result, fits) == (2, 1)

    def test_batch_with_a_segment_outside_the_span_keeps_its_refits(self, monkeypatch):
        # the two segments in the span still cannot be split by any refit,
        # so all eight run and fail
        segs = [self.M1 - self.M2, self.M2, self.OFF_SPAN]
        state, result, fits = self.try_batch(monkeypatch, segs)
        assert (result, fits) == (2, 1 + state.config.max_retries)

    def test_refit_rescues_a_batch_with_no_segment_in_the_span(self, monkeypatch):
        segs = [self.OFF_SPAN, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 2.0])]
        _, result, fits = self.try_batch(monkeypatch, segs)
        alpha, r_s, r_pend, retries, delta = result
        assert retries == fits - 1 >= 1 and delta > 0
        assert np.all((r_s > 0) != (r_pend > 0))

    def test_skipped_refits_never_rescued_a_batch(self, monkeypatch):
        """With the span check disabled, as before it existed, every batch
        the check would have narrowed at once still ends at k-1 after its
        refits, on the fixed-seed store of 400 values below 10^4 at n=10."""
        pts = self.wide_points()
        tries = []
        in_span = separator._segments_in_span
        attempt = separator._try_separating_plane

        def never_fires(mids, segs, rank):
            tries[-1]["flagged"] = in_span(mids, segs, rank)
            return False

        def recorded(state, batch, starts, pend_mat):
            tries.append({"k": len(batch), "flagged": False})
            tries[-1]["result"] = attempt(state, batch, starts, pend_mat)
            return tries[-1]["result"]

        monkeypatch.setattr(separator, "_segments_in_span", never_fires)
        monkeypatch.setattr(separator, "_try_separating_plane", recorded)
        state = run(pts, 10, 0)
        assert_state_separated(state)
        flagged = [t for t in tries if t["flagged"]]
        assert len(flagged) >= 20
        assert all(isinstance(t["result"], int) and t["result"] == t["k"] - 1
                   for t in flagged)
