"""Digit mapping, the value store, incremental insert, growth, persistence."""

import copy
import io
import re
from pathlib import Path

import numpy as np
import pytest

from planesep import (
    DigitOverflowError,
    DuplicatePointError,
    NotADigitPointError,
    OpCounters,
    RepositoryFormatError,
    oracle,
    separator,
)
from planesep.geometry import INCIDENT, pack_sign_bits, signs_from_residuals
from planesep.repository import (
    AbsenceReason,
    InsertReport,
    IntegerMapping,
    QueryResult,
    Repository,
    build,
    grow_dimension,
    insert,
    load,
    map_to_point,
    map_to_points,
    point_to_integer,
    query,
    save,
)


def primes_below(limit):
    return [int(p) for p in oracle.sieve(limit).primes() if p < limit]


def saved_text(repo):
    buf = io.StringIO()
    save(repo, buf)
    return buf.getvalue()


class TestDigitMapping:
    M2 = IntegerMapping(n=2)
    M4 = IntegerMapping(n=4)
    M5 = IntegerMapping(n=5)

    @staticmethod
    def repo_over(points, mapping):
        """A repository whose state holds ``points`` and no registered values."""
        state = separator.SeparationState(mapping.n, np.random.default_rng(0))
        state._pts_buf = points
        state.count = len(points)
        return Repository(mapping, state, [], 0, (mapping.n,))

    def test_two_digit_example(self):
        assert list(map_to_point(37, self.M2)) == [7.0, 3.0]

    def test_four_digit_example(self):
        assert list(map_to_point(1729, self.M4)) == [9.0, 2.0, 7.0, 1.0]

    def test_five_digit_examples(self):
        assert list(map_to_point(80917, self.M5)) == [7.0, 1.0, 9.0, 0.0, 8.0]
        assert list(map_to_point(641, self.M5)) == [1.0, 4.0, 6.0, 0.0, 0.0]

    def test_overflow(self):
        with pytest.raises(DigitOverflowError):
            map_to_point(100, self.M2)
        with pytest.raises(DigitOverflowError):
            map_to_point(-1, self.M2)

    def test_inverse_examples(self):
        assert point_to_integer(np.array([7.0, 3.0]), self.M2) == 37
        assert point_to_integer(np.zeros(5), self.M5) == 0
        assert point_to_integer(np.array([1.0, 4.0, 6.0, 0.0, 0.0]), self.M5) == 641

    def test_round_trip_property(self):
        rng = np.random.default_rng(0)
        m = IntegerMapping(n=6)
        for v in rng.integers(0, 10**6, size=200):
            assert point_to_integer(map_to_point(int(v), m), m) == int(v)

    def test_non_digit_points_rejected(self):
        with pytest.raises(NotADigitPointError):
            point_to_integer(np.array([1.5, 2.0]), self.M2)
        with pytest.raises(NotADigitPointError):
            point_to_integer(np.array([11.0, 2.0]), self.M2)
        with pytest.raises(NotADigitPointError):
            point_to_integer(np.array([-1.0, 2.0]), self.M2)

    def test_configurable_base(self):
        m = IntegerMapping(n=4, base=2)
        assert list(map_to_point(0b1011, m)) == [1.0, 1.0, 0.0, 1.0]
        assert point_to_integer(map_to_point(13, m), m) == 13

    @pytest.mark.parametrize(
        "mapping, values",
        [
            (IntegerMapping(n=6), [0, 7, 37, 1729, 80917, 999999, 100000]),
            (IntegerMapping(n=8, base=2), list(range(256))),
            (IntegerMapping(n=25), [0, 2**63 - 1, 2**63, 2**64 + 12345, 10**25 - 1]),
            # at n=25, int64 digits for values below 2**63, up to their top digit
            (IntegerMapping(n=25), [0, 7, 10**18 + 3, 2**63 - 1]),
            (IntegerMapping(n=25), [10**24 + 7]),  # a lone value
            # registration multiplies out the digit columns up to the last
            # nonzero one: in int64 up to 18 of them, else in Python ints
            (IntegerMapping(n=25), [5, 10**18 - 1]),
            (IntegerMapping(n=25), [5, 10**19 - 1]),
            (IntegerMapping(n=25), [0]),
            (IntegerMapping(n=18), [0, 10**18 - 1, 2**59 + 3]),
        ],
    )
    def test_batched_expansion_matches_per_value(self, mapping, values):
        expected = np.stack([map_to_point(v, mapping) for v in values])
        got = map_to_points(values, mapping)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        # and back: registration recovers the values as Python ints
        repo = self.repo_over(got, mapping)
        repo._register_new_points()
        assert repo.values == values
        assert all(type(v) is int for v in repo.values)

    def test_batched_expansion_of_nothing(self):
        assert map_to_points([], self.M4).shape == (0, 4)

    def test_batched_expansion_overflow(self):
        with pytest.raises(DigitOverflowError, match="^100 "):
            map_to_points([5, 100, 7], self.M2)
        with pytest.raises(DigitOverflowError, match="^-1 "):
            map_to_points([-1], self.M2)

    @pytest.mark.parametrize("mapping", [IntegerMapping(n=3), IntegerMapping(n=25)])
    @pytest.mark.parametrize("bad", [1.5, 10.0, -1.0, -0.5])
    def test_registering_a_non_digit_point_raises(self, mapping, bad):
        points = map_to_points([12, 345, 6], mapping)
        points[1, 0] = bad
        with pytest.raises(NotADigitPointError) as per_point:
            point_to_integer(points[1], mapping)
        repo = self.repo_over(points, mapping)
        with pytest.raises(NotADigitPointError) as registered:
            repo._register_new_points()
        assert str(registered.value) == str(per_point.value)


class TestBuild:
    def test_25_primes(self):
        repo = build(primes_below(100), 2, 0)
        assert repo.count == 25
        assert len(set(repo.state.index.items())) == 25
        verdict = oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, 1e-9
        )
        assert verdict.ok

    def test_entries_expose_value_point_address_triples(self):
        repo = build([2, 3, 5, 7, 11, 13], 2, 1)
        rows = list(repo.entries())
        assert [v for v, _, _ in rows] == repo.values  # by point id
        assert sorted(repo.values) == [2, 3, 5, 7, 11, 13]
        assert [ov.bits for _, _, ov in rows] == repo.state.packed
        for v, point, ov in rows:
            assert point_to_integer(point, repo.mapping) == v
            assert len(ov) == repo.q

    def test_empty(self):
        repo = build([], 3, 0)
        assert repo.count == 0
        assert repo.q == 0

    def test_inserts_into_an_empty_store(self):
        # the first offers meet no plane at all: every address is empty
        repo = build([], 3, 0)
        insert(repo, [5])
        assert (repo.count, repo.q) == (1, 0)
        insert(repo, [7, 11, 997, 123])
        assert repo.q > 0
        assert [query(repo, v).found for v in (5, 7, 11, 997, 123, 6)] == [True] * 5 + [False]

    def test_duplicate_values_rejected(self):
        with pytest.raises(DuplicatePointError):
            build([3, 5, 3], 2, 0)

    def test_a_value_repeated_past_the_initial_batch_is_rejected(self):
        values = primes_below(1000)
        # build streams its values in the order its seed draws; the first
        # n+1 = 4 of them are the initial batch
        order = np.random.default_rng(0).permutation(len(values) + 1).tolist()
        twin = next(i for i in order[4:] if i < len(values))
        assert len(values) in order[4:]
        with pytest.raises(DuplicatePointError, match="^1 input points repeat"):
            build(values + [values[twin]], 3, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_arbitrary_integer_sets_separate(self, seed):
        rng = np.random.default_rng(seed)
        values = sorted({int(v) for v in rng.integers(0, 10**5, size=400)})
        repo = build(values, 5, seed)
        verdict = oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, 1e-9
        )
        assert verdict.ok
        assert repo.count == len(values)

    def test_values_past_int64_beside_small_values(self):
        """At n=25 a value of 2**63 or more is registered with Python ints
        and a small one with int64; stored together, each must come back
        exactly and be found."""
        rng = np.random.default_rng(7)
        small = [int(v) for v in rng.choice(10**6, 60, replace=False)]
        big = [2**63, 2**63 + 1, 2**64 + 12345, 10**19, 10**25 - 1, 10**19 - 1, 2**63 - 1, 2**70]
        repo = build(small[:40] + big[:3], 25, 0)
        insert(repo, small[40:55] + big[3:5])
        # 19 digit columns, whose values can pass 2**63 - 1 although this one's does not
        insert(repo, big[5:7])
        for v in small[55:] + big[7:]:
            insert(repo, [v])
        assert sorted(repo.values) == sorted(small + big)
        assert all(type(v) is int for v in repo.values)
        for v, point, _ in repo.entries():
            assert point_to_integer(point, repo.mapping) == v
        assert all(query(repo, v).found for v in small + big)
        assert not any(query(repo, v).found for v in (2**63 + 2, 2**64, 10**25 - 2))

    def test_binary_base_build(self):
        repo = build(list(range(16)), 4, 1, base=2)
        assert repo.count == 16
        assert all(query(repo, v).found for v in range(16))


@pytest.fixture(scope="module")
def primes_repo():
    return build(primes_below(1000), 3, 4)


class TestQuery:

    def test_found(self, primes_repo):
        assert query(primes_repo, 997).found

    def test_absent_composite(self, primes_repo):
        res = query(primes_repo, 91 if 91 < 1000 else 9)
        assert not res.found
        assert res.reason in (AbsenceReason.NEW_QUADRANT, AbsenceReason.COORDINATE_MISMATCH)

    def test_empty_repo_misses_in_new_quadrant(self):
        repo = build([], 2, 0)
        res = query(repo, 7)
        assert not res.found
        assert res.reason is AbsenceReason.NEW_QUADRANT

    def test_exhaustive_against_sieve(self, primes_repo):
        table = oracle.sieve(1000)
        for v in range(1000):
            assert query(primes_repo, v).found == bool(table.is_prime[v])

    def test_ov_step_costs_exactly_qn(self, primes_repo):
        c = OpCounters()
        query(primes_repo, 997, c)
        assert c.multiplications == primes_repo.q * 3
        assert c.additions == primes_repo.q * 3
        assert c.sign_evals == primes_repo.q

    def test_overflow(self, primes_repo):
        with pytest.raises(DigitOverflowError):
            query(primes_repo, 1000)

    def test_never_mutates_repo_counters(self, primes_repo):
        before = primes_repo.counters.snapshot()
        query(primes_repo, 500)
        assert primes_repo.counters.as_dict() == before.as_dict()


def reference_query(repo, v, counters):
    """The query path as first written: int8 signs, an incidence pass, then pack."""
    state = repo.state
    p = map_to_point(v, repo.mapping)
    r = 1.0 + state.plane_matrix @ p
    nq = state.n * state.q
    counters.multiplications += nq
    counters.additions += nq
    counters.ov_multiplications += nq
    counters.sign_evals += state.q
    signs = signs_from_residuals(r, state.config.epsilon)
    if np.any(signs == INCIDENT):
        return QueryResult(found=False, value=v, reason=AbsenceReason.NEW_QUADRANT)
    pid = state.index.lookup(pack_sign_bits(signs > 0), state.q, counters)
    if pid < 0:
        return QueryResult(found=False, value=v, reason=AbsenceReason.NEW_QUADRANT)
    if repo.values[pid] == v:
        return QueryResult(found=True, value=v)
    return QueryResult(found=False, value=v, reason=AbsenceReason.COORDINATE_MISMATCH)


class TestQueryAgainstReference:
    """``query`` answers and counts exactly as the reference formulation."""

    @staticmethod
    def assert_same(repo, candidates):
        got, want = OpCounters(), OpCounters()
        outcomes = set()
        for v in candidates:
            res = query(repo, v, got)
            assert res == reference_query(repo, v, want), v
            assert got == want, v
            outcomes.add(res.reason)
        return outcomes

    def test_every_value_below_1e4(self):
        repo = build(primes_below(10**4), 4, 0)
        outcomes = self.assert_same(repo, range(10**4))
        assert outcomes == {None, *AbsenceReason}

    def test_wide_store(self):
        rng = np.random.default_rng(25)
        stored = rng.choice(10**6, 500, replace=False).tolist()
        repo = build(stored, 25, 0)
        candidates = stored + rng.integers(0, 10**6, 1500).tolist()
        outcomes = self.assert_same(repo, candidates)
        assert None in outcomes and AbsenceReason.NEW_QUADRANT in outcomes

    def test_plane_incident_value_is_absent_without_a_search(self):
        # with this seed the digit point of 98 lies exactly on a stored plane
        repo = build(primes_below(100), 2, 2)
        r = 1.0 + repo.state.plane_matrix @ map_to_point(98, repo.mapping)
        assert np.abs(r).min() <= repo.state.config.epsilon
        c = OpCounters()
        res = query(repo, 98, c)
        assert not res.found
        assert res.reason is AbsenceReason.NEW_QUADRANT
        assert c.multiplications == repo.q * 2
        assert c.bit_comparisons == 0


class TestInsert:
    def test_duplicate_skipped(self):
        repo = build([2, 3, 5, 7], 2, 0)
        report = insert(repo, [5, 11, 11])
        assert report.added == 1
        assert sorted(report.skipped_duplicates) == [5, 11]
        assert query(repo, 11).found

    @pytest.mark.parametrize("calls", [
        # batches: stored 5, fresh 11, 4 and 6, and repeats within the call
        [([5, 11, 4, 11, 5, 6, 4], 3, [5, 11, 5, 4])],
        # lone values: a stored one, a fresh one, then that one again
        [([5], 0, [5]), ([11], 1, []), ([11], 0, [11])],
        # a batch whose only fresh value is repeated, then one of stored values
        [([11, 11], 1, [11]), ([2, 3, 11], 0, [2, 3, 11])],
    ])
    def test_stored_repeated_and_fresh_values_mixed(self, calls):
        repo = build([2, 3, 5, 7], 2, 0)
        stored = set(repo.values)
        for values, added, skipped in calls:
            q = repo.q
            report = insert(repo, values)
            assert (report.added, report.skipped_duplicates) == (added, skipped)
            assert report.planes_added == repo.q - q
            stored |= set(values)
            assert repo.count == len(stored) and set(repo.values) == stored
            assert not repo.state.chains
        assert [v for v in range(100) if query(repo, v).found] == sorted(stored)

    def test_out_of_range_value_raises_and_changes_nothing(self):
        repo = build(primes_below(50), 2, 3)
        before = saved_text(repo)
        count, q = repo.count, repo.q
        with pytest.raises(DigitOverflowError, match="^100 "):
            insert(repo, [53, 100, 59, -1])
        assert (repo.count, repo.q) == (count, q)
        assert saved_text(repo) == before
        # and the store goes on as if the failed insert never happened
        insert(repo, [53, 59])
        fresh = build(primes_below(50), 2, 3)
        insert(fresh, [53, 59])
        assert saved_text(repo) == saved_text(fresh)

    def test_fresh_quadrant_insert_adds_no_planes(self):
        repo = build(primes_below(100), 2, 2)
        mat = repo.state.plane_matrix
        for v in range(99, 0, -1):
            res = query(repo, v)
            if not res.found and res.reason is AbsenceReason.NEW_QUADRANT:
                # rule out the boundary case, which also reports NEW_QUADRANT
                r = 1.0 + mat @ map_to_point(v, repo.mapping)
                if np.abs(r).min() > 1e-6:
                    break
        else:
            pytest.skip("every quadrant occupied")
        report = insert(repo, [v])
        assert report.planes_added == 0
        assert query(repo, v).found

    def test_insert_of_plane_incident_value_nudges_and_places(self):
        # with this seed the digit point of 98 lies exactly on a stored plane
        repo = build(primes_below(100), 2, 2)
        r = 1.0 + repo.state.plane_matrix @ map_to_point(98, repo.mapping)
        assert np.abs(r).min() <= 1e-9
        old_packed = list(repo.state.packed)
        report = insert(repo, [98])
        assert report.added == 1
        assert query(repo, 98).found
        for pid in range(len(old_packed)):
            assert repo.state.packed[pid] >> report.planes_added == old_packed[pid]
        verdict = oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, 1e-9
        )
        assert verdict.ok

    def test_split_build_equals_one_shot_queries(self):
        lo = [p for p in primes_below(100) if p < 50]
        hi = [p for p in primes_below(100) if p >= 50]
        split = build(lo, 2, 5)
        insert(split, hi)
        oneshot = build(primes_below(100), 2, 5)
        table = oracle.sieve(100)
        for v in range(100):
            expect = bool(table.is_prime[v])
            assert query(split, v).found == expect
            assert query(oneshot, v).found == expect

    def test_prefix_invariance(self):
        repo = build(primes_below(100)[:10], 2, 6)
        old_q = repo.q
        old = {repo.values[i]: repo.state.packed[i] for i in range(repo.count)}
        insert(repo, primes_below(100)[10:])
        for i, v in enumerate(repo.values[:10]):
            assert repo.state.packed[i] >> (repo.q - old_q) == old[v]

    def test_insert_after_save_load_is_deterministic(self):
        lo, hi = primes_below(50), [53, 59, 61, 67]
        r1 = build(lo, 2, 7)
        text = saved_text(r1)
        insert(r1, hi)
        r2 = load(io.StringIO(text))
        insert(r2, hi)
        assert saved_text(r1) == saved_text(r2)

    def test_a_deep_copy_answers_and_grows_like_the_original(self):
        # the benchmark copies a built repository for every run of its
        # insert schedule: nothing the index holds may refuse a deep copy
        primes = primes_below(3 * 10**4)
        repo = build([p for p in primes if p < 10**4], 4, 0)
        grow_dimension(repo, 5)
        insert(repo, [p for p in primes if 10**4 <= p < 2 * 10**4])
        insert(repo, [20011])
        query(repo, 7)
        saved_text(repo)  # fills the index's cached key order
        twin = copy.deepcopy(repo)
        for v in range(0, 2 * 10**4 + 100, 7):
            assert query(twin, v) == query(repo, v)
        for r in (repo, twin):
            insert(r, [p for p in primes if 2 * 10**4 < p < 25000])
            insert(r, [29989])
        assert twin.count == repo.count > 2000
        assert saved_text(twin) == saved_text(repo)
        assert all(query(twin, p).found for p in primes if p < 25000)


def stream_one(repo, v):
    """A one-value insert through the block path: the value's row streamed,
    finalized and registered, with the seed insert gives it."""
    state = repo.state
    q_before = state.q
    state.reseed([repo.seed, state.count, state.q, 1])
    separator.stream_points(state, map_to_points([v], repo.mapping))
    separator.finalize(state)
    repo._register_new_points()
    return InsertReport(added=1, skipped_duplicates=[], planes_added=state.q - q_before)


def offer_alone(repo, v):
    """A one-value insert through the generic path: ``offer`` checks the
    value's point and evaluates it itself, and the report is read off the
    values registered, as a batch's is."""
    state = repo.state
    q_before, count = state.q, state.count
    state.reseed([repo.seed, state.count, state.q, 1])
    res = separator.offer(state, map_to_point(v, repo.mapping))
    if res.kind is not separator.OfferKind.REPEATED:
        separator.finalize(state)
        repo._register_new_points()
    added = set(repo.values[count:])
    return InsertReport(added=state.count - count,
                        skipped_duplicates=[int(x) for x in [v] if x not in added],
                        planes_added=state.q - q_before)


class TestOneValueInsert:
    """A one-value insert is one offer of the value's point: it leaves the
    state, counters and report that streaming the point as a block of one
    leaves."""

    @pytest.mark.parametrize("stored, n, seed, values, nudges", [
        # 98 lies on a stored plane and nudges it
        (primes_below(100), 2, 2, [98, 4, 9, 27, 51, 63, 75, 81, 87, 99], True),
        (primes_below(1000), 3, 0,
         np.random.default_rng(3).choice(1000, 60, replace=False).tolist(), True),
        (np.random.default_rng(25).choice(10**6, 500, replace=False).tolist(), 25, 0,
         np.random.default_rng(26).choice(10**6, 40, replace=False).tolist(), False),
    ])
    def test_equals_a_streamed_block_of_one(self, stored, n, seed, values, nudges):
        repo = build(stored, n, seed)
        twin = copy.deepcopy(repo)
        nudged = emitted = False
        for v in values:
            if v in repo.values:
                continue
            planes = repo.state.plane_matrix.copy()
            report = insert(repo, [v])
            assert report == stream_one(twin, v)
            assert repo.counters == twin.counters
            assert saved_text(repo) == saved_text(twin)
            assert not repo.state.chains
            assert query(repo, v).found
            nudged |= not np.array_equal(repo.state.plane_matrix[:len(planes)], planes)
            emitted |= report.planes_added > 0
        assert emitted
        assert nudged == nudges

    @staticmethod
    def insert_each(repo, values):
        """Insert each value alone, and check it against :func:`offer_alone`
        on a twin: the same report, counters and saved text."""
        twin = copy.deepcopy(repo)
        reports = []
        for v in values:
            report = insert(repo, [v])
            assert report == offer_alone(twin, v)
            assert repo.counters == twin.counters
            assert saved_text(repo) == saved_text(twin)
            assert not repo.state.chains
            reports.append(report)
        return reports

    def test_a_stored_value_is_skipped_and_reported(self):
        repo = build(primes_below(100), 2, 2)
        before = saved_text(repo)
        offers = repo.state.offers
        for report, v in zip(self.insert_each(repo, [2, 97, 53]), [2, 97, 53]):
            assert report == InsertReport(added=0, skipped_duplicates=[v], planes_added=0)
        # a dropped repeat is tallied as an offer and changes nothing else
        assert repo.state.offers == offers + 3
        assert [line for line in saved_text(repo).splitlines() if line.startswith("plane")] \
            == [line for line in before.splitlines() if line.startswith("plane")]

    def test_into_an_empty_store(self):
        repo = build([], 3, 0)
        [report] = self.insert_each(repo, [5])
        assert report == InsertReport(added=1, skipped_duplicates=[], planes_added=0)
        assert (repo.count, repo.q) == (1, 0) and query(repo, 5).found

    @pytest.mark.parametrize("n, values", [(3, [5, 5, 7, 11]), (1, [5, 5, 7, 3])])
    def test_into_a_one_point_store_at_q_0(self, n, values):
        # the store holds one point and no plane; the second value's
        # residuals are empty, the first value again is a repeat, and a
        # fresh one shares the only quadrant and is split off by planes
        repo = build([], n, 0)
        reports = self.insert_each(repo, values)
        assert [r.added for r in reports] == [1, 0, 1, 1]
        assert reports[1].skipped_duplicates == [5] and reports[1].planes_added == 0
        assert reports[2].planes_added > 0
        assert [v for v in range(min(20, 10**n)) if query(repo, v).found] == sorted(set(values))

    def test_a_numpy_integer_value(self):
        repo = build(primes_below(1000), 3, 0)
        reports = self.insert_each(repo, [np.int64(4), np.int64(7), np.int32(9), np.int64(7)])
        assert [r.added for r in reports] == [1, 0, 1, 0]
        assert all(type(v) is int for r in reports for v in r.skipped_duplicates)
        assert type(repo.values[-1]) is int and repo.values[-1] == 9

    def test_a_store_holds_no_pending_chains_between_calls(self):
        repo = build(primes_below(1000), 3, 0)
        assert not repo.state.chains
        for values in ([4], [6, 8, 10, 12], [9]):
            insert(repo, values)
            assert not repo.state.chains
        loaded = load(io.StringIO(saved_text(repo)))
        assert not loaded.state.chains
        grow_dimension(loaded, 4)
        assert not loaded.state.chains
        insert(loaded, [1001])
        assert not loaded.state.chains

    def test_non_integral_values_raise_before_anything_changes(self):
        # int() would truncate them: 2.5 and 7.9 stored as 2 and 7
        with pytest.raises(TypeError):
            build([2.5, 3, 7.9], 2, 0)
        repo = build(primes_below(50), 2, 3)
        before = saved_text(repo)
        for values in ([11.99], [53, 2.0], [np.float64(59.0)]):
            with pytest.raises(TypeError):
                insert(repo, values)
            assert saved_text(repo) == before
        with pytest.raises(TypeError):
            query(repo, 2.0)
        assert saved_text(repo) == before
        # numpy integer scalars are integers
        assert query(repo, np.int64(47)).found
        assert insert(repo, [np.int64(53)]).added == 1
        assert type(repo.values[-1]) is int and query(repo, 53).found


class TestGrowDimension:
    def test_identity_growth(self):
        repo = build([2, 3, 5], 1, 0)
        assert grow_dimension(repo, 1) is repo

    def test_shrink_rejected(self):
        repo = build([2, 3, 5], 2, 0)
        with pytest.raises(ValueError):
            grow_dimension(repo, 1)

    def test_grow_preserves_every_sign_vector_bit_for_bit(self):
        repo = build(primes_below(100), 2, 8)
        before = list(repo.state.packed)
        grow_dimension(repo, 5)
        assert repo.state.packed == before
        # recompute from scratch: zero padding must not move any residual
        mat = repo.state.plane_matrix
        for pid in range(repo.count):
            r = 1.0 + mat @ repo.state.points[pid]
            from planesep.geometry import pack_sign_bits

            assert pack_sign_bits(r > 0) == before[pid]

    def test_grow_then_query_old_values(self):
        repo = build(primes_below(100), 2, 9)
        grow_dimension(repo, 5)
        table = oracle.sieve(100)
        for v in range(100):
            assert query(repo, v).found == bool(table.is_prime[v])

    def test_grow_then_insert_five_digit_primes(self):
        repo = build(primes_below(100), 2, 10)
        grow_dimension(repo, 5)
        newcomers = [80917, 99991, 99989]
        report = insert(repo, newcomers)
        assert report.added == 3
        for v in newcomers:
            assert query(repo, v).found
        assert query(repo, 99990).found is False
        verdict = oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, 1e-9
        )
        assert verdict.ok


class TestPersistence:
    def test_round_trip_is_byte_identical(self):
        repo = build(primes_below(200), 3, 11)
        text = saved_text(repo)
        again = saved_text(load(io.StringIO(text)))
        assert text == again

    def test_loaded_repo_answers_queries(self):
        repo = load(io.StringIO(saved_text(build(primes_below(100), 2, 12))))
        table = oracle.sieve(100)
        for v in range(100):
            assert query(repo, v).found == bool(table.is_prime[v])

    def test_truncated_file(self):
        text = saved_text(build([2, 3, 5, 7], 2, 0))
        clipped = "".join(text.splitlines(keepends=True)[:-3])
        with pytest.raises(RepositoryFormatError):
            load(io.StringIO(clipped))

    def test_version_mismatch(self):
        text = saved_text(build([2, 3], 2, 0))
        hacked = text.replace("planesep-repository 1", "planesep-repository 99", 1)
        with pytest.raises(RepositoryFormatError, match="version"):
            load(io.StringIO(hacked))

    def test_bad_magic(self):
        with pytest.raises(RepositoryFormatError, match="magic"):
            load(io.StringIO("other-format 1\n"))

    def test_bytes_load_like_text(self):
        text = saved_text(build(primes_below(100), 2, 12))
        assert saved_text(load(text.encode("utf-8"))) == text

    @pytest.mark.parametrize("from_file", [False, True])
    def test_non_utf8_input_rejected(self, tmp_path, from_file):
        source = b"\xff\xfe garbage"
        if from_file:
            (tmp_path / "bad.txt").write_bytes(source)
            source = tmp_path / "bad.txt"
        with pytest.raises(RepositoryFormatError, match="^not UTF-8 text: "):
            load(source)

    def test_garbled_plane_line(self):
        text = saved_text(build([2, 3, 5], 1, 0))
        hacked = text.replace("plane 1 ", "plane 1 spam ", 1)
        with pytest.raises(RepositoryFormatError):
            load(io.StringIO(hacked))

    def test_entries_in_any_order_load_to_the_same_answers(self):
        # entry i becomes point id i, whatever the order of the keys
        repo = build(primes_below(1000), 3, 0)
        lines = saved_text(repo).splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("entry "))
        entries = lines[first:-1]
        shuffled = [entries[i] for i in np.random.default_rng(5).permutation(len(entries))]
        text = "".join(lines[:first] + shuffled + lines[-1:])
        loaded = load(io.StringIO(text))
        assert loaded.values == [int(line.split()[1]) for line in shuffled]
        assert saved_text(loaded) == text
        prime = oracle.sieve(1000).is_prime
        built_c, loaded_c = OpCounters(), OpCounters()
        for v in range(1000):
            assert query(loaded, v, loaded_c).found == query(repo, v, built_c).found == prime[v]
        assert loaded_c.multiplications == built_c.multiplications

    def test_a_file_of_the_key_ordered_format_loads(self):
        # written when save listed the entries in dictionary order of their
        # keys (the primes below 100 at n = 2, seed 13); load numbers them
        # in that order, so saving the store again gives the same bytes
        path = Path(__file__).parent / "data" / "primes-below-100-n2-seed13.v1.txt"
        text = path.read_text(encoding="utf-8")
        entries = [line.split() for line in text.splitlines() if line.startswith("entry ")]
        keys = [int(key, 16) for _, _, key in entries]
        assert keys == sorted(keys) and len(entries) == 25
        repo = load(path)
        prime = oracle.sieve(100).is_prime
        assert [query(repo, v).found for v in range(100)] == prime[:100].tolist()
        assert saved_text(repo) == text

    def test_offers_line_disagreeing_with_counters_rejected(self):
        text = saved_text(build(primes_below(100), 2, 13))
        lines = text.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if l.startswith("offers "))
        _, offers, ov, recycles = lines[i].split()
        lines[i] = f"offers {offers} {int(ov) + 1} {recycles}\n"
        with pytest.raises(RepositoryFormatError, match="OV multiplications"):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize(
        "key, value", [("epsilon", "1e-12"), ("delta0", "0.001"), ("max-retries", "4")]
    )
    def test_tolerance_other_than_the_fixed_one_rejected(self, key, value):
        text = saved_text(build(primes_below(100), 2, 13))
        lines = text.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if l.startswith(key + " "))
        lines[i] = f"{key} {value}\n"
        with pytest.raises(RepositoryFormatError, match=key):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize(
        "key, value, line",
        [("n", "0", 2), ("base", "1", 3), ("dims-history", "2,x", 10)],
    )
    def test_bad_header_field_rejected_with_its_line(self, key, value, line):
        text = saved_text(build(primes_below(100), 2, 13))
        lines = text.splitlines(keepends=True)
        assert lines[line - 1].startswith(key + " ")
        lines[line - 1] = f"{key} {value}\n"
        with pytest.raises(RepositoryFormatError, match=f"^line {line}: "):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("history", ["dims-history 7", "dims-history 3,2",
                                         "dims-history 2,2", "dims-history"],
                             ids=["wider-than-n", "decreasing", "repeated", "empty"])
    def test_dims_history_not_increasing_to_n_rejected_with_its_line(self, history):
        # each loaded before; with 7, stats reported count*7*q as the floor
        # of an n = 2 store's OV cost and read its own store as below it
        repo = build(primes_below(24), 2, 0)
        lines = saved_text(repo).splitlines(keepends=True)
        assert lines[9] == "dims-history 2\n"
        lines[9] = history + "\n"
        with pytest.raises(RepositoryFormatError, match="^line 10: dims-history"):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("line, edit", [
        (4, lambda parts, q: ["q", "-1"]),
        (5, lambda parts, q: ["count", "-3"]),
        (6, lambda parts, q: ["seed", "-5"]),
        (11, lambda parts, q: ["q0", "-1"]),
        (11, lambda parts, q: ["q0", str(q + 1)]),
        (14, lambda parts, q: ["plane", "7"] + parts[2:]),
        (15, lambda parts, q: parts[:2] + ["nan"] + parts[3:]),
        (16, lambda parts, q: parts[:-1] + ["-inf"]),
        (12, lambda parts, q: ["offers", "-6"] + parts[2:]),
        (12, lambda parts, q: parts[:3] + ["-1"]),
        (13, lambda parts, q: [p.replace("sign_evals=", "sign_evalz=") for p in parts]),
        (13, lambda parts, q: [p for p in parts if not p.startswith("multiplications=")]),
        (13, lambda parts, q: parts + ["sign_evals=0"]),
        (13, lambda parts, q: parts[:-1] + ["solve_multiplications=-1"]),
        (1, lambda parts, q: parts + ["x"]),
        (2, lambda parts, q: parts + ["7"]),
        (11, lambda parts, q: parts + ["x"]),
        (12, lambda parts, q: parts + ["9"]),
    ], ids=["negative-q", "negative-count", "negative-seed", "negative-q0", "q0-above-q",
            "saturated-flag-7", "nan-coefficient", "infinite-coefficient",
            "negative-offers", "negative-recycles", "misspelled-counter", "missing-counter",
            "repeated-counter", "negative-counter", "extra-field-magic", "extra-field-n",
            "extra-field-q0", "extra-field-offers"])
    def test_malformed_header_or_plane_line_rejected_with_its_line(self, line, edit):
        # each of these loaded before: a negative count or seed broke the
        # next insert, a negative q every query, a nan plane answered
        # queries wrongly, a misspelled or missing counter read as 0, and
        # fields after those save writes were ignored
        repo = build(primes_below(24), 2, 0)
        lines = saved_text(repo).splitlines(keepends=True)
        lines[line - 1] = " ".join(edit(lines[line - 1].split(), repo.q)) + "\n"
        with pytest.raises(RepositoryFormatError, match=f"^line {line}: "):
            load(io.StringIO("".join(lines)))

    def test_entry_key_wider_than_q_zero_rejected_with_its_line(self):
        # a one-point store has q = 0, so its only key is 0; key 1 loaded
        # before, and the stored value then answered absent
        repo = build([], 3, 0)
        insert(repo, [5])
        lines = saved_text(repo).splitlines(keepends=True)
        assert repo.q == 0 and lines[13] == "entry 5 0\n"
        lines[13] = "entry 5 1\n"
        with pytest.raises(RepositoryFormatError, match="^line 14: "):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("line, text, message", [
        (22, "", "blank line"),
        (22, "entries 17 2", "expected 'entry', found 'entries'"),
        (22, "entry 17", "bad packed sign vector"),
        (22, "entry 17 2 junk", "extra fields ['junk'] on 'entry' line"),
        (22, "entry 17.0 2", "bad integer field: ['entry', '17.0', '2']"),
        (22, "entry 17 2g", "bad packed sign vector"),
        (22, "entry 17 0x2", "bad packed sign vector"),
        (22, "entry 17 " + "0" * 16 + "2", "bad packed sign vector"),
        (22, "entry 100 2", "value 100 out of range"),
        (22, "entry -5 2", "value -5 out of range"),
        (22, "entry 17 20", "sign vector wider than q"),
        (22, "entry 17 7", "repeated packed sign vector"),
        (22, "entry 5 2", "repeated value 5"),
        (23, None, "unexpected end of file"),
        (28, "end junk", "extra fields ['junk'] on 'end' line"),
    ], ids=["blank", "wrong-tag", "missing-key", "extra-field", "non-integer-value",
            "non-hex-key", "key-spelled-0x", "key-of-more-digits-than-a-row",
            "value-at-capacity", "negative-value", "key-of-q-plus-one-bits",
            "repeated-key", "repeated-value", "cut-inside-entries", "extra-field-on-end"])
    def test_malformed_entry_line_rejected_with_its_line(self, line, text, message):
        # entries are lines 19-27 (q = 5 planes) by point id, so line 22
        # holds the fourth point, value 17 at key 2, after value 5 at key 7;
        # a repeat is named on its later line.  None cuts the file after
        # line 22.  A repeated value loaded before: the store counted it
        # twice, answered the value it hid absent, and took it again on insert
        repo = build(primes_below(24), 2, 0)
        lines = saved_text(repo).splitlines(keepends=True)
        assert repo.q == 5 and lines[20:22] == ["entry 5 7\n", "entry 17 2\n"]
        assert lines[27] == "end\n"
        if text is None:
            del lines[line - 1:]
        else:
            lines[line - 1] = text + "\n"
        with pytest.raises(RepositoryFormatError,
                           match="^" + re.escape(f"line {line}: {message}") + "$"):
            load(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("big", [2**63, 2**64 + 12345, 10**25 - 1])
    def test_repeated_value_past_int64_rejected_with_its_line(self, big):
        # a store holding values past int64 is checked for a repeated value
        # in Python integers, not int64; a repeat of a value past int64 or
        # of a small one names its later line
        small = [int(v) for v in np.random.default_rng(7).choice(10**6, 30, replace=False)]
        repo = build(small + [big, 10**20 + 7], 25, 0)
        lines = saved_text(repo).splitlines(keepends=True)
        first = 14 + repo.q  # the line of point id 0's entry
        for repeat, later in ((big, repo.values.index(10**20 + 7)),
                              (small[0], repo.values.index(small[1]))):
            _, _, key = lines[first + later - 1].split()
            edited = lines.copy()
            edited[first + later - 1] = f"entry {repeat} {key}\n"
            at = first + max(later, repo.values.index(repeat))
            with pytest.raises(RepositoryFormatError,
                               match=f"^line {at}: repeated value {repeat}$"):
                load(io.StringIO("".join(edited)))

    def test_load_restores_the_saved_state(self):
        # a store built, inserted into and grown; load keeps its point ids
        primes = primes_below(10**4)
        held = set(np.random.default_rng(0).choice(primes, 500, replace=False).tolist())
        repo = build([p for p in primes if p not in held], 4, 0)
        insert(repo, sorted(held))
        grow_dimension(repo, 5)
        text = saved_text(repo)
        loaded = load(io.StringIO(text))
        again = load(io.StringIO(saved_text(loaded)))
        assert loaded.values == repo.values
        assert np.array_equal(loaded.state.points, repo.state.points)
        assert list(loaded.state.index.items()) == list(repo.state.index.items())
        assert saved_text(loaded) == text
        for a, b in ((repo, loaded), (loaded, again)):
            assert b.q == a.q and b.state.q0 == a.state.q0 and b.count == a.count
            assert b.state._saturated == a.state._saturated
            assert np.array_equal(b.state.plane_matrix, a.state.plane_matrix)
            assert b.counters.as_dict() == a.counters.as_dict()
            assert (b.state.offers, b.state.recycle_events) == (
                a.state.offers, a.state.recycle_events)
            assert (b.mapping, b.seed, b.dims_history) == (a.mapping, a.seed, a.dims_history)
        # a second round trip keeps the point ids as well
        assert again.values == loaded.values
        assert np.array_equal(again.state.points, loaded.state.points)
        assert list(again.state.index.items()) == list(loaded.state.index.items())

    def test_a_built_store_is_numbered_as_load_numbers_it(self):
        # save writes point id i as entry i and load reads it back as id i;
        # build rebuilds its slots at the end as load builds them, so the
        # two stores walk the same chains
        repo = build(primes_below(10**4), 4, 0)
        loaded = load(io.StringIO(saved_text(repo)))
        assert repo.values == loaded.values
        assert np.array_equal(repo.state.points, loaded.state.points)
        assert list(repo.state.index.items()) == list(loaded.state.index.items())
        built_c, loaded_c = OpCounters(), OpCounters()
        for v in range(0, 10**4, 3):
            assert query(repo, v, built_c) == query(loaded, v, loaded_c)
        assert built_c.as_dict() == loaded_c.as_dict()
        # the same inserts into either store save to identical bytes
        more = [p for p in primes_below(12000) if p >= 10**4]
        for r in (repo, loaded):
            grow_dimension(r, 5)
            insert(r, more[:-3])
            for p in more[-3:]:
                insert(r, [p])
        assert saved_text(repo) == saved_text(loaded)

    def test_save_to_path(self, tmp_path):
        repo = build([2, 3, 5], 1, 0)
        path = tmp_path / "repo.txt"
        save(repo, path)
        assert load(path).values == repo.values

    def test_counters_survive_round_trip(self):
        repo = build(primes_below(100), 2, 13)
        loaded = load(io.StringIO(saved_text(repo)))
        assert loaded.counters.as_dict() == repo.counters.as_dict()
        assert loaded.state.offers == repo.state.offers
        assert (loaded.state.counters.ov_multiplications
                == repo.state.counters.ov_multiplications)


@pytest.fixture(scope="module")
def primes5_text():
    """The primes below 10^5 at n = 5, seed 0, saved: q = 105 planes, and
    9,592 entries on lines 119-9710, which load reads in three blocks of
    4,096 lines; line 4315, in the second, holds value 70529."""
    text = saved_text(build(primes_below(10**5), 5, 0))
    lines = text.splitlines(keepends=True)
    assert lines[3:5] == ["q 105\n", "count 9592\n"] and len(lines) == 9711
    assert lines[118].startswith("entry ") and lines[9710] == "end\n"
    assert lines[4314] == "entry 70529 1dce74f5ad553598e54a1e7bb7f\n"
    assert separator._HEX_BLOCK == 4096
    return text


def load_messages(data, tmp_path):
    """The message load raises for ``data`` read from bytes, from a path,
    and, when it is UTF-8, from a text stream."""
    raw = data if isinstance(data, bytes) else data.encode()
    path = tmp_path / "repo.txt"
    path.write_bytes(raw)
    sources = [raw, path]
    if not isinstance(data, bytes):
        sources.append(io.StringIO(data, newline=""))
    messages = []
    for source in sources:
        with pytest.raises(RepositoryFormatError) as err:
            load(source)
        messages.append(str(err.value))
    return messages


class TestBlockLoad:
    """Rejections past load's first block of entry lines.  Each message and
    line number is the one load gave when it read the whole file at once."""

    @staticmethod
    def edited(text, index, line):
        lines = text.splitlines(keepends=True)
        lines[index] = line
        return "".join(lines)

    @pytest.mark.parametrize("line, message", [
        ("entry 70529 1dce74f5ad553598e54a1e7bb7fg\n", "bad packed sign vector"),
        ("entry x70529 1dce74f5ad553598e54a1e7bb7f\n",
         "bad integer field: ['entry', 'x70529', '1dce74f5ad553598e54a1e7bb7f']"),
        ("entries 70529 1dce74f5ad553598e54a1e7bb7f\n", "expected 'entry', found 'entries'"),
        ("entry 70529 1dce74f5ad553598e54a1e7bb7f 0\n",
         "extra fields ['0'] on 'entry' line"),
    ], ids=["non-hex-key", "non-integer-value", "wrong-tag", "extra-field"])
    def test_malformed_entry_line_in_the_second_block(self, primes5_text, tmp_path,
                                                      line, message):
        text = self.edited(primes5_text, 4314, line)
        assert load_messages(text, tmp_path) == [f"line 4315: {message}"] * 3

    @pytest.mark.parametrize("keep, message", [
        ("", "unexpected end of file"),
        ("entry 705", "bad packed sign vector"),
    ], ids=["before-a-line", "inside-a-line"])
    def test_file_cut_inside_the_second_block(self, primes5_text, tmp_path, keep, message):
        lines = primes5_text.splitlines(keepends=True)
        text = "".join(lines[:4314]) + keep
        assert load_messages(text, tmp_path) == [f"line 4315: {message}"] * 3

    @pytest.mark.parametrize("brk", ["\f", "\r", " ", "\x1c", "\x85", "\v"])
    def test_a_line_break_inside_an_entry_line(self, primes5_text, tmp_path, brk):
        # str.splitlines breaks the line there, and so does load, though a
        # file iterator would read each of these lines as one valid line
        before_key = self.edited(primes5_text, 4314,
                                 f"entry 70529{brk}1dce74f5ad553598e54a1e7bb7f\n")
        assert load_messages(before_key, tmp_path) == [
            "line 4315: bad packed sign vector"] * 3
        in_key = self.edited(primes5_text, 4314,
                             f"entry 70529 1dc{brk}e74f5ad553598e54a1e7bb7f\n")
        assert load_messages(in_key, tmp_path) == [
            "line 4316: expected 'entry', found 'e74f5ad553598e54a1e7bb7f'"] * 3

    def test_a_count_past_the_entries_is_rejected_at_the_end_line(self, primes5_text,
                                                                  tmp_path):
        # nothing is allocated from the count: 10^12 entries would not fit
        text = primes5_text.replace("count 9592\n", "count 1000000000000\n", 1)
        assert load_messages(text, tmp_path) == ["line 9711: expected 'entry', found 'end'"] * 3

    @pytest.mark.parametrize("index, bad, message", [
        (4314, b"\xc3\x28",
         "byte 0xc3 in position 178319: invalid continuation byte"),
        (8317, b"\xff", "byte 0xff in position 337021: invalid start byte"),
    ], ids=["second-block", "third-block"])
    def test_invalid_utf8_after_the_first_block(self, primes5_text, tmp_path, index, bad,
                                                message):
        # the position counts bytes from the start of the file, as when
        # the file was decoded whole
        raw = primes5_text.encode()
        at = raw.index(primes5_text.splitlines(keepends=True)[index].encode()) + 8
        data = raw[:at] + bad + raw[at + len(bad):]
        assert load_messages(data, tmp_path) == [
            f"not UTF-8 text: 'utf-8' codec can't decode {message}"] * 2

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_lines_split_alike_at_any_chunk_size(self, monkeypatch, tmp_path, chunk):
        # a chunk may end between the \r and \n of one line break
        text = saved_text(build(primes_below(100), 2, 12)).replace("\n", "\r\n")
        broken = text.replace("\r\nentry ", "\r\nentry\r", 1)
        want = load_messages(broken, tmp_path)
        monkeypatch.setattr("planesep.repository._CHUNK", chunk)
        for source in (text.encode(), io.StringIO(text, newline="")):
            assert saved_text(load(source)) == text.replace("\r\n", "\n")
        assert load_messages(broken, tmp_path) == want

    @pytest.mark.parametrize("block", [1, 2, 4, 8])
    def test_every_rejection_is_the_same_at_any_block_size(self, monkeypatch, block):
        # entries are lines 19-27 of the primes below 24 (n = 2, q = 5)
        lines = saved_text(build(primes_below(24), 2, 0)).splitlines(keepends=True)
        edits = ["entry 17 2g\n", "entry 5 2\n", "entry 100 2\n", "entries 17 2\n", "\n"]
        texts = ["".join(lines[:i] + [edit] + lines[i + 1:])
                 for i in range(18, 27) for edit in edits]
        texts += ["".join(lines[:i]) for i in range(18, 28)]

        def messages():
            out = []
            for text in texts:
                with pytest.raises(RepositoryFormatError) as err:
                    load(io.StringIO(text))
                out.append(str(err.value))
            return out

        want = messages()
        monkeypatch.setattr(separator, "_HEX_BLOCK", block)
        assert messages() == want
