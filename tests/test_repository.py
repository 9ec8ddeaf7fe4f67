"""Digit mapping, the value store, incremental insert, growth, persistence."""

import io

import numpy as np
import pytest

from planesep import (
    DigitOverflowError,
    DuplicatePointError,
    NotADigitPointError,
    OpCounters,
    RepositoryFormatError,
    RunConfig,
    oracle,
    separator,
)
from planesep.geometry import INCIDENT, pack_sign_bits, signs_from_residuals
from planesep.repository import (
    AbsenceReason,
    BuildMeta,
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
        config = RunConfig(seed=0, base=mapping.base)
        state = separator.SeparationState(mapping.n, config, np.random.default_rng(0))
        state._pts_buf = points
        state.count = len(points)
        meta = BuildMeta(seed=0, epsilon=config.epsilon, delta0=config.delta0,
                         max_retries=config.max_retries)
        return Repository(mapping, state, [], meta)

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
        assert repo.value_ids == {v: i for i, v in enumerate(values)}

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
        assert len({packed for packed, _ in repo.state.index.items()}) == 25
        verdict = oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, 1e-9
        )
        assert verdict.ok

    def test_entries_expose_value_point_address_triples(self):
        repo = build([2, 3, 5, 7, 11, 13], 2, 1)
        rows = list(repo.entries())
        assert sorted(v for v, _, _ in rows) == [2, 3, 5, 7, 11, 13]
        addresses = [ov.bits for _, _, ov in rows]
        assert addresses == sorted(addresses)  # dictionary order
        for v, point, ov in rows:
            assert point_to_integer(point, repo.mapping) == v
            assert len(ov) == repo.q

    def test_empty(self):
        repo = build([], 3, 0)
        assert repo.count == 0
        assert repo.q == 0

    def test_duplicate_values_rejected(self):
        with pytest.raises(DuplicatePointError):
            build([3, 5, 3], 2, 0)

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

    def test_binary_base_build(self):
        cfg = RunConfig(seed=1, base=2)
        repo = build(list(range(16)), 4, 1, cfg)
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
    if pid is None:
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

    def test_garbled_plane_line(self):
        text = saved_text(build([2, 3, 5], 1, 0))
        hacked = text.replace("plane 1 ", "plane 1 spam ", 1)
        with pytest.raises(RepositoryFormatError):
            load(io.StringIO(hacked))

    def test_entries_out_of_order_rejected(self):
        text = saved_text(build([2, 3, 5, 7], 2, 0))
        lines = text.splitlines(keepends=True)
        first = next(i for i, l in enumerate(lines) if l.startswith("entry"))
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        with pytest.raises(RepositoryFormatError, match="order"):
            load(io.StringIO("".join(lines)))

    def test_save_to_path(self, tmp_path):
        repo = build([2, 3, 5], 1, 0)
        path = tmp_path / "repo.txt"
        save(repo, path)
        # entry order in the file is dictionary order, not insertion order
        assert sorted(load(path).values) == sorted(repo.values)

    def test_counters_survive_round_trip(self):
        repo = build(primes_below(100), 2, 13)
        loaded = load(io.StringIO(saved_text(repo)))
        assert loaded.counters.as_dict() == repo.counters.as_dict()
        assert loaded.state.offers == repo.state.offers
        assert loaded.state.offered_nq == repo.state.offered_nq
