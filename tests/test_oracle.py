"""Ground-truth generators are themselves cross-checked here."""

import math

import numpy as np
import pytest

from planesep import oracle


class TestSieve:
    def test_counts_25_primes_below_100(self):
        table = oracle.sieve(100)
        assert table.count() == 25
        assert list(table.primes()[:4]) == [2, 3, 5, 7]

    def test_edge_flags(self):
        table = oracle.sieve(10)
        assert table.is_prime[2]
        assert not table.is_prime[1]
        assert not table.is_prime[0]
        assert not table.is_prime[9]

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            oracle.sieve(1)

    def test_agrees_with_trial_division_to_1e5(self):
        limit = 100_000
        table = oracle.sieve(limit)
        nums = np.arange(limit + 1)
        composite = np.zeros(limit + 1, dtype=bool)
        for d in range(2, int(limit**0.5) + 1):
            composite |= (nums % d == 0) & (nums > d)
        trial = ~composite
        trial[:2] = False
        assert np.array_equal(table.is_prime, trial)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_prime_counts_track_n_over_log_n(self, n):
        exact = oracle.sieve(10**n).count()
        estimate = 10**n / (n * np.log(10))
        assert abs(estimate / exact - 1.0) <= 0.15


class TestVerifySeparation:
    def test_fails_on_identical_points(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        planes = np.array([[1.0, 0.0]])
        verdict = oracle.verify_separation(pts, planes, 1e-9)
        assert not verdict.ok
        assert verdict.collisions

    def test_fails_on_incident_point(self):
        pts = np.array([[2.0, 0.0], [0.0, 3.0]])
        planes = np.array([[-0.5, 0.0]])  # passes through x=2
        verdict = oracle.verify_separation(pts, planes, 1e-9)
        assert not verdict.ok
        assert (0, 0) in verdict.incidences

    def test_passes_on_clean_split(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0]])
        planes = np.array([[-0.5, 0.0]])  # x = 2
        assert oracle.verify_separation(pts, planes, 1e-9).ok

    def test_no_planes_many_points_collides(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        verdict = oracle.verify_separation(pts, np.empty((0, 1)), 1e-9)
        assert not verdict.ok

    def test_single_point_trivially_ok(self):
        verdict = oracle.verify_separation(np.array([[1.0, 1.0]]), np.empty((0, 2)), 1e-9)
        assert verdict.ok


def one_shot_verdict(points, planes, epsilon):
    """verify_separation as it was written before it worked in blocks: the
    whole N x q residual matrix at once, its sign rows sorted as booleans."""
    pts = np.asarray(points, dtype=np.float64)
    mat = np.asarray(planes, dtype=np.float64)
    verdict = oracle.Verdict(ok=True)
    resid = 1.0 + pts @ mat.T
    inc = np.nonzero(np.abs(resid) <= epsilon)
    for i, j in zip(*inc):
        verdict.ok = False
        verdict.incidences.append((int(i), int(j)))
    signs = resid > 0
    order = np.lexsort(signs.T[::-1])
    same = np.all(signs[order[1:]] == signs[order[:-1]], axis=1)
    for k in np.nonzero(same)[0]:
        verdict.ok = False
        verdict.collisions.append((int(order[k]), int(order[k + 1])))
    return verdict


class TestVerifySeparationInBlocks:
    """The verdict is the one-shot computation's, whatever the block size."""

    @pytest.mark.parametrize("block", [1, 7, 64, 4096])
    @pytest.mark.parametrize("q", [1, 5, 63, 64, 65, 130])
    def test_blocks_give_the_one_shot_verdict(self, monkeypatch, block, q):
        monkeypatch.setattr(oracle, "_VERIFY_BLOCK", block)
        rng = np.random.default_rng(q)
        # 300 digit points in 3 dimensions: many repeat, some three times
        pts = rng.integers(0, 10, size=(300, 3)).astype(float)
        planes = rng.normal(size=(q, 3))
        planes[0] = [-0.5, 0.0, 0.0]  # through every point with x = 2
        got = oracle.verify_separation(pts, planes, 1e-9)
        want = one_shot_verdict(pts, planes, 1e-9)
        assert want.incidences and want.collisions
        assert (got.ok, got.incidences, got.collisions) == (
            want.ok, want.incidences, want.collisions)

    @pytest.mark.parametrize("block", [7, 4096])
    def test_a_separating_family_passes_in_blocks(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "_VERIFY_BLOCK", block)
        pts = np.array([[x, y] for x in range(10) for y in range(10)], dtype=float)
        planes = oracle.coordinate_plane_separator(2)
        got = oracle.verify_separation(pts, planes, 1e-9)
        want = one_shot_verdict(pts, planes, 1e-9)
        assert got.ok and want.ok
        assert (got.incidences, got.collisions) == ([], [])


class TestCoordinatePlanes:
    def test_nine_thresholds_separate_the_digits(self):
        planes = oracle.coordinate_plane_separator(1)
        assert planes.shape == (9, 1)
        pts = np.arange(10.0)[:, None]
        assert oracle.verify_separation(pts, planes, 1e-9).ok

    def test_18_planes_separate_all_two_digit_points(self):
        planes = oracle.coordinate_plane_separator(2)
        assert planes.shape == (18, 2)
        pts = np.array([[x, y] for x in range(10) for y in range(10)], dtype=float)
        assert oracle.verify_separation(pts, planes, 1e-9).ok

    def test_count_scales_with_base_and_dims(self):
        assert oracle.coordinate_plane_separator(3, base=4).shape == (9, 3)

    def test_any_two_digit_points_split_by_some_axis_threshold(self):
        rng = np.random.default_rng(0)
        mat = oracle.coordinate_plane_separator(3)
        for _ in range(100):
            a, b = rng.integers(0, 10, size=(2, 3)).astype(float)
            if np.array_equal(a, b):
                continue
            sa = (1.0 + mat @ a) > 0
            sb = (1.0 + mat @ b) > 0
            assert not np.array_equal(sa, sb)


class TestPlaneCountLowerBound:
    @pytest.mark.parametrize("count, n", [(0, 3), (1, 1), (2, 1), (5, 3), (8, 3), (9, 4),
                                          (2000, 15), (50000, 25), (2**20, 20)])
    def test_a_bound_of_at_most_n_is_log2_of_the_count(self, count, n):
        q_lb = oracle.plane_count_lower_bound(count, n)
        assert q_lb <= n
        assert q_lb == max(count - 1, 0).bit_length()  # ceil(log2 count), 0 for count <= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_least_plane_count_whose_cells_hold_every_point(self, n):
        def cells(q):
            return sum(math.comb(q, i) for i in range(n + 1))

        for count in range(1, 400):
            q_lb = oracle.plane_count_lower_bound(count, n)
            assert cells(q_lb) >= count
            assert q_lb == 0 or cells(q_lb - 1) < count

    def test_25_points_in_the_plane_need_seven_lines(self):
        # 6 lines make at most 1 + 6 + 15 = 22 regions, 7 lines 29
        assert oracle.plane_count_lower_bound(25, 2) == 7
