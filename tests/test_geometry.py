"""Residuals, signs, sign-vector packing, and midpoint-constrained fits.

Planes are coefficient arrays: a family of q planes in n dimensions is a
(q, n) matrix, and residuals come from :mod:`planesep.kernels`.
"""

import io

import numpy as np
import pytest

import planesep
from planesep import (
    DimensionMismatchError,
    IncidentPointError,
    InconsistentSystemError,
    OpCounters,
    fit_plane_through,
    kernels,
    repository,
    separator,
    shift_midpoints,
)
from planesep.geometry import INCIDENT, pack_sign_bits, signs_from_residuals
from planesep.separator import OvIndex, SeparationState, offer

EPS = 1e-9


def state_with_planes(planes, n):
    state = SeparationState(n, 0)
    for alpha in np.reshape(planes, (-1, n)):
        state._append_plane(alpha, True)
    return state


def empty_store(planes, n):
    """A store of no values behind the given planes: queries search an empty index."""
    state = state_with_planes(planes, n)
    # as load leaves an empty store
    state.index = OvIndex.from_rows(separator.hex_rows([], state.q), state.q)
    return repository.Repository(repository.IntegerMapping(n), state, [], 0, (n,))


class TestEvaluateResidual:
    """The residual 1 + alpha . p of a point against one plane."""

    def test_constant_term_only(self):
        assert kernels.residuals_plane(np.array([[0.0]]), np.array([1.0]))[0] == 1.0

    def test_axis_plane(self):
        r = kernels.residuals_plane(np.array([[7.0, 3.0]]), np.array([1.0, 0.0]))
        assert r[0] == 8.0

    def test_fractional_coefficients(self):
        r = kernels.residuals_plane(np.array([[7.0, 3.0]]), np.array([-2.0 / 7.0, 0.0]))
        assert r[0] == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            offer(state_with_planes([1.0, 2.0], 2), np.array([1.0]))

    def test_counts_n_mults_and_adds(self):
        state = SeparationState(3, 0)
        state._sweep(np.array([[1.0, 1.0, 1.0]]), np.array([1.0, 2.0, 3.0]))
        assert state.counters.multiplications == 3
        assert state.counters.additions == 3


class TestSignOf:
    """A residual's side: +1, -1, or INCIDENT inside the band |r| <= epsilon."""

    def test_positive(self):
        assert list(signs_from_residuals(np.array([8.0]), EPS)) == [1]

    def test_negative(self):
        assert list(signs_from_residuals(np.array([-1.0]), EPS)) == [-1]

    def test_boundary_is_incident(self):
        out = signs_from_residuals(np.array([0.0, 5e-10, -5e-10]), EPS)
        assert list(out) == [INCIDENT] * 3


class TestPositionVector:
    """Residuals of one point against a plane family, and what a query pays for them."""

    PLANES = np.eye(2)

    def test_no_planes_gives_empty(self):
        assert kernels.residuals_point(np.empty((0, 2)), np.array([1.0, 2.0])).shape == (0,)

    def test_hand_values(self):
        r = kernels.residuals_point(self.PLANES, np.array([7.0, 3.0]))
        assert np.allclose(r, [8.0, 4.0])

    def test_length_matches_plane_count(self):
        rng = np.random.default_rng(0)
        planes = rng.standard_normal((7, 4))
        assert kernels.residuals_point(planes, rng.standard_normal(4)).shape == (7,)

    def test_costs_exactly_nq(self):
        rng = np.random.default_rng(1)
        for q, n in [(1, 1), (3, 5), (10, 2)]:
            store = empty_store(rng.standard_normal((q, n)), n)
            c = OpCounters()
            repository.query(store, int(rng.integers(10**n)), c)
            assert c.multiplications == n * q
            assert c.additions == n * q

    def test_n_points_cost_exactly_n_times_nq(self):
        rng = np.random.default_rng(2)
        q, n, reps = 6, 4, 25
        store = empty_store(rng.standard_normal((q, n)), n)
        c = OpCounters()
        for _ in range(reps):
            repository.query(store, int(rng.integers(10**n)), c)
        assert c.multiplications == reps * n * q


class TestOrientationVector:
    """A point's sign vector: the positive sides of its residuals, packed."""

    def test_hand_signs(self):
        r = kernels.residuals_point(np.eye(2), np.array([7.0, 3.0]))
        assert pack_sign_bits(r > EPS) == 0b11

    def test_empty_family(self):
        # the first value inserted into an empty store meets no plane
        repo = repository.build([], 3, 0)
        repository.insert(repo, [5])
        [(value, _, ov)] = repo.entries()
        assert (value, len(ov), ov.bits) == (5, 0, 0)

    def test_incident_point_raises(self):
        # stored points at residuals +2e-9 and -2e-9 pin the plane x = 2: every
        # rescale that clears the offered point x = 2 flips or bands one of them
        state = state_with_planes([-0.5], 1)
        state._add_point(np.array([2.0 - 4e-9]), 1)
        state._add_point(np.array([2.0 + 4e-9]), 0)
        with pytest.raises(IncidentPointError):
            offer(state, np.array([2.0]))

    def test_counts_sign_evals(self):
        c = OpCounters()
        repository.query(empty_store(np.eye(2), 2), 37, c)  # the point (7, 3)
        assert c.sign_evals == 2
        assert c.multiplications == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_components_are_signs_of_residuals_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 15))
        planes = rng.standard_normal((q, n))
        p = rng.uniform(1.0, 9.0, size=n)
        r = kernels.residuals_point(planes, p)
        if np.any(np.abs(r) <= EPS):
            pytest.skip("degenerate draw")
        packed = pack_sign_bits(r > EPS)
        bits = [(packed >> (q - 1 - i)) & 1 for i in range(q)]
        assert bits == (np.sign(r) > 0).astype(int).tolist()
        _, keys, clear = state_with_planes(planes, n)._evaluate(p[None, :])
        assert clear == 1 and separator._key_int(keys[0], q) == packed


class TestPackedSignVectors:
    def test_pack_msb_first(self):
        assert pack_sign_bits(np.array([True, False, True])) == 0b101
        assert pack_sign_bits(np.array([], dtype=bool)) == 0

    @pytest.mark.parametrize("q", [1, 7, 8, 9, 63, 64, 65, 166])
    def test_pack_matches_string_reference(self, q):
        rng = np.random.default_rng(q)
        cases = [np.ones(q, dtype=bool), np.zeros(q, dtype=bool)]
        cases += [rng.random(q) < 0.5 for _ in range(20)]
        for bits in cases:
            expect = int("".join("1" if b else "0" for b in bits), 2)
            assert pack_sign_bits(bits) == expect
            assert pack_sign_bits(bits.astype(np.uint8)) == expect

    def test_signs_round_trip(self):
        signs = np.array([1, -1, 1, 1, -1])
        packed = pack_sign_bits(signs > 0)
        assert packed == 0b10110
        assert [1 if (packed >> (4 - i)) & 1 else -1 for i in range(5)] == list(signs)

    def test_append_is_shift_or(self):
        # a new plane's sign lands below the old ones, which stay a prefix
        signs = np.array([1, -1])
        packed = pack_sign_bits(signs > 0)
        grown = pack_sign_bits(np.append(signs, 1) > 0)
        assert grown == (packed << 1) | 1
        assert grown >> 1 == packed

    def test_dictionary_order_is_integer_order(self):
        a = pack_sign_bits(np.array([-1, 1, 1]) > 0)
        b = pack_sign_bits(np.array([1, -1, -1]) > 0)
        assert a < b  # (-1,...) sorts before (+1,...)

    def test_hex_round_trip(self):
        # a saved entry line holds its address as the hex of the packed key
        repo = repository.build([2, 3, 5, 7, 11, 13], 2, 1)
        buf = io.StringIO()
        repository.save(repo, buf)
        rows = [line.split() for line in buf.getvalue().splitlines() if line.startswith("entry ")]
        assert ({int(value): int(key, 16) for _, value, key in rows}
                == {value: ov.bits for value, _, ov in repo.entries()})

    def test_incident_signs_rejected(self):
        # a point inside the band of any plane gets no key: its plane is nudged first
        state = state_with_planes([[-0.5, 0.0], [0.0, 1.0]], 2)  # x = 2 and y = -1
        _, keys, clear = state._evaluate(np.array([[2.0, 5.0], [3.0, 5.0]]))
        assert clear == 0 and separator._key_int(keys[1], 2) == 0b01

    def test_signs_from_residuals_band(self):
        out = signs_from_residuals(np.array([1.0, -2.0, 1e-12]), EPS)
        assert list(out) == [1, -1, INCIDENT]


class TestFitPlaneThrough:
    def test_unique_two_point_fit(self):
        alpha = fit_plane_through([np.array([2.0, 0.0]), np.array([0.0, 2.0])], 2, 0)
        assert np.allclose(alpha, [-0.5, -0.5])

    def test_underdetermined_satisfies_constraint(self):
        alpha = fit_plane_through([np.array([1.0, 1.0])], 2, 42)
        assert abs(1.0 + alpha.sum()) < 1e-9

    def test_underdetermined_is_seed_reproducible(self):
        a = fit_plane_through([np.array([1.0, 1.0])], 2, 7)
        b = fit_plane_through([np.array([1.0, 1.0])], 2, 7)
        assert np.array_equal(a, b)

    def test_scaled_copies_are_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            fit_plane_through([np.array([1.0, 1.0]), np.array([2.0, 2.0])], 2, 0)

    def test_origin_midpoint_is_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            fit_plane_through([np.array([0.0, 0.0])], 2, 0)

    def test_inconsistent_fit_reports_the_rank(self):
        # four midpoints in R^6 spanning a plane, with no affine dependency
        rng = np.random.default_rng(3)
        mids = (rng.integers(0, 10, (4, 2)) @ rng.integers(0, 10, (2, 6))).astype(float)
        with pytest.raises(InconsistentSystemError) as info:
            fit_plane_through(mids, 6, 0)
        assert info.value.rank == np.linalg.matrix_rank(mids) == 2

    def test_failed_verification_reports_no_rank(self):
        # the second pivot (9e-5) falls under the rank tolerance of the first
        # (1e6) and is dropped, so the elimination reports a consistent
        # system; the free coefficient times that entry then misses the
        # second equation by more than the verification tolerance
        mids = [np.array([1e6, 0.0]), np.array([1e6, 9e-5])]
        with pytest.raises(InconsistentSystemError, match="verification") as info:
            fit_plane_through(mids, 2, 0)
        assert info.value.rank is None

    def test_midpoint_count_bounds(self):
        with pytest.raises(ValueError):
            fit_plane_through(
                [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])], 2, 0
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_constraint_residuals_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        mids = rng.uniform(1.0, 9.0, size=(k, n))
        alpha = fit_plane_through(mids, n, rng)
        resid = np.abs(1.0 + mids @ alpha)
        scale = 1.0 + np.abs(mids) @ np.abs(alpha)
        assert np.all(resid <= 1e-6 * scale)

    @pytest.mark.parametrize("seed", range(12))
    def test_midpoint_fit_splits_every_segment(self, seed):
        # a plane through each segment midpoint gives the endpoints
        # residuals of opposite sign
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 10.0, size=(n, n))
        b = rng.uniform(0.0, 10.0, size=(n, n))
        mids = 0.5 * (a + b)
        alpha = fit_plane_through(mids, n, rng)
        ra = 1.0 + a @ alpha
        rb = 1.0 + b @ alpha
        assert np.all(np.abs(ra) > 1e-12)
        assert np.all(np.sign(ra) == -np.sign(rb))

    def test_matches_least_squares_on_full_rank_systems(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            mids = rng.uniform(1.0, 9.0, size=(n, n))
            expected, *_ = np.linalg.lstsq(mids, -np.ones(n), rcond=None)
            got = fit_plane_through(mids, n, rng)
            assert np.allclose(got, expected, atol=1e-8)


class TestShiftMidpoints:
    def test_zero_delta_is_identity(self):
        mids = np.array([[1.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(shift_midpoints(mids, np.array([1.0, 0.0]), 0.0), mids)

    def test_axis_shift(self):
        out = shift_midpoints([np.array([1.0, 1.0])], np.array([1.0, 0.0]), 0.5)
        assert np.allclose(out, [[1.5, 1.0]])

    def test_direction_is_normalised(self):
        out = shift_midpoints([np.array([0.0, 0.0])], np.array([0.0, 4.0]), 1.0)
        assert np.allclose(out, [[0.0, 1.0]])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            shift_midpoints([np.array([1.0, 1.0])], np.array([0.0, 0.0]), 0.5)

    def test_shift_then_refit_clears_offending_point(self):
        # the line through (1.5, 0.5) and (3.5, 2.5) is y = x - 1, which
        # passes exactly through the digit point (2, 1)
        mids = [np.array([1.5, 0.5]), np.array([3.5, 2.5])]
        alpha = fit_plane_through(mids, 2, 0)
        offender = np.array([2.0, 1.0])
        assert abs(1.0 + alpha @ offender) <= 1e-9
        shifted = shift_midpoints(mids, alpha, 1e-3)
        refit = fit_plane_through(shifted, 2, 0)
        assert abs(1.0 + refit @ offender) > 1e-9


def test_package_exports_exactly_the_public_api():
    # planes are coefficient arrays: no Plane, sign_of, evaluate_residual,
    # position_vector, orientation_vector or INCIDENT at the top level
    expected = {
        "OpCounters", "PlanesepError", "DimensionMismatchError", "DuplicatePointError",
        "IncidentPointError", "InconsistentSystemError", "GeometryExhaustedError",
        "DigitOverflowError", "NotADigitPointError", "RepositoryFormatError",
        "OrientationVector", "fit_plane_through", "shift_midpoints",
        "SeparationState", "init", "offer", "emit_plane", "finalize", "run",
        "IntegerMapping", "Repository", "map_to_point", "point_to_integer",
        "build", "query", "insert", "grow_dimension", "save", "load", "__version__",
    }
    assert set(planesep.__all__) == expected
    assert len(planesep.__all__) == len(expected)
    for name in planesep.__all__:
        assert getattr(planesep, name) is not None
