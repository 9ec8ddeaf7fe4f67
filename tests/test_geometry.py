"""Residuals, signs, sign-vector packing, and midpoint-constrained fits."""

import numpy as np
import pytest

from planesep import (
    INCIDENT,
    DimensionMismatchError,
    IncidentPointError,
    InconsistentSystemError,
    OpCounters,
    OrientationVector,
    Plane,
    evaluate_residual,
    fit_plane_through,
    orientation_vector,
    position_vector,
    shift_midpoints,
    sign_of,
)
from planesep.geometry import pack_sign_bits, signs_from_residuals


class TestEvaluateResidual:
    def test_constant_term_only(self):
        assert evaluate_residual(Plane(np.array([1.0])), np.array([0.0])) == 1.0

    def test_axis_plane(self):
        r = evaluate_residual(Plane(np.array([1.0, 0.0])), np.array([7.0, 3.0]))
        assert r == 8.0

    def test_fractional_coefficients(self):
        r = evaluate_residual(Plane(np.array([-2.0 / 7.0, 0.0])), np.array([7.0, 3.0]))
        assert r == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_residual(Plane(np.array([1.0, 2.0])), np.array([1.0]))

    def test_counts_n_mults_and_adds(self):
        c = OpCounters()
        evaluate_residual(Plane(np.array([1.0, 2.0, 3.0])), np.array([1.0, 1.0, 1.0]), c)
        assert c.multiplications == 3
        assert c.additions == 3


class TestSignOf:
    def test_positive(self):
        assert sign_of(8.0, 1e-9) == 1

    def test_negative(self):
        assert sign_of(-1.0, 1e-9) == -1

    def test_boundary_is_incident(self):
        assert sign_of(0.0, 1e-9) == INCIDENT
        assert sign_of(5e-10, 1e-9) == INCIDENT
        assert sign_of(-5e-10, 1e-9) == INCIDENT

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            sign_of(1.0, 0.0)


class TestPositionVector:
    PLANES = [Plane(np.array([1.0, 0.0])), Plane(np.array([0.0, 1.0]))]

    def test_no_planes_gives_empty(self):
        assert position_vector([], np.array([1.0, 2.0])).shape == (0,)

    def test_hand_values(self):
        r = position_vector(self.PLANES, np.array([7.0, 3.0]))
        assert np.allclose(r, [8.0, 4.0])

    def test_length_matches_plane_count(self):
        rng = np.random.default_rng(0)
        planes = [Plane(rng.standard_normal(4)) for _ in range(7)]
        assert position_vector(planes, rng.standard_normal(4)).shape == (7,)

    def test_costs_exactly_nq(self):
        rng = np.random.default_rng(1)
        for q, n in [(1, 1), (3, 5), (10, 2)]:
            planes = [Plane(rng.standard_normal(n)) for _ in range(q)]
            c = OpCounters()
            position_vector(planes, rng.standard_normal(n), c)
            assert c.multiplications == n * q
            assert c.additions == n * q

    def test_n_points_cost_exactly_n_times_nq(self):
        rng = np.random.default_rng(2)
        q, n, reps = 6, 4, 25
        planes = [Plane(rng.standard_normal(n)) for _ in range(q)]
        c = OpCounters()
        for _ in range(reps):
            position_vector(planes, rng.standard_normal(n), c)
        assert c.multiplications == reps * n * q


class TestOrientationVector:
    def test_hand_signs(self):
        planes = [Plane(np.array([1.0, 0.0])), Plane(np.array([0.0, 1.0]))]
        ov = orientation_vector(planes, np.array([7.0, 3.0]), 1e-9)
        assert list(ov.signs()) == [1, 1]

    def test_empty_family(self):
        ov = orientation_vector([], np.array([1.0]), 1e-9)
        assert len(ov) == 0

    def test_incident_point_raises(self):
        planes = [Plane(np.array([-0.5, 0.0]))]  # x = 2
        with pytest.raises(IncidentPointError):
            orientation_vector(planes, np.array([2.0, 5.0]), 1e-9)

    def test_counts_sign_evals(self):
        planes = [Plane(np.array([1.0, 0.0])), Plane(np.array([0.0, 1.0]))]
        c = OpCounters()
        orientation_vector(planes, np.array([7.0, 3.0]), 1e-9, c)
        assert c.sign_evals == 2
        assert c.multiplications == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_components_are_signs_of_residuals_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 15))
        planes = [Plane(rng.standard_normal(n)) for _ in range(q)]
        p = rng.uniform(1.0, 9.0, size=n)
        r = position_vector(planes, p)
        if np.any(np.abs(r) <= 1e-9):
            pytest.skip("degenerate draw")
        ov = orientation_vector(planes, p, 1e-9)
        assert np.array_equal(ov.signs(), np.sign(r).astype(np.int8))


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
        ov = OrientationVector.from_signs(np.array([1, -1, 1, 1, -1]))
        assert list(ov.signs()) == [1, -1, 1, 1, -1]
        assert ov.bits == 0b10110

    def test_append_is_shift_or(self):
        ov = OrientationVector.from_signs(np.array([1, -1]))
        grown = ov.append(1)
        assert grown.length == 3
        assert grown.bits == (ov.bits << 1) | 1
        assert grown.prefix(2) == ov

    def test_dictionary_order_is_integer_order(self):
        a = OrientationVector.from_signs(np.array([-1, 1, 1]))
        b = OrientationVector.from_signs(np.array([1, -1, -1]))
        assert a < b  # (-1,...) sorts before (+1,...)
        with pytest.raises(ValueError):
            _ = a < OrientationVector(2, 0)

    def test_hex_round_trip(self):
        ov = OrientationVector.from_signs(np.array([1, 1, -1, 1]))
        assert OrientationVector.from_hex(ov.to_hex(), 4) == ov

    def test_incident_signs_rejected(self):
        with pytest.raises(ValueError):
            OrientationVector.from_signs(np.array([1, 0, -1]))

    def test_signs_from_residuals_band(self):
        out = signs_from_residuals(np.array([1.0, -2.0, 1e-12]), 1e-9)
        assert list(out) == [1, -1, INCIDENT]


class TestFitPlaneThrough:
    def test_unique_two_point_fit(self):
        plane = fit_plane_through([np.array([2.0, 0.0]), np.array([0.0, 2.0])], 2, 0)
        assert np.allclose(plane.alpha, [-0.5, -0.5])
        assert plane.saturated

    def test_underdetermined_satisfies_constraint(self):
        plane = fit_plane_through([np.array([1.0, 1.0])], 2, 42)
        assert not plane.saturated
        assert abs(1.0 + plane.alpha.sum()) < 1e-9

    def test_underdetermined_is_seed_reproducible(self):
        a = fit_plane_through([np.array([1.0, 1.0])], 2, 7).alpha
        b = fit_plane_through([np.array([1.0, 1.0])], 2, 7).alpha
        assert np.array_equal(a, b)

    def test_scaled_copies_are_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            fit_plane_through([np.array([1.0, 1.0]), np.array([2.0, 2.0])], 2, 0)

    def test_origin_midpoint_is_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            fit_plane_through([np.array([0.0, 0.0])], 2, 0)

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
        plane = fit_plane_through(mids, n, rng)
        resid = np.abs(1.0 + mids @ plane.alpha)
        scale = 1.0 + np.abs(mids) @ np.abs(plane.alpha)
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
        plane = fit_plane_through(mids, n, rng)
        ra = 1.0 + a @ plane.alpha
        rb = 1.0 + b @ plane.alpha
        assert np.all(np.abs(ra) > 1e-12)
        assert np.all(np.sign(ra) == -np.sign(rb))

    def test_matches_least_squares_on_full_rank_systems(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            mids = rng.uniform(1.0, 9.0, size=(n, n))
            expected, *_ = np.linalg.lstsq(mids, -np.ones(n), rcond=None)
            got = fit_plane_through(mids, n, rng).alpha
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
        plane = fit_plane_through(mids, 2, 0)
        offender = np.array([2.0, 1.0])
        assert abs(1.0 + plane.alpha @ offender) <= 1e-9
        shifted = shift_midpoints(mids, plane.alpha, 1e-3)
        refit = fit_plane_through(shifted, 2, 0)
        assert abs(1.0 + refit.alpha @ offender) > 1e-9


class TestPlaneType:
    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(ValueError):
            Plane(np.zeros(3))

    def test_dimension_property(self):
        assert Plane(np.array([1.0, 2.0, 3.0])).dimension == 3
