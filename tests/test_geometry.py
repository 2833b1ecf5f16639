"""Geometry helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import geometry


class TestAsPoints:
    def test_single_point_promoted(self):
        assert geometry.as_points((1.0, 2.0)).shape == (1, 2)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            geometry.as_points([[1.0, 2.0, 3.0]])


class TestDistances:
    def test_known_distance(self):
        d = geometry.pairwise_distances([(0, 0)], [(3, 4)])
        assert d[0, 0] == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, (5, 2))
        d = geometry.pairwise_distances(pts, pts)
        np.testing.assert_allclose(d, d.T)

    def test_min_pairwise_single_point_infinite(self):
        assert geometry.min_pairwise_distance([(0, 0)]) == np.inf

    def test_min_pairwise_known(self):
        pts = [(0, 0), (0, 1), (5, 5)]
        assert geometry.min_pairwise_distance(pts) == pytest.approx(1.0)


class TestRandomSampling:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_annulus_radii_within_bounds(self, seed):
        rng = np.random.default_rng(seed)
        pts = geometry.random_point_in_annulus(rng, (1.0, -2.0), 2.0, 5.0, 40)
        radii = np.linalg.norm(pts - np.array([1.0, -2.0]), axis=1)
        assert np.all(radii >= 2.0 - 1e-9)
        assert np.all(radii <= 5.0 + 1e-9)

    def test_disk_is_annulus_with_zero_inner(self):
        rng = np.random.default_rng(1)
        pts = geometry.random_point_in_disk(rng, (0, 0), 3.0, 50)
        assert np.all(np.linalg.norm(pts, axis=1) <= 3.0 + 1e-9)

    def test_disk_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            geometry.random_point_in_disk(np.random.default_rng(0), (0, 0), 0.0)

    def test_annulus_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            geometry.random_point_in_annulus(np.random.default_rng(0), (0, 0), 5.0, 2.0)

    def test_rect_sampling_in_bounds(self):
        rng = np.random.default_rng(2)
        pts = geometry.rect_points(rng.random((2, 30)), (0, 4), (-2, 2))
        assert np.all((pts[:, 0] >= 0) & (pts[:, 0] <= 4))
        assert np.all((pts[:, 1] >= -2) & (pts[:, 1] <= 2))


class TestSectorRule:
    def test_opposite_points_pass_wide_sector(self):
        assert geometry.sector_angles_ok((0, 0), [(1, 0), (-1, 0)], 60.0)

    def test_clustered_points_fail(self):
        assert not geometry.sector_angles_ok((0, 0), [(1, 0), (1, 0.1)], 60.0)

    def test_single_point_always_ok(self):
        assert geometry.sector_angles_ok((0, 0), [(1, 0)], 60.0)

    def test_four_at_right_angles_pass_sixty(self):
        pts = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert geometry.sector_angles_ok((0, 0), pts, 60.0)

    def test_four_at_right_angles_fail_hundred(self):
        pts = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert not geometry.sector_angles_ok((0, 0), pts, 100.0)

    def test_wraparound_gap_counts(self):
        # 10 and 350 degrees are 20 degrees apart across the wrap.
        pts = [
            (np.cos(np.radians(10)), np.sin(np.radians(10))),
            (np.cos(np.radians(350)), np.sin(np.radians(350))),
        ]
        assert not geometry.sector_angles_ok((0, 0), pts, 60.0)


class TestGrid:
    def test_grid_counts(self):
        pts = geometry.grid_points((0, 1), (0, 1), 0.5)
        assert len(pts) == 9  # 3 x 3 lattice

    def test_grid_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            geometry.grid_points((0, 1), (0, 1), 0.0)

    def test_points_within(self):
        pts = [(0, 0), (2, 0), (0, 3)]
        mask = geometry.points_within(pts, (0, 0), 2.5)
        np.testing.assert_array_equal(mask, [True, True, False])
