"""Virtual packet tagging tests (paper §3.2.4)."""

import numpy as np
import pytest

from repro.core.tagging import antenna_preferences, tag_mask


class TestPreferences:
    def test_descending_rssi_order(self):
        rssi = np.array([[-60.0, -50.0, -70.0]])
        prefs = antenna_preferences(rssi)
        np.testing.assert_array_equal(prefs[0], [1, 0, 2])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            antenna_preferences(np.array([-60.0, -50.0]))

    def test_stable_ties(self):
        rssi = np.array([[-60.0, -60.0, -70.0]])
        prefs = antenna_preferences(rssi)
        np.testing.assert_array_equal(prefs[0], [0, 1, 2])


class TestTagMask:
    RSSI = np.array(
        [
            [-50.0, -60.0, -70.0, -80.0],  # client 0 prefers antennas 0, 1
            [-80.0, -50.0, -60.0, -70.0],  # client 1 prefers antennas 1, 2
            [-70.0, -80.0, -50.0, -60.0],  # client 2 prefers antennas 2, 3
            [-60.0, -70.0, -80.0, -50.0],  # client 3 prefers antennas 3, 0
        ]
    )

    def test_two_tags_per_client(self):
        tags = tag_mask(self.RSSI, tag_width=2)
        np.testing.assert_array_equal(tags.sum(axis=1), 2)

    def test_tags_are_top_rssi(self):
        tags = tag_mask(self.RSSI, tag_width=2)
        assert tags[0, 0] and tags[0, 1]
        assert tags[3, 3] and tags[3, 0]

    def test_clients_tagged_to(self):
        tags = tag_mask(self.RSSI, tag_width=2)
        np.testing.assert_array_equal(np.flatnonzero(tags[:, 0]), [0, 3])

    def test_best_antenna(self):
        assert antenna_preferences(self.RSSI)[2, 0] == 2

    def test_tag_width_bounds(self):
        with pytest.raises(ValueError, match="tag_width"):
            tag_mask(self.RSSI, tag_width=0)
        with pytest.raises(ValueError, match="tag_width"):
            tag_mask(self.RSSI, tag_width=5)
        with pytest.raises(ValueError, match="tag_width"):
            tag_mask(self.RSSI[None, :, :2], tag_width=3)

    def test_full_width_tags_everything(self):
        tags = tag_mask(self.RSSI, tag_width=4)
        assert tags.all()

    def test_ties_go_to_the_lower_antenna(self):
        tags = tag_mask(np.array([[-60.0, -60.0, -60.0, -70.0]]), tag_width=2)
        np.testing.assert_array_equal(tags, [[True, True, False, False]])

    def test_stacked_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(3)
        rssi = rng.integers(-80, -60, size=(5, 6, 4)).astype(float)
        stacked = tag_mask(rssi, tag_width=2)
        assert stacked.shape == rssi.shape
        for b in range(5):
            for c in range(6):
                np.testing.assert_array_equal(
                    stacked[b, c], tag_mask(rssi[b, c][None], tag_width=2)[0]
                )
