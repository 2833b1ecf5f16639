"""Path-loss model and range helper tests."""

import numpy as np
import pytest

from repro.channel.pathloss import LogDistancePathLoss, coverage_range_m, cs_range_m
from repro.config import MacConfig, RadioConfig


class TestLogDistance:
    def test_anchored_at_free_space(self):
        radio = RadioConfig()
        model = LogDistancePathLoss.from_radio(radio)
        assert model.loss_db(radio.reference_distance_m) == pytest.approx(
            model.reference_loss_db
        )

    def test_monotonic_in_distance(self):
        model = LogDistancePathLoss.from_radio(RadioConfig())
        d = np.array([1.0, 2.0, 5.0, 20.0])
        losses = model.loss_db(d)
        assert np.all(np.diff(losses) > 0)

    def test_exponent_slope(self):
        model = LogDistancePathLoss(4.0, 1.0, 40.0)
        assert model.loss_db(10.0) - model.loss_db(1.0) == pytest.approx(40.0)

    def test_distances_below_reference_clamped(self):
        model = LogDistancePathLoss.from_radio(RadioConfig())
        assert model.loss_db(0.01) == pytest.approx(model.loss_db(1.0))

    def test_inverse_roundtrip(self):
        model = LogDistancePathLoss.from_radio(RadioConfig())
        loss = float(model.loss_db(12.5))
        assert model.distance_for_loss(loss) == pytest.approx(12.5, rel=1e-9)

    def test_inverse_clamps_at_reference(self):
        model = LogDistancePathLoss.from_radio(RadioConfig())
        assert model.distance_for_loss(0.0) == model.reference_distance_m


class TestRanges:
    def test_coverage_shrinks_with_higher_snr_requirement(self):
        radio = RadioConfig()
        assert coverage_range_m(radio, 15.0) < coverage_range_m(radio, 5.0)

    def test_coverage_grows_with_power(self):
        low = RadioConfig(per_antenna_power_dbm=0.0)
        high = RadioConfig(per_antenna_power_dbm=10.0)
        assert coverage_range_m(high) > coverage_range_m(low)

    def test_walls_shrink_coverage(self):
        no_walls = RadioConfig(wall_loss_db=0.0)
        walls = RadioConfig(wall_loss_db=6.0, wall_spacing_m=5.0)
        assert coverage_range_m(walls) < coverage_range_m(no_walls)

    def test_sensing_exponent_extends_cs_range(self):
        mac = MacConfig()
        flat = RadioConfig(sensing_pathloss_exponent=4.0, pathloss_exponent=4.0)
        elevated = RadioConfig(sensing_pathloss_exponent=3.0, pathloss_exponent=4.0)
        assert cs_range_m(elevated, mac) > cs_range_m(flat, mac)

    def test_range_solver_consistency(self):
        # At the returned coverage distance, the median SNR equals the target.
        radio = RadioConfig(wall_loss_db=0.0)
        from repro import units

        d = coverage_range_m(radio, 5.0)
        model = LogDistancePathLoss.from_radio(radio)
        snr = (
            radio.per_antenna_power_dbm
            - float(model.loss_db(d))
            - units.mw_to_dbm(radio.noise_mw)
        )
        assert snr == pytest.approx(5.0, abs=1e-6)
