"""MCS table and sounding overhead tests."""

import numpy as np
import pytest

from repro.phy.mcs import MCS_TABLE, highest_mcs_for_snr, rate_bps_hz_for_snr
from repro.phy.sounding import sounding_overhead_us


class TestMcs:
    def test_table_rates_increase(self):
        rates = [m.data_rate_mbps for m in MCS_TABLE]
        assert rates == sorted(rates)

    def test_table_snrs_increase(self):
        snrs = [m.min_snr_db for m in MCS_TABLE]
        assert snrs == sorted(snrs)

    def test_below_mcs0_returns_none(self):
        assert highest_mcs_for_snr(-5.0) is None
        assert rate_bps_hz_for_snr(-5.0) == 0.0

    def test_very_high_snr_gets_top_mcs(self):
        assert highest_mcs_for_snr(50.0).index == MCS_TABLE[-1].index

    def test_boundary_inclusive(self):
        entry = MCS_TABLE[3]
        assert highest_mcs_for_snr(entry.min_snr_db).index == entry.index

    def test_rate_bps_hz_consistency(self):
        entry = MCS_TABLE[4]
        assert entry.rate_bps_hz == pytest.approx(entry.data_rate_mbps * 1e6 / 20e6)


class TestSounding:
    def test_grows_with_clients(self):
        assert sounding_overhead_us(4, 4) > sounding_overhead_us(1, 4)

    def test_grows_with_antennas(self):
        assert sounding_overhead_us(2, 8) > sounding_overhead_us(2, 2)

    def test_order_of_magnitude(self):
        # A 4-client sounding exchange is a few hundred microseconds.
        total = sounding_overhead_us(4, 4)
        assert 300 < total < 1500

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sounding_overhead_us(0, 4)


class TestVectorizedMcsMapping:
    """The searchsorted mapping must agree with the scalar table walk
    everywhere, including exactly on thresholds and below MCS 0."""

    def test_matches_scalar_on_thresholds_and_between(self):
        from repro.phy.mcs import (
            MCS_TABLE,
            highest_mcs_for_snr,
            mcs_index_for_snr,
            rate_bps_hz_for_snr,
            rate_bps_hz_for_snr_array,
        )

        probes = [entry.min_snr_db for entry in MCS_TABLE]
        probes += [p - 1e-9 for p in probes] + [p + 0.5 for p in probes]
        probes += [-50.0, 0.0, 100.0]
        snrs = np.asarray(probes)
        indices = mcs_index_for_snr(snrs)
        rates = rate_bps_hz_for_snr_array(snrs)
        for snr, index, rate in zip(probes, indices, rates):
            entry = highest_mcs_for_snr(snr)
            assert index == (-1 if entry is None else entry.index)
            assert rate == rate_bps_hz_for_snr(snr)

    def test_table_stays_sorted_for_searchsorted(self):
        from repro.phy.mcs import MCS_TABLE

        thresholds = [entry.min_snr_db for entry in MCS_TABLE]
        assert thresholds == sorted(thresholds)

    def test_preserves_input_shape(self):
        from repro.phy.mcs import rate_bps_hz_for_snr_array

        stacked = np.full((3, 4), 18.0)
        assert rate_bps_hz_for_snr_array(stacked).shape == (3, 4)
