"""Experiment plumbing tests (common helpers)."""

import numpy as np
import pytest

from repro.api import capacity_for
from repro.experiments.common import (
    ExperimentResult,
    batched_channels,
    greedy_siso_snrs_batch,
)
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


@pytest.fixture(scope="module")
def scenario():
    return single_ap_scenario(office_b(), AntennaMode.DAS, seed=2)


def _channel(scenario, seed):
    return batched_channels([scenario], [seed]).channel_matrices()[0]


def _snr_batch_of_one(scenario, seed):
    """``(1, n_clients, n_antennas)`` link SNRs: a batch of one topology."""
    return batched_channels([scenario], [seed]).snr_db_map()


class TestCapacityFor:
    def test_known_precoders(self, scenario):
        h = _channel(scenario, 2)
        for name in ("naive", "balanced", "total_power"):
            assert capacity_for(scenario, h, name) > 0

    def test_total_power_upper_bounds_naive(self, scenario):
        h = _channel(scenario, 2)
        assert capacity_for(scenario, h, "total_power") >= capacity_for(
            scenario, h, "naive"
        )

    def test_unknown_precoder_rejected(self, scenario):
        h = _channel(scenario, 2)
        with pytest.raises(ValueError):
            capacity_for(scenario, h, "magic")


class TestGreedySiso:
    def test_returns_one_snr_per_client(self, scenario):
        snrs = greedy_siso_snrs_batch(_snr_batch_of_one(scenario, 3))
        assert snrs.shape == (1, scenario.deployment.n_clients)

    def test_greedy_order_descending(self, scenario):
        snrs = greedy_siso_snrs_batch(_snr_batch_of_one(scenario, 3))[0]
        assert np.all(np.diff(snrs) <= 1e-9)

    def test_unique_antennas_used(self, scenario):
        # The greedy mapping excludes used antennas: each client's value must
        # come from a distinct antenna, so it cannot exceed the raw best map.
        snr = _snr_batch_of_one(scenario, 3)
        assert greedy_siso_snrs_batch(snr)[0, 0] == pytest.approx(snr.max())


class TestExperimentResult:
    def test_series_required_for_accessors(self):
        result = ExperimentResult(
            name="t", description="d", series={"a": np.array([1.0, 2.0])}
        )
        assert result.median("a") == 1.5
        with pytest.raises(KeyError):
            result.median("missing")
