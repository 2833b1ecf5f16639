"""Experiment plumbing tests (common helpers)."""

import numpy as np
import pytest

from repro.api import capacity_for
from repro.channel.batch import ChannelBatch
from repro.experiments.common import (
    ExperimentResult,
    greedy_siso_snrs_batch,
    require_moving,
    sweep_on_batch_axis,
)
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


@pytest.fixture(scope="module")
def scenario():
    return single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[2])


def _channel(scenario, seed):
    return ChannelBatch(scenario.deployment, scenario.radio, [seed]).channel_matrices()[0]


def _snr_batch_of_one(scenario, seed):
    """``(1, n_clients, n_antennas)`` link SNRs: a batch of one topology."""
    return ChannelBatch(scenario.deployment, scenario.radio, [seed]).snr_db_map()


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


class TestSweepOnBatchAxis:
    def test_items_are_seed_major_product(self):
        seen = {}

        def evaluate(item_seeds, item_points):
            seen["seeds"], seen["points"] = item_seeds, item_points
            return {
                "x": [seed * 10 + speed for seed, (__, speed) in zip(item_seeds, item_points)]
            }

        columns = sweep_on_batch_axis(
            [7, 9], evaluate, policies=["a", "b"], speeds=[1, 2, 3]
        )
        assert seen["seeds"] == [7] * 6 + [9] * 6
        assert seen["points"][:6] == [
            ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)
        ]
        assert seen["points"][6:] == seen["points"][:6]
        # (n_seeds, n_policies, n_speeds), as floats.
        assert columns["x"].shape == (2, 2, 3)
        assert columns["x"].dtype == float
        np.testing.assert_array_equal(columns["x"][1, 0], [91.0, 92.0, 93.0])
        np.testing.assert_array_equal(columns["x"][0, 1], [71.0, 72.0, 73.0])

    @pytest.mark.parametrize("empty", ["loads", "speeds"])
    def test_empty_axis_named(self, empty):
        axes = {"loads": [1.0], "speeds": [2.0], empty: []}

        def evaluate(item_seeds, item_points):
            raise AssertionError("an empty sweep must not reach the engine")

        with pytest.raises(ValueError, match=f"{empty} is empty"):
            sweep_on_batch_axis([1], evaluate, **axes)


class TestRequireMoving:
    def test_static_names_the_calling_experiment(self):
        with pytest.raises(ValueError, match="my_sweep sweeps client speed"):
            require_moving("my_sweep", "static")

    def test_speedless_model_names_the_calling_experiment(self):
        with pytest.raises(ValueError, match="my_sweep sweeps client speed.*speed_mps"):
            require_moving("my_sweep", "trace")

    def test_moving_model_accepted(self):
        require_moving("my_sweep", "gauss_markov")
