"""Channel trace record/replay tests."""

import numpy as np
import pytest

from repro.channel.batch import ChannelBatch
from repro.channel.traces import ChannelTrace, record_trace
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


@pytest.fixture()
def model():
    scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seed=3)
    return ChannelBatch([scenario.deployment], scenario.radio, seeds=[3])


class TestRecord:
    def test_shape(self, model):
        trace = record_trace(model, n_blocks=5, block_duration_s=0.02)
        assert trace.h.shape == (5, 4, 4)
        assert trace.n_blocks == 5
        assert trace.n_clients == 4
        assert trace.n_antennas == 4

    def test_blocks_differ(self, model):
        trace = record_trace(model, n_blocks=3, block_duration_s=0.05)
        assert not np.allclose(trace.block(0), trace.block(2))

    def test_advances_model_time(self, model):
        record_trace(model, n_blocks=4, block_duration_s=0.02)
        assert model.time_s == pytest.approx(0.06)

    def test_rejects_zero_blocks(self, model):
        with pytest.raises(ValueError):
            record_trace(model, n_blocks=0, block_duration_s=0.02)

    def test_first_block_is_the_current_channel(self, model):
        expected = model.channel_matrices()[0].copy()
        trace = record_trace(model, n_blocks=2, block_duration_s=0.02)
        np.testing.assert_array_equal(trace.block(0), expected)
        np.testing.assert_array_equal(trace.block(1), model.channel_matrices()[0])

    def test_rejects_multi_item_batches(self):
        scenarios = [
            single_ap_scenario(office_b(), AntennaMode.DAS, seed=s) for s in (1, 2)
        ]
        batch = ChannelBatch(
            [s.deployment for s in scenarios], scenarios[0].radio, seeds=[1, 2]
        )
        with pytest.raises(ValueError, match="batch of one"):
            record_trace(batch, n_blocks=2, block_duration_s=0.02)

    def test_iteration(self, model):
        trace = record_trace(model, n_blocks=3, block_duration_s=0.02)
        blocks = list(trace)
        assert len(blocks) == 3


class TestSerialization:
    def test_roundtrip(self, model, tmp_path):
        trace = record_trace(
            model, n_blocks=4, block_duration_s=0.02, metadata={"scenario": "unit"}
        )
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ChannelTrace.load(path)
        np.testing.assert_array_equal(loaded.h, trace.h)
        assert loaded.block_duration_s == trace.block_duration_s
        assert loaded.noise_mw == trace.noise_mw
        assert loaded.metadata["scenario"] == "unit"


class TestValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ChannelTrace(h=np.zeros((2, 2)), block_duration_s=0.02, noise_mw=1e-9)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            ChannelTrace(h=np.zeros((1, 2, 2)), block_duration_s=0.0, noise_mw=1e-9)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            ChannelTrace(h=np.zeros((1, 2, 2)), block_duration_s=0.02, noise_mw=0.0)
