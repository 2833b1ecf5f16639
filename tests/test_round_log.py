"""The round engine's columnar :class:`repro.sim.RoundLog`: every item's
columns and packed delays are independent of the batch it ran in, item
masks leave excluded items empty, and full-buffer results keep rejecting
the traffic accessors."""

import numpy as np
import pytest

from repro.sim import RoundLog
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario

ENV = office_b()
SEEDS = [4, 7, 9]
#: One Poisson load per item: light, moderate and past saturation.
LOADS = [{"rate_mbps": 2.0}, {"rate_mbps": 9.0}, {"rate_mbps": 60.0}]
N_ROUNDS = 10

COLUMNS = (
    "capacity_bps_hz", "n_streams", "active_antennas", "per_ap_streams",
    "sounding_us", "arrived_bytes", "served_bytes", "queue_bytes",
    "served_per_client",
)


def _scenario(seeds):
    return single_ap_scenario(ENV, AntennaMode.DAS, seeds=seeds)


def _run(seeds, loads, n_rounds=N_ROUNDS, item_mask=None):
    return RoundBasedEvaluatorBatch(
        _scenario(seeds), MacMode.MIDAS, seeds=seeds,
        traffic="poisson", traffic_kwargs=loads,
    ).run(n_rounds, item_mask=item_mask)


def _assert_same_item(got, want):
    """Every column, every round's packed delays and every accessor."""
    for name in COLUMNS:
        assert np.array_equal(got.column(name), want.column(name)), name
    for r in range(got.log.n_rounds):
        got_span = got.log.delay_span(got.item, r)
        want_span = want.log.delay_span(want.item, r)
        assert np.array_equal(got.log.delays_s[got_span], want.log.delays_s[want_span])
        assert np.array_equal(
            got.log.delay_categories[got_span], want.log.delay_categories[want_span]
        )
    assert np.array_equal(got.delay_samples_s, want.delay_samples_s)
    assert np.array_equal(got.delay_category_samples, want.delay_category_samples)
    for name in (
        "mean_capacity_bps_hz", "mean_streams", "throughput_mbps", "mean_delay_s",
        "mean_queue_bytes", "max_queue_bytes", "mean_sounding_us", "total_sounding_us",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.per_client_served_bytes(), want.per_client_served_bytes())


@pytest.fixture(scope="module")
def alone():
    return [_run([seed], [load])[0] for seed, load in zip(SEEDS, LOADS)]


class TestBatchComposition:
    def test_each_item_matches_its_batch_of_one(self, alone):
        batch = _run(SEEDS, LOADS)
        assert all(result.log is batch[0].log for result in batch)
        for result, want in zip(batch, alone):
            _assert_same_item(result, want)
        # The loads differ, so the items really are distinct runs.
        offered = [result.offered_bytes for result in batch]
        assert offered[0] < offered[1] < offered[2]
        assert batch[2].delay_samples_s.size > 0

    def test_item_mask_leaves_excluded_items_empty(self, alone):
        batch = _run(SEEDS, LOADS, item_mask=[True, False, True])
        assert batch[1] is None
        for index in (0, 2):
            _assert_same_item(batch[index], alone[index])
        log = batch[0].log
        for name in COLUMNS:
            assert not np.any(getattr(log, name)[:, 1]), name
        excluded = log.delay_span(1)
        assert excluded.start == excluded.stop

    def test_delay_offsets_pack_item_major_rounds(self):
        batch = _run(SEEDS, LOADS)
        log = batch[0].log
        offsets = log.delay_offsets
        assert offsets.shape == (len(SEEDS) * N_ROUNDS + 1,)
        assert offsets[0] == 0 and offsets[-1] == log.delays_s.size
        assert np.all(np.diff(offsets) >= 0)
        for result in batch:
            rounds = [
                log.delays_s[log.delay_span(result.item, r)] for r in range(N_ROUNDS)
            ]
            assert np.array_equal(np.concatenate(rounds), result.delay_samples_s)

    def test_second_run_logs_only_its_own_rounds(self):
        # One AP: the primary-AP rotation restarts in the second run without
        # changing anything, so run(6) then run(4) replays run(10).
        evaluator = RoundBasedEvaluatorBatch(
            _scenario(SEEDS), MacMode.MIDAS, seeds=SEEDS,
            traffic="poisson", traffic_kwargs=LOADS,
        )
        evaluator.run(6)
        second = evaluator.run(4)
        whole = _run(SEEDS, LOADS)
        for tail, full in zip(second, whole):
            for name in COLUMNS:
                assert np.array_equal(tail.column(name), full.column(name)[6:]), name
            for r in range(4):
                assert np.array_equal(
                    tail.log.delays_s[tail.log.delay_span(tail.item, r)],
                    full.log.delays_s[full.log.delay_span(full.item, 6 + r)],
                )


class TestEvaluateRound:
    def test_returns_one_row_of_batch_arrays(self):
        evaluator = RoundBasedEvaluatorBatch(
            _scenario(SEEDS), MacMode.MIDAS, seeds=SEEDS,
            traffic="poisson", traffic_kwargs=LOADS,
        )
        row = evaluator.evaluate_round(0, [True, False, True])
        assert set(row) == set(COLUMNS)
        for name, values in row.items():
            assert values.shape[0] == len(SEEDS), name
            assert not np.any(values[1]), name
        n_clients = _scenario([4]).deployment.n_clients
        log = RoundLog(1, len(SEEDS), 1, n_clients, 1e-3)
        log.record(0, row)
        assert np.array_equal(log.per_ap_streams[0], row["per_ap_streams"])


class TestFullBuffer:
    def test_traffic_accessors_raise_and_columns_are_absent(self):
        [result] = RoundBasedEvaluatorBatch(
            _scenario([4]), MacMode.MIDAS, seeds=[4]
        ).run(3)
        assert not result.has_traffic
        assert result.log.arrived_bytes is None and result.log.delays_s is None
        assert result.mean_capacity_bps_hz > 0
        assert result.mean_sounding_us == 0.0
        for name in (
            "duration_s", "offered_bytes", "served_bytes", "throughput_mbps",
            "delay_samples_s", "delay_category_samples", "mean_delay_s",
            "delay_jitter_s", "mean_queue_bytes", "max_queue_bytes",
        ):
            with pytest.raises(ValueError, match="ran full-buffer"):
                getattr(result, name)
        with pytest.raises(ValueError, match="ran full-buffer"):
            result.delay_quantile(0.5)
        with pytest.raises(ValueError, match="ran full-buffer"):
            result.per_client_served_bytes()
