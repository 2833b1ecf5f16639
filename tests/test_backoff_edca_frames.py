"""Backoff, EDCA queue, and frame-duration tests."""

import numpy as np
import pytest

from helpers.queue_oracle import primary_class, serve_one, stacked
from repro.config import MacConfig
from repro.mac.backoff import BackoffState
from repro.mac.edca import AccessCategory
from repro.mac.frames import txop_durations


class TestBackoff:
    def test_delay_within_bounds(self):
        mac = MacConfig()
        backoff = BackoffState(mac, np.random.default_rng(0))
        for __ in range(100):
            delay = backoff.draw_delay_us()
            assert mac.difs_us <= delay <= mac.difs_us + mac.cw_min * mac.slot_us

    def test_collision_doubles_window(self):
        mac = MacConfig()
        backoff = BackoffState(mac, np.random.default_rng(0))
        backoff.on_collision()
        assert backoff.contention_window == 2 * mac.cw_min + 1

    def test_window_bounded_by_cw_max(self):
        mac = MacConfig()
        backoff = BackoffState(mac, np.random.default_rng(0))
        for __ in range(20):
            backoff.on_collision()
        assert backoff.contention_window == mac.cw_max

    def test_success_resets(self):
        mac = MacConfig()
        backoff = BackoffState(mac, np.random.default_rng(0))
        backoff.on_collision()
        backoff.on_success()
        assert backoff.contention_window == mac.cw_min


class TestEdca:
    """Per-class queueing on the stacked :class:`repro.traffic.TrafficState`,
    the one EDCA queue (a batch of one here)."""

    def test_primary_class_highest_priority_nonempty(self):
        state = stacked(
            2, (0, 100.0, 0.0, AccessCategory.BACKGROUND), (1, 100.0, 0.0, AccessCategory.VIDEO)
        )
        assert primary_class(state)[0] == AccessCategory.VIDEO

    def test_primary_class_empty(self):
        assert primary_class(stacked(2)).tolist() == [-1]

    def test_backlog_counts(self):
        state = stacked(
            2, (0, 100.0, 0.0), (0, 100.0, 0.0), (1, 100.0, 0.0, AccessCategory.VOICE)
        )
        assert state.summary()[0].queue_bytes == 300.0
        assert state.backlog_mask()[0, :, AccessCategory.VOICE].tolist() == [
            False, True,
        ]

    def test_backlogged_clients_distinct(self):
        state = stacked(3, (2, 100.0, 0.0), (2, 100.0, 0.0), (0, 100.0, 0.0))
        np.testing.assert_array_equal(
            np.flatnonzero(state.backlog_mask()[0].any(axis=1)), [0, 2]
        )

    def test_pop_for_client_fifo(self):
        state = stacked(2, (1, 100.0, 1.0), (1, 100.0, 2.0))
        # One packet's worth of budget per burst: the older packet leaves first.
        assert serve_one(state, 1, 100.0, 3.0)[1] == [(2.0, AccessCategory.BEST_EFFORT)]
        assert serve_one(state, 1, 100.0, 3.0)[1] == [(1.0, AccessCategory.BEST_EFFORT)]
        assert serve_one(state, 1, 100.0, 3.0) == (0.0, [])

    def test_pop_searches_higher_class_first(self):
        state = stacked(
            2, (1, 100.0, 0.0, AccessCategory.BACKGROUND), (1, 100.0, 0.0, AccessCategory.VOICE)
        )
        __, departures = serve_one(state, 1, 100.0, 1.0)
        assert departures == [(1.0, AccessCategory.VOICE)]


class TestFrameDurations:
    def test_components_positive(self):
        durations = txop_durations(MacConfig(), 4, 4)
        assert durations.sounding_us > 0
        assert durations.data_us > 0
        assert durations.ack_us > 0

    def test_sounding_golden_numbers(self):
        # NDPA(50) + SIFS(16) + NDP(40 + 4*4) = 122, report = 60 + 20*4 =
        # 140; the first client costs SIFS + report, every further client a
        # SIFS-separated poll *and* its report: SIFS + POLL(30) + SIFS +
        # report = 202 (each poll is followed by a SIFS before the report).
        single = txop_durations(MacConfig(), 1, 4)
        four = txop_durations(MacConfig(), 4, 4)
        assert single.sounding_us == pytest.approx(278.0)
        assert four.sounding_us == pytest.approx(122.0 + 156.0 + 3 * 202.0)

    def test_txop_total_golden_number(self):
        # sounding 884 + data txop 3008 + 4 * (SIFS 16 + block-ack 46).
        durations = txop_durations(MacConfig(), 4, 4)
        assert durations.total_us == pytest.approx(884.0 + 3008.0 + 248.0)

    def test_polled_clients_cost_sifs_and_poll(self):
        # Marginal cost of each client after the first: SIFS + poll + SIFS
        # + report, not just poll + report (the pre-fix arithmetic).
        two = txop_durations(MacConfig(), 2, 4).sounding_us
        three = txop_durations(MacConfig(), 3, 4).sounding_us
        assert three - two == pytest.approx(16.0 + 30.0 + 16.0 + 140.0)

    def test_data_fraction_below_one(self):
        durations = txop_durations(MacConfig(), 4, 4)
        assert 0 < durations.data_fraction < 1

    def test_sounding_optional(self):
        durations = txop_durations(MacConfig(), 4, 4, with_sounding=False)
        assert durations.sounding_us == 0.0

    def test_more_clients_more_overhead(self):
        one = txop_durations(MacConfig(), 1, 4)
        four = txop_durations(MacConfig(), 4, 4)
        assert four.total_us > one.total_us
        assert four.data_fraction < one.data_fraction

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            txop_durations(MacConfig(), 0, 4)
