"""Traffic subsystem unit tests: queues, A-MPDU model, arrival processes,
TrafficState accounting, the traffic registry, and the RunSpec surface."""

import numpy as np
import pytest

from repro.api import TRAFFIC, RunSpec, UnknownNameError, resolve_params
from repro.api.experiments import get_experiment_def
from repro.mac.edca import AccessCategory
from repro.phy.mcs import MCS_TABLE
from helpers.queue_oracle import ScriptedTraffic, members, primary_class, serve_one, stacked
from repro.traffic import (
    AmpduConfig,
    VHT_MAX_AMPDU_BYTES,
    CbrTraffic,
    FullBufferTraffic,
    OnOffTraffic,
    PoissonTraffic,
    TrafficState,
    access_category,
    resolve_traffic,
    traffic_names,
)


BE, VI, VO = AccessCategory.BEST_EFFORT, AccessCategory.VIDEO, AccessCategory.VOICE


class TestStackedQueues:
    """Single-item queue behaviour of the stacked :class:`TrafficState`:
    backlog, primary class, FIFO service, arrival cutoff."""

    def test_enqueue_and_backlog(self):
        state = stacked(3, (0, 1000.0, 0.0), (2, 500.0, 0.1, VO))
        assert np.array_equal(state.backlog_mask()[0].any(axis=1), [True, False, True])
        assert np.array_equal(state.backlog_mask()[0, :, VO], [False, False, True])
        assert state.summary()[0].queue_bytes == 1500.0

    def test_backlog_mask_respects_client_order(self):
        state = stacked(3, (2, 100.0, 0.0))
        assert np.array_equal(state.backlog_mask()[0, [2, 0]].any(axis=1), [True, False])

    def test_primary_class_priority_order(self):
        state = TrafficState(
            [ScriptedTraffic([[(0, 100.0, 0.0, BE)], [(1, 100.0, 0.0, VI)],
                              [(0, 100.0, 0.0, VO)]])],
            2, [None], round_duration_s=1.0, bandwidth_hz=20e6,
        )
        state.advance_arrivals_to(1.0)
        assert primary_class(state)[0] == BE
        state.advance_arrivals_to(2.0)
        assert primary_class(state)[0] == VI
        state.advance_arrivals_to(3.0)
        assert primary_class(state)[0] == VO
        assert primary_class(state, members(2, 1))[0] == VI

    def test_serve_fifo_and_delay(self):
        state = stacked(1, (0, 1000.0, 1.0), (0, 1000.0, 2.0))
        served, departures = serve_one(state, 0, 1500.0, 5.0)
        assert served == 1500.0
        # Only the first packet fully departed; delay = 5 - 1 arrival.
        assert departures == [(4.0, BE)]
        served, departures = serve_one(state, 0, 1e9, 6.0)
        assert served == 500.0
        assert departures == [(4.0, BE)]
        assert state.summary()[0].queue_bytes == 0.0

    def test_serve_drains_voice_before_best_effort(self):
        state = stacked(1, (0, 1000.0, 0.0, BE), (0, 1000.0, 0.0, VO))
        __, departures = serve_one(state, 0, 1000.0, 1.0)
        assert [c for (_, c) in departures] == [VO]

    def test_arrival_cutoff_masks_future_packets(self):
        state = stacked(2, (0, 100.0, 1.0), (1, 100.0, 5.0, VO))
        # At t=2 only client 0's packet has arrived.
        assert np.array_equal(
            state.backlog_mask(arrival_cutoff_s=2.0)[0].any(axis=1), [True, False]
        )
        assert primary_class(state, arrival_cutoff_s=2.0)[0] == BE
        # At t=6 both exist and VOICE wins the primary class.
        assert np.array_equal(
            state.backlog_mask(arrival_cutoff_s=6.0)[0].any(axis=1), [True, True]
        )
        assert primary_class(state, arrival_cutoff_s=6.0)[0] == VO
        # Cutoff-free queries see everything (the round engines' path).
        assert np.array_equal(state.backlog_mask()[0].any(axis=1), [True, True])

    def test_arrival_cutoff_respects_client_selection(self):
        state = stacked(3, (2, 100.0, 0.5))
        assert np.array_equal(
            state.backlog_mask(arrival_cutoff_s=1.0)[0, [2, 0]].any(axis=1),
            [True, False],
        )

    def test_zero_budget_serves_nothing(self):
        state = stacked(1, (0, 100.0, 0.0))
        assert serve_one(state, 0, 0.0, 1.0) == (0.0, [])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            stacked(0)
        with pytest.raises(ValueError, match="ScriptedTraffic"):
            stacked(1, (0, 0.0, 0.0))
        with pytest.raises(ValueError, match="ScriptedTraffic"):
            stacked(1, (5, 10.0, 0.0))


class TestAmpdu:
    def test_budget_tracks_mcs_rate(self):
        ampdu = AmpduConfig()
        bw, payload = 20e6, 3e-3
        top = MCS_TABLE[-1]
        budget = float(ampdu.served_byte_budget(top.min_snr_db, bw, payload))
        expected = top.rate_bps_hz * bw * payload / 8.0 * ampdu.efficiency
        assert budget == pytest.approx(expected)

    def test_below_mcs0_serves_zero(self):
        assert float(AmpduConfig().served_byte_budget(-5.0, 20e6, 3e-3)) == 0.0

    def test_vht_cap_binds_for_long_payloads(self):
        ampdu = AmpduConfig()
        budget = float(ampdu.served_byte_budget(35.0, 160e6, 1.0))
        assert budget == pytest.approx(VHT_MAX_AMPDU_BYTES * ampdu.efficiency)

    def test_vectorized_matches_scalar(self):
        ampdu = AmpduConfig()
        snrs = np.array([-3.0, 4.0, 17.0, 40.0])
        stacked = ampdu.served_byte_budget(snrs, 20e6, 3e-3)
        singles = [float(ampdu.served_byte_budget(s, 20e6, 3e-3)) for s in snrs]
        assert np.array_equal(stacked, singles)

    def test_validation(self):
        with pytest.raises(ValueError):
            AmpduConfig(max_ampdu_bytes=0)
        with pytest.raises(ValueError):
            AmpduConfig(per_mpdu_overhead_bytes=-1)


class TestArrivalModels:
    def test_poisson_deterministic_per_seed(self):
        model = PoissonTraffic(rate_mbps=20.0)
        a = model.arrivals(None, np.random.default_rng(3), 4, 0.0, 0.003)
        b = model.arrivals(None, np.random.default_rng(3), 4, 0.0, 0.003)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a, part_b)
        clients, __, t_arrival_s, __ = a
        assert np.all((0.0 <= t_arrival_s) & (t_arrival_s < 0.003))
        # Client-major, time-sorted within each client.
        assert np.all(np.diff(clients) >= 0)
        assert np.all(np.diff(t_arrival_s)[np.diff(clients) == 0] >= 0)

    def test_poisson_mean_rate(self):
        model = PoissonTraffic(rate_mbps=16.0, packet_bytes=1000.0)
        rng = np.random.default_rng(0)
        total = sum(
            model.arrivals(None, rng, 2, 0.0, 0.003)[1].sum() for _ in range(2000)
        )
        # 2 clients x 16 Mb/s x 6 s of simulated windows.
        assert total * 8 / (2 * 2000 * 0.003) / 1e6 == pytest.approx(16.0, rel=0.05)

    def test_cbr_is_deterministic_and_exact(self):
        model = CbrTraffic(rate_mbps=0.8, packet_bytes=100.0)
        state = model.init_state(None, 1)
        total = 0.0
        for r in range(100):
            __, sizes, __, categories = model.arrivals(state, None, 1, r * 0.003, 0.003)
            total += sizes.sum()
            assert np.all(categories == AccessCategory.VOICE)
        assert total == pytest.approx(0.8e6 * 0.3 / 8.0, abs=100.0)

    def test_on_off_respects_duty_cycle(self):
        model = OnOffTraffic(rate_mbps=10.0, duty_cycle=0.5, mean_burst_s=0.03)
        rng = np.random.default_rng(1)
        state = model.init_state(rng, 8)
        total = 0.0
        for r in range(3000):
            total += model.arrivals(state, rng, 8, r * 0.003, 0.003)[1].sum()
        rate = total * 8 / (8 * 3000 * 0.003) / 1e6
        assert rate == pytest.approx(10.0, rel=0.15)

    def test_access_category_coercion(self):
        assert access_category("voice") is AccessCategory.VOICE
        assert access_category(AccessCategory.VIDEO) is AccessCategory.VIDEO
        assert access_category(2) is AccessCategory.BEST_EFFORT
        with pytest.raises(ValueError):
            access_category("turbo")

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PoissonTraffic(rate_mbps=-1.0)
        with pytest.raises(ValueError):
            OnOffTraffic(rate_mbps=1.0, duty_cycle=0.0)
        with pytest.raises(ValueError):
            CbrTraffic(rate_mbps=1.0, packet_bytes=0.0)


class TestTrafficState:
    def _state(self, model, n_clients=2, seed=0):
        return TrafficState(
            [model],
            n_clients,
            [np.random.default_rng(seed)],
            round_duration_s=0.003,
            bandwidth_hz=20e6,
        )

    def test_conservation(self):
        state = self._state(PoissonTraffic(rate_mbps=30.0))
        arrived = served = 0.0
        for __ in range(50):
            state.begin_round()
            state.serve_burst([0, 0], np.array([0, 1]), np.array([100.0, 100.0]), 0.002)
            [round_arrived], [round_served], [queued], __ = state.end_round()
            arrived += round_arrived
            served += round_served
        assert served <= arrived
        assert queued == pytest.approx(arrived - served)

    def test_delays_are_positive_and_bounded_by_clock(self):
        state = self._state(PoissonTraffic(rate_mbps=30.0))
        for r in range(20):
            state.begin_round()
            state.serve_burst([0], np.array([0]), np.array([1e4]), 0.002)
            state.end_round()
            __, round_of, delays_s, __ = state.departures()
            assert np.all(delays_s[round_of == r] > 0)
            assert np.all(delays_s[round_of == r] <= (r + 1) * 0.003)

    def test_full_buffer_state_rejected(self):
        with pytest.raises(ValueError):
            self._state(FullBufferTraffic())

    def test_round_protocol_misuse(self):
        state = self._state(PoissonTraffic(rate_mbps=1.0))
        with pytest.raises(RuntimeError):
            state.end_round()
        state.begin_round()
        with pytest.raises(RuntimeError):
            state.begin_round()

    def test_item_mask_selects_rounds(self):
        models = [PoissonTraffic(rate_mbps=30.0)] * 3
        state = TrafficState(
            models, 2, [np.random.default_rng(s) for s in range(3)],
            round_duration_s=0.003, bandwidth_hz=20e6,
        )
        state.begin_round([True, False, True])
        with pytest.raises(RuntimeError):
            state.end_round([False, True, False])
        arrived, __, __, __ = state.end_round([True, False, True])
        assert arrived[1] == 0.0 and arrived[0] > 0.0 and arrived[2] > 0.0
        np.testing.assert_array_equal(state.round_index, [1, 0, 1])
        alone = self._state(PoissonTraffic(rate_mbps=30.0), seed=2)
        alone.begin_round()
        [want], __, __, __ = alone.end_round()
        assert arrived[2] == want

    def test_excluded_items_read_zero_after_earlier_rounds(self):
        # Item 0 closes one round with arrivals and a backlog, then sits
        # out the next: its row must not repeat the earlier round's totals.
        state = TrafficState(
            [PoissonTraffic(rate_mbps=30.0)] * 2, 2,
            [np.random.default_rng(s) for s in range(2)],
            round_duration_s=0.003, bandwidth_hz=20e6,
        )
        state.begin_round()
        arrived, __, queued, __ = state.end_round()
        assert arrived[0] > 0.0 and queued[0] > 0.0
        state.begin_round([False, True])
        for column in state.end_round([False, True]):
            assert not np.any(column[0])
        np.testing.assert_array_equal(state.round_index, [1, 2])

    def test_one_model_and_generator_per_item(self):
        with pytest.raises(ValueError, match="one generator per item"):
            TrafficState(
                [PoissonTraffic(rate_mbps=1.0)] * 2, 2, [np.random.default_rng(0)],
                round_duration_s=0.003, bandwidth_hz=20e6,
            )


class TestTrafficRegistry:
    def test_builtins_registered(self):
        assert {"full_buffer", "poisson", "on_off", "cbr"} <= set(traffic_names())

    def test_resolve_by_name(self):
        model = resolve_traffic("poisson", rate_mbps=5.0, packet_bytes=500.0)
        assert isinstance(model, PoissonTraffic)
        assert model.rate_mbps == 5.0 and model.packet_bytes == 500.0

    def test_resolve_instance_passthrough(self):
        model = CbrTraffic(rate_mbps=1.0)
        assert resolve_traffic(model) is model
        with pytest.raises(ValueError):
            resolve_traffic(model, rate_mbps=2.0)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownNameError, match="poisson"):
            resolve_traffic("tsunami")
        assert "tsunami" not in TRAFFIC


class TestRunSpecTraffic:
    def test_traffic_field_round_trips(self):
        spec = RunSpec("latency_vs_load", traffic="poisson")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["traffic"] == "poisson"

    def test_unset_traffic_keeps_pre_traffic_hashes(self):
        spec = RunSpec("fig09", n_topologies=5, seed=3)
        assert "traffic" not in spec.to_dict()
        assert "traffic" not in spec.canonical_json()
        assert spec.spec_hash() != spec.replace(traffic="full_buffer").spec_hash()

    def test_full_buffer_accepted_everywhere(self):
        defn = get_experiment_def("fig09")
        spec = RunSpec("fig09", traffic="full_buffer")
        params = resolve_params(defn, spec)
        assert "traffic" not in params  # fig09 declares no traffic knob

    def test_finite_traffic_requires_declared_parameter(self):
        defn = get_experiment_def("fig09")
        with pytest.raises(ValueError, match="traffic override"):
            resolve_params(defn, RunSpec("fig09", traffic="poisson"))

    def test_traffic_folds_into_resolved_params(self):
        defn = get_experiment_def("latency_vs_load")
        params = resolve_params(defn, RunSpec("latency_vs_load", traffic="on_off"))
        assert params["traffic"] == "on_off"

    def test_unknown_traffic_rejected_early(self):
        defn = get_experiment_def("latency_vs_load")
        with pytest.raises(UnknownNameError):
            resolve_params(defn, RunSpec("latency_vs_load", traffic="warp9"))
