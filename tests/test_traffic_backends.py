"""Finite-load engine tests: bit-identity with recorded goldens (no
tolerances), full-buffer no-op guarantees, result accessors, the
latency_vs_load experiment one seed per call and stacked, and the
event-driven MAC's traffic."""

import numpy as np
import pytest

from helpers.goldens import assert_network_matches, assert_rounds_match, goldens
from repro.api import RunSpec, Runner
from repro.config import SimConfig
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.sim.network import NetworkSimulation
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario, three_ap_scenario

ENV = office_b()
SEEDS = [0, 1, 2]
GOLDEN = goldens()

TRAFFIC_CASES = [
    ("poisson", {"rate_mbps": 6.0}),
    ("on_off", {"rate_mbps": 4.0, "duty_cycle": 0.5}),
    ("cbr", {"rate_mbps": 2.0, "packet_bytes": 300.0}),
]


def one_topology(scenario, mode, seed, **kwargs):
    """The round engine on one topology: a batch of one."""
    return RoundBasedEvaluatorBatch(scenario, mode, seeds=[seed], **kwargs)


class TestRoundEngineGoldens:
    @pytest.mark.parametrize("traffic,kwargs", TRAFFIC_CASES)
    @pytest.mark.parametrize("mode,antenna_mode", [
        (MacMode.MIDAS, AntennaMode.DAS),
        (MacMode.CAS, AntennaMode.CAS),
    ])
    def test_three_ap_batch_matches_goldens(self, traffic, kwargs, mode, antenna_mode):
        scenarios = three_ap_scenario(ENV, seeds=SEEDS)[antenna_mode]
        batch = RoundBasedEvaluatorBatch(
            scenarios, mode, seeds=SEEDS, traffic=traffic, traffic_kwargs=kwargs
        ).run(8)
        for result, golden in zip(batch, GOLDEN["traffic"][f"{traffic}-{mode.value}"]):
            assert_rounds_match(result, golden)

    def test_single_ap_batch_matches_goldens(self):
        scenarios = single_ap_scenario(ENV, AntennaMode.DAS, seeds=SEEDS)
        batch = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS,
            traffic="poisson", traffic_kwargs={"rate_mbps": 10.0},
        ).run(12)
        for result, golden in zip(batch, GOLDEN["traffic_single_ap"]):
            assert_rounds_match(result, golden)

    def test_item_mask_skips_inactive_items(self):
        scenarios = single_ap_scenario(ENV, AntennaMode.DAS, seeds=SEEDS)
        mask = np.array([True, False, True])
        results = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS,
            traffic="poisson", traffic_kwargs={"rate_mbps": 10.0},
        ).run(12, item_mask=mask)
        assert results[1] is None
        assert_rounds_match(results[2], GOLDEN["traffic_single_ap"][2])


class TestFullBufferNoOp:
    def test_full_buffer_equals_no_traffic_single_item(self):
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        [plain] = one_topology(scenario, MacMode.MIDAS, 0).run(6)
        [full] = one_topology(
            scenario, MacMode.MIDAS, 0, traffic="full_buffer"
        ).run(6)
        assert np.array_equal(
            plain.column("capacity_bps_hz"), full.column("capacity_bps_hz")
        )
        assert not full.has_traffic and full.log.arrived_bytes is None

    def test_full_buffer_equals_no_traffic_batch(self):
        scenarios = three_ap_scenario(ENV, seeds=SEEDS)[AntennaMode.DAS]
        plain = RoundBasedEvaluatorBatch(scenarios, MacMode.MIDAS, seeds=SEEDS).run(6)
        full = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS, traffic="full_buffer"
        ).run(6)
        for p, f in zip(plain, full):
            assert np.array_equal(
                p.column("capacity_bps_hz"), f.column("capacity_bps_hz")
            )

    def test_accessors_raise_without_traffic(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[0])
        [result] = one_topology(scenario, MacMode.MIDAS, 0).run(2)
        assert not result.has_traffic
        with pytest.raises(ValueError, match="full-buffer"):
            result.mean_delay_s
        with pytest.raises(ValueError, match="full-buffer"):
            result.throughput_mbps


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def loaded(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[1])
        [result] = one_topology(
            scenario, MacMode.MIDAS, 1,
            traffic="poisson", traffic_kwargs={"rate_mbps": 8.0},
        ).run(30)
        return result

    def test_conservation_and_positivity(self, loaded):
        assert loaded.has_traffic
        assert loaded.served_bytes <= loaded.offered_bytes
        assert loaded.served_bytes > 0
        assert np.all(loaded.delay_samples_s > 0)
        assert loaded.mean_queue_bytes <= loaded.max_queue_bytes

    def test_throughput_consistent_with_bytes(self, loaded):
        expected = loaded.served_bytes * 8 / loaded.duration_s / 1e6
        assert loaded.throughput_mbps == expected

    def test_delay_statistics_ordered(self, loaded):
        assert loaded.mean_delay_s > 0
        assert loaded.delay_quantile(0.95) >= loaded.delay_quantile(0.5)
        assert np.isfinite(loaded.delay_jitter_s)

    def test_per_client_served_sums_to_total(self, loaded):
        per_client = loaded.per_client_served_bytes()
        assert per_client.shape == (4,)
        assert per_client.sum() == pytest.approx(loaded.served_bytes)


class TestLatencyVsLoadExperiment:
    SPEC = RunSpec(
        "latency_vs_load",
        n_topologies=3,
        seed=0,
        params={"offered_loads_mbps": [10.0, 80.0], "rounds_per_topology": 10},
    )

    @pytest.fixture(scope="class")
    def results(self):
        return (
            Runner(batch_size=1).run(self.SPEC),
            Runner().run(self.SPEC),
        )

    def test_backends_bit_identical(self, results):
        single, vectorized = results
        assert set(single.series) == set(vectorized.series)
        for key in single.series:
            assert np.array_equal(single.series[key], vectorized.series[key]), key

    def test_series_shapes_and_sanity(self, results):
        single, __ = results
        for system in ("cas", "midas"):
            for metric in ("throughput_mbps", "delay_ms", "p95_delay_ms", "queue_kbytes"):
                assert single.series[f"{system}_{metric}"].shape == (3, 2)
            delay = single.series[f"{system}_delay_ms"]
            # Median delay grows with offered load (queueing).
            assert np.median(delay[:, 1]) >= np.median(delay[:, 0])

    def test_traffic_spec_override(self):
        spec = self.SPEC.replace(traffic="cbr", n_topologies=2)
        result = Runner().run(spec)
        assert result.params["traffic"] == "cbr"

    def test_full_buffer_rejected(self):
        with pytest.raises(ValueError, match="finite-load"):
            Runner().run(self.SPEC.replace(traffic="full_buffer", n_topologies=1))

    def test_empty_load_axis_rejected(self):
        spec = self.SPEC.replace(
            params={"offered_loads_mbps": [], "rounds_per_topology": 10}
        )
        with pytest.raises(ValueError, match="offered_loads_mbps is empty"):
            Runner().run(spec)

    def test_analysis_helpers(self, results):
        from repro.analysis import (
            delay_cdf,
            delay_percentiles,
            saturation_load_mbps,
            throughput_delay_curve,
        )

        single, __ = results
        offered, throughput, delay = throughput_delay_curve(single, "midas")
        assert np.array_equal(offered, [10.0, 80.0])
        assert throughput.shape == delay.shape == (2,)
        assert saturation_load_mbps(single, "midas", delay_budget_ms=1e9) == 80.0
        samples = np.asarray([0.001, 0.002, 0.004])
        assert len(delay_cdf(samples)) == 3
        assert np.array_equal(
            delay_percentiles(samples, (0.0, 1.0)), [0.001, 0.004]
        )
        # Both empty-run helpers raise with the same documented message.
        with pytest.raises(ValueError, match="no departed packets"):
            delay_cdf(np.array([]))
        with pytest.raises(ValueError, match="no departed packets"):
            delay_percentiles(np.array([]))


class TestExistingExperimentsFullBuffer:
    def test_fig15_accepts_full_buffer_spec(self):
        base = RunSpec("fig15", n_topologies=2, seed=0,
                       params={"rounds_per_topology": 4})
        with_traffic = base.replace(traffic="full_buffer")
        a = Runner().run(base)
        b = Runner().run(with_traffic)
        for key in a.series:
            assert np.array_equal(a.series[key], b.series[key]), key


class TestDynamicMacTraffic:
    def test_finite_load_metrics(self):
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        result = NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.04), seed=0,
            traffic="poisson", traffic_kwargs={"rate_mbps": 5.0},
        ).run()
        assert_network_matches(result, GOLDEN["network"]["three_ap_poisson"])
        summary = result.traffic
        assert summary is not None
        assert 0 < summary.served_bytes <= summary.arrived_bytes
        assert summary.delays_s.size > 0
        assert np.all(summary.delays_s > 0)
        assert summary.throughput_mbps > 0
        assert np.isfinite(summary.mean_delay_s)

    def test_per_item_kwargs_list_of_one(self):
        # A batch of one takes one value or a per-item list of one, as the
        # round engine and the association arguments do.
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        sim_cfg = SimConfig(duration_s=0.04)
        shared = NetworkSimulation(
            scenario, MacMode.MIDAS, sim_cfg, seed=0,
            traffic="poisson", traffic_kwargs={"rate_mbps": 5.0},
        ).run()
        listed = NetworkSimulation(
            scenario, MacMode.MIDAS, sim_cfg, seed=0,
            traffic="poisson", traffic_kwargs=[{"rate_mbps": 5.0}],
        ).run()
        assert np.array_equal(shared.per_client_bits_per_hz, listed.per_client_bits_per_hz)
        assert np.array_equal(shared.traffic.delays_s, listed.traffic.delays_s)
        with pytest.raises(ValueError, match="one entry per item"):
            NetworkSimulation(
                scenario, MacMode.MIDAS, sim_cfg, seed=0, traffic="poisson",
                traffic_kwargs=[{"rate_mbps": 5.0}, {"rate_mbps": 6.0}],
            )

    def test_full_buffer_unchanged(self):
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        sim_cfg = SimConfig(duration_s=0.03)
        plain = NetworkSimulation(scenario, MacMode.MIDAS, sim_cfg, seed=0).run()
        full = NetworkSimulation(
            scenario, MacMode.MIDAS, sim_cfg, seed=0, traffic="full_buffer"
        ).run()
        assert plain.traffic is None and full.traffic is None
        assert np.array_equal(
            plain.per_client_bits_per_hz, full.per_client_bits_per_hz
        )
        assert plain.txop_count == full.txop_count

    def test_no_zero_byte_bursts_on_decodable_streams(self, monkeypatch):
        # Regression: eligibility once saw arrival-window packets timestamped
        # after the contention decision, so an AP could win a TXOP for a
        # client whose packets the serve-time arrival cutoff then excluded --
        # a full TXOP burned for zero bytes and a wrong DRR settlement.
        # With eligibility cut off at the decision time, a selected client
        # always has a servable packet: a burst serves zero bytes only when
        # every stream's SINR is below MCS 0.
        from repro.phy.mcs import MCS_TABLE
        from repro.traffic import TrafficState

        calls = []
        original = TrafficState.serve_burst

        def recording(self, items, clients, sinrs, payload_s, t_depart_s=None,
                      arrival_cutoff_s=None):
            served = original(self, items, clients, sinrs, payload_s,
                              t_depart_s, arrival_cutoff_s)
            calls.append((served.sum(), np.max(np.asarray(sinrs, dtype=float))))
            return served

        monkeypatch.setattr(TrafficState, "serve_burst", recording)
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[0])
        NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.5), seed=0,
            traffic="poisson", traffic_kwargs={"rate_mbps": 0.5},
        ).run()
        assert calls, "expected TXOP bursts under light load"
        mcs0 = 10 ** (MCS_TABLE[0].min_snr_db / 10.0)
        wasted = [c for c in calls if c[0] == 0.0 and c[1] >= mcs0]
        assert not wasted, f"{len(wasted)}/{len(calls)} zero-byte bursts"

    def test_light_load_delays_below_saturation_queueing(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[3])
        light = NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.05), seed=3,
            traffic="poisson", traffic_kwargs={"rate_mbps": 1.0},
        ).run()
        heavy = NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.05), seed=3,
            traffic="poisson", traffic_kwargs={"rate_mbps": 60.0},
        ).run()
        assert light.traffic.queue_bytes <= heavy.traffic.queue_bytes
