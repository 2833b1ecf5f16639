"""End-to-end discrete-event simulation tests."""

import numpy as np
import pytest

from helpers.goldens import assert_network_matches, floats, goldens
from repro.api import RunSpec, Runner
from repro.config import SimConfig
from repro.sim.batch import (
    MacMode,
    RoundBasedEvaluatorBatch,
    _mutual_overhear_from_decodable,
)
from repro.sim.network import NetworkSimulation
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario, three_ap_scenario

SIM = SimConfig(duration_s=0.05)


@pytest.fixture(scope="module")
def three_ap_pair():
    return three_ap_scenario(office_b(), seeds=[3])


class TestSingleAp:
    def test_cas_run_produces_throughput(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[1])
        result = NetworkSimulation(scenario, MacMode.CAS, SIM, seed=1).run()
        assert result.txop_count > 0
        assert result.network_capacity_bps_hz > 0

    def test_midas_run_produces_throughput(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[1])
        result = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=1).run()
        assert result.txop_count > 0
        assert result.network_capacity_bps_hz > 0

    def test_per_client_nonnegative(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[2])
        result = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=2).run()
        assert np.all(result.per_client_bits_per_hz >= 0)

    def test_concurrency_bounded_by_antennas(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[2])
        result = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=2).run()
        assert result.mean_concurrent_streams <= scenario.deployment.n_antennas

    def test_deterministic_by_seed(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[4])
        a = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=7).run()
        b = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=7).run()
        np.testing.assert_allclose(a.per_client_bits_per_hz, b.per_client_bits_per_hz)
        assert a.txop_count == b.txop_count

    def test_different_seeds_differ(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[4])
        a = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=1).run()
        b = NetworkSimulation(scenario, MacMode.MIDAS, SIM, seed=2).run()
        assert not np.allclose(a.per_client_bits_per_hz, b.per_client_bits_per_hz)

    def test_cas_single_ap_serializes(self):
        # One CAS AP alone: streams per TXOP equals antennas, airtime < 100%.
        scenario = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[5])
        result = NetworkSimulation(scenario, MacMode.CAS, SIM, seed=5).run()
        assert result.stream_count == 4 * result.txop_count


class TestThreeAp:
    def test_both_modes_run(self, three_ap_pair):
        cas = NetworkSimulation(
            three_ap_pair[AntennaMode.CAS], MacMode.CAS, SIM, seed=3
        ).run()
        midas = NetworkSimulation(
            three_ap_pair[AntennaMode.DAS], MacMode.MIDAS, SIM, seed=3
        ).run()
        assert cas.txop_count > 0 and midas.txop_count > 0

    def test_all_clients_eventually_served(self, three_ap_pair):
        sim_cfg = SimConfig(duration_s=0.15)
        result = NetworkSimulation(
            three_ap_pair[AntennaMode.DAS], MacMode.MIDAS, sim_cfg, seed=3
        ).run()
        served = result.per_client_bits_per_hz > 0
        # DRR fairness should reach nearly every client within 150 ms.
        assert served.mean() > 0.7


def _sim_overhears(scenario) -> bool:
    """The mutual-overhearing rule on the event engine's own carrier sense,
    cross-checked against the experiments' batched gate."""
    sim = NetworkSimulation(scenario, MacMode.CAS, SIM, seed=0)
    deployment = sim.deployment
    verdict = _mutual_overhear_from_decodable(
        sim.carrier_sense.decodable_mask(),
        [deployment.antennas_of(ap) for ap in range(deployment.n_aps)],
    )
    gate = RoundBasedEvaluatorBatch.mutual_overhear_mask(scenario, seeds=[0])
    assert np.array_equal(verdict, gate)
    return bool(verdict[0])


class TestOverhearPredicate:
    def test_colocated_aps_overhear(self):
        pair = three_ap_scenario(office_b(), seeds=[0], inter_ap_m=2.0)
        assert _sim_overhears(pair[AntennaMode.CAS])

    def test_distant_aps_do_not_overhear(self):
        pair = three_ap_scenario(office_b(), seeds=[0], inter_ap_m=500.0)
        assert not _sim_overhears(pair[AntennaMode.CAS])

    def test_single_ap_trivially_true(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[0])
        assert _sim_overhears(scenario)


class TestGoldens:
    """The event engine on the batched kernels reproduces the retired
    scalar-kernel engine exactly."""

    GOLDEN = goldens()["network"]

    @pytest.mark.parametrize("case", [
        ("single_ap_cas", AntennaMode.CAS, MacMode.CAS),
        ("single_ap_midas", AntennaMode.DAS, MacMode.MIDAS),
    ], ids=lambda case: case[0])
    def test_single_ap(self, case):
        key, antenna_mode, mac_mode = case
        scenario = single_ap_scenario(office_b(), antenna_mode, seeds=[1])
        result = NetworkSimulation(scenario, mac_mode, SIM, seed=1).run()
        assert_network_matches(result, self.GOLDEN[key])

    def test_three_ap_both_modes(self, three_ap_pair):
        cas = NetworkSimulation(
            three_ap_pair[AntennaMode.CAS], MacMode.CAS, SIM, seed=3
        ).run()
        midas = NetworkSimulation(
            three_ap_pair[AntennaMode.DAS], MacMode.MIDAS, SIM, seed=3
        ).run()
        assert_network_matches(cas, self.GOLDEN["three_ap_cas"])
        assert_network_matches(midas, self.GOLDEN["three_ap_midas"])

    def test_fig15_dynamic_series(self):
        spec = RunSpec(
            "fig15",
            n_topologies=2,
            seed=7,
            params={"rounds_per_topology": 2, "dynamic": True, "duration_s": 0.02},
        )
        series = Runner().run(spec).series
        expected = goldens()["fig15_dynamic"]
        assert sorted(series) == sorted(expected)
        for key, values in expected.items():
            assert np.array_equal(np.ravel(series[key]), floats(values)), key


MODES = {"cas": (AntennaMode.CAS, MacMode.CAS), "midas": (AntennaMode.DAS, MacMode.MIDAS)}


class TestUncoveredPathGoldens:
    """Event-engine paths the older goldens do not reach, recorded from
    repro 12.0.0: the coordinated-scheduling veto under roaming, CSI noise,
    and fig15 ``dynamic`` over a process pool."""

    @pytest.mark.parametrize("key", sorted(MODES))
    def test_coordinated_scheduling_with_roaming(self, three_ap_pair, key):
        antenna_mode, mac_mode = MODES[key]
        golden = goldens()["network_coordinated"][key]
        sim = NetworkSimulation(
            three_ap_pair[antenna_mode],
            mac_mode,
            SIM,
            seed=3,
            association="hysteresis_handoff",
            mobility="gauss_markov",
            mobility_kwargs={"speed_mps": 3.0},
            resound_interval_s=0.01,
            coordination="coordinated_scheduling",
        )
        result = sim.run()
        log = sim.association.handoff_log
        assert log[:, [0, 2, 3, 4]].tolist() == golden["events"]
        assert sim.association.tag_builds == golden["tag_builds"]
        assert sim.association.outage_count[0] == golden["outages"]
        assert_network_matches(result, golden["result"])

    @pytest.mark.parametrize("key", sorted(MODES))
    def test_csi_error(self, three_ap_pair, key):
        antenna_mode, mac_mode = MODES[key]
        sim = SimConfig(duration_s=0.05, csi_error_std=0.1)
        result = NetworkSimulation(three_ap_pair[antenna_mode], mac_mode, sim, seed=3).run()
        assert_network_matches(result, goldens()["network_csi_error"][key])

    def test_fig15_dynamic_over_a_process_pool(self):
        spec = RunSpec(
            "fig15",
            n_topologies=4,
            seed=5,
            params={"rounds_per_topology": 2, "dynamic": True, "duration_s": 0.02},
        )
        expected = goldens()["fig15_dynamic_jobs"]
        for jobs in (1, 2):
            series = Runner(jobs=jobs).run(spec).series
            assert sorted(series) == sorted(expected)
            for key, values in expected.items():
                assert np.array_equal(np.ravel(series[key]), floats(values)), (jobs, key)
