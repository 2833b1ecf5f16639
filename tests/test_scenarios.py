"""Scenario factory tests: the paper's deployment rules."""

import numpy as np

from repro.channel.pathloss import coverage_range_m, cs_range_m
from repro.topology import geometry
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import (
    eight_ap_scenario,
    hidden_terminal_scenario,
    office_a,
    office_b,
    paired_scenarios,
    single_ap_scenario,
    three_ap_scenario,
)


class TestOffices:
    def test_office_b_is_lossier(self):
        assert (
            office_b().radio.pathloss_exponent >= office_a().radio.pathloss_exponent
        )
        assert (
            office_b().radio.shadowing_sigma_db > office_a().radio.shadowing_sigma_db
        )

    def test_names(self):
        assert office_a().name == "office_a"
        assert office_b().name == "office_b"


class TestPairedScenarios:
    def test_modes_share_clients_and_aps(self):
        pair = paired_scenarios(office_b(), [(0, 0)], seeds=[3])
        cas = pair[AntennaMode.CAS].deployment
        das = pair[AntennaMode.DAS].deployment
        np.testing.assert_array_equal(cas.client_positions, das.client_positions)
        np.testing.assert_array_equal(cas.ap_positions, das.ap_positions)

    def test_modes_differ_in_antennas(self):
        pair = paired_scenarios(office_b(), [(0, 0)], seeds=[3])
        cas = pair[AntennaMode.CAS].deployment
        das = pair[AntennaMode.DAS].deployment
        assert not np.allclose(cas.antenna_positions, das.antenna_positions)

    def test_cas_antennas_colocated(self):
        pair = paired_scenarios(office_b(), [(0, 0)], seeds=[3])
        ants = pair[AntennaMode.CAS].deployment.antenna_positions[0]
        assert geometry.pairwise_distances(ants, ants).max() < 0.2

    def test_das_antennas_in_ring(self):
        pair = paired_scenarios(
            office_b(), [(0, 0)], seeds=[3], das_radius_min_m=5, das_radius_max_m=10
        )
        radii = np.linalg.norm(pair[AntennaMode.DAS].deployment.antenna_positions[0], axis=1)
        assert np.all((radii >= 5) & (radii <= 10))

    def test_clients_in_annulus(self):
        env = office_b()
        pair = paired_scenarios(
            env, [(0, 0)], seeds=[4], client_radius_fraction=0.9, client_radius_min_fraction=0.25
        )
        coverage = coverage_range_m(env.radio, pair[AntennaMode.CAS].mac.decode_snr_db)
        radii = np.linalg.norm(pair[AntennaMode.CAS].deployment.client_positions[0], axis=1)
        assert np.all(radii <= 0.9 * coverage + 1e-9)
        assert np.all(radii >= 0.25 * coverage - 1e-9)

    def test_deterministic_by_seed(self):
        a = paired_scenarios(office_b(), [(0, 0)], seeds=[5])
        b = paired_scenarios(office_b(), [(0, 0)], seeds=[5])
        np.testing.assert_array_equal(
            a[AntennaMode.DAS].deployment.antenna_positions[0],
            b[AntennaMode.DAS].deployment.antenna_positions[0],
        )


class TestSingleAp:
    def test_counts(self):
        sc = single_ap_scenario(office_b(), AntennaMode.DAS, n_antennas=3, n_clients=2, seeds=[0])
        assert sc.deployment.n_antennas == 3
        assert sc.deployment.n_clients == 2

    def test_mode_tag(self):
        sc = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[0])
        assert sc.mode is AntennaMode.CAS


class TestThreeAp:
    def test_equilateral_geometry(self):
        pair = three_ap_scenario(office_b(), seeds=[0], inter_ap_m=15.0)
        aps = pair[AntennaMode.CAS].deployment.ap_positions[0]
        d = geometry.pairwise_distances(aps, aps)
        sides = d[np.triu_indices(3, k=1)]
        np.testing.assert_allclose(sides, 15.0, rtol=1e-9)

    def test_sector_rule_on_das(self):
        pair = three_ap_scenario(office_b(), seeds=[0, 1, 2])
        das = pair[AntennaMode.DAS].deployment
        for item in range(len(das)):
            for ap in range(3):
                ants = das.antenna_positions[item, das.antennas_of(ap)]
                assert geometry.sector_angles_ok(das.ap_positions[item, ap], ants, 60.0)


class TestEightAp:
    def test_counts_and_region(self):
        placed, pair = eight_ap_scenario(office_b(), seeds=[1, 2])
        assert placed.tolist() == [True, True]
        dep = pair[AntennaMode.DAS].deployment
        assert len(dep) == 2
        assert dep.n_aps == 8
        assert dep.n_antennas == 32
        assert np.all(dep.ap_positions >= 0) and np.all(dep.ap_positions <= 60)

    def test_antenna_separation_rule(self):
        __, pair = eight_ap_scenario(office_b(), seeds=[1, 2])
        dep = pair[AntennaMode.DAS].deployment
        for item in range(len(dep)):
            for ap in range(8):
                ants = dep.antenna_positions[item, dep.antennas_of(ap)]
                assert geometry.min_pairwise_distance(ants) >= 5.0

    def test_overhearing_limit_median(self):
        __, pair = eight_ap_scenario(office_b(), seeds=[1, 2], max_overhearers=3)
        dep = pair[AntennaMode.CAS].deployment
        sense = cs_range_m(office_b().radio, pair[AntennaMode.CAS].mac)
        for aps in dep.ap_positions:
            d = geometry.pairwise_distances(aps, aps)
            np.fill_diagonal(d, np.inf)
            assert np.all((d < sense).sum(axis=1) <= 3)


class TestHiddenTerminal:
    def test_aps_beyond_median_sense_range(self):
        env = office_b()
        pair = hidden_terminal_scenario(env, seeds=[0])
        dep = pair[AntennaMode.CAS].deployment
        separation = np.linalg.norm(dep.ap_positions[0, 1] - dep.ap_positions[0, 0])
        assert separation > cs_range_m(env.radio, pair[AntennaMode.CAS].mac)

    def test_das_ring_is_50_to_75_percent_of_range(self):
        env = office_b()
        pair = hidden_terminal_scenario(env, seeds=[0])
        dep = pair[AntennaMode.DAS].deployment
        coverage = coverage_range_m(env.radio, pair[AntennaMode.DAS].mac.decode_snr_db)
        for ap in range(2):
            ants = dep.antenna_positions[0, dep.antennas_of(ap)]
            radii = np.linalg.norm(ants - dep.ap_positions[0, ap], axis=1)
            assert np.all(radii >= 0.5 * coverage - 1e-9)
            assert np.all(radii <= 0.75 * coverage + 1e-9)
