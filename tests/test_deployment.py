"""Deployment builder tests (CAS/DAS placement rules)."""

import numpy as np
import pytest

from repro.topology import geometry
from repro.topology.deployment import (
    AntennaMode,
    Deployment,
    cas_antenna_layout,
    das_antenna_layout,
)
from repro.topology.scenarios import office_b, paired_scenarios, single_ap_scenario

WAVELENGTH = 0.057


class TestCasLayout:
    def test_half_wavelength_spacing(self):
        ants = cas_antenna_layout((0, 0), 4, WAVELENGTH)
        gaps = np.diff(ants[:, 0])
        np.testing.assert_allclose(gaps, WAVELENGTH / 2)

    def test_centered_on_ap(self):
        ants = cas_antenna_layout((3.0, -1.0), 4, WAVELENGTH)
        np.testing.assert_allclose(ants.mean(axis=0), [3.0, -1.0])

    def test_rejects_zero_antennas(self):
        with pytest.raises(ValueError):
            cas_antenna_layout((0, 0), 0, WAVELENGTH)


class TestDasLayout:
    def test_radii_within_annulus(self):
        rng = np.random.default_rng(0)
        ants = das_antenna_layout(rng, (0, 0), 4, radius_min_m=5, radius_max_m=10)
        radii = np.linalg.norm(ants, axis=1)
        assert np.all((radii >= 5) & (radii <= 10))

    def test_min_separation_respected(self):
        rng = np.random.default_rng(1)
        ants = das_antenna_layout(
            rng, (0, 0), 4, radius_min_m=5, radius_max_m=10, min_separation_m=5.0
        )
        assert geometry.min_pairwise_distance(ants) >= 5.0

    def test_sector_rule_respected(self):
        rng = np.random.default_rng(2)
        ants = das_antenna_layout(
            rng, (0, 0), 4, radius_min_m=5, radius_max_m=10, min_sector_deg=60.0
        )
        assert geometry.sector_angles_ok((0, 0), ants, 60.0)

    def test_coverage_bound_respected(self):
        rng = np.random.default_rng(3)
        ants = das_antenna_layout(
            rng,
            (10, 10),
            4,
            radius_min_m=5,
            radius_max_m=10,
            within_radius_m=9.0,
        )
        assert np.all(geometry.points_within(ants, (10, 10), 9.0))

    def test_impossible_constraints_raise(self):
        rng = np.random.default_rng(4)
        with pytest.raises(RuntimeError):
            das_antenna_layout(
                rng,
                (0, 0),
                4,
                radius_min_m=5,
                radius_max_m=6,
                min_separation_m=50.0,
                max_attempts=50,
            )


class TestDeploymentInvariants:
    def test_antenna_ap_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Deployment(
                ap_positions=[[(0, 0)]],
                antenna_positions=[[(1, 1), (2, 2)]],
                antenna_ap=[0],
                client_positions=[[(3, 3)]],
                client_ap=[0],
            )

    def test_unknown_ap_reference_raises(self):
        with pytest.raises(ValueError):
            Deployment(
                ap_positions=[[(0, 0)]],
                antenna_positions=[[(1, 1)]],
                antenna_ap=[1],
                client_positions=[[(3, 3)]],
                client_ap=[0],
            )

    def test_counts(self):
        dep = single_ap_scenario(
            office_b(), AntennaMode.DAS, n_antennas=4, n_clients=3, seeds=[0]
        ).deployment
        assert dep.n_aps == 1
        assert dep.n_antennas == 4
        assert dep.n_clients == 3

    def test_distance_matrix_shapes(self):
        dep = single_ap_scenario(
            office_b(), AntennaMode.CAS, n_antennas=4, n_clients=3, seeds=[0]
        ).deployment
        assert geometry.pairwise_distances(
            dep.client_positions[0], dep.antenna_positions[0]
        ).shape == (3, 4)
        assert geometry.pairwise_distances(
            dep.antenna_positions[0], dep.antenna_positions[0]
        ).shape == (4, 4)

    def test_multi_ap_ownership(self):
        dep = paired_scenarios(
            office_b(), [(0, 0), (20, 0)], antennas_per_ap=4, clients_per_ap=2, seeds=[0]
        )[AntennaMode.DAS].deployment
        assert len(dep.antennas_of(0)) == 4
        assert len(dep.antennas_of(1)) == 4
        assert len(dep.clients_of(1)) == 2

    def test_multi_ap_positions_follow_the_centres(self):
        pair = paired_scenarios(
            office_b(), [(0, 0), (20, 0)], antennas_per_ap=4, clients_per_ap=2, seeds=[0]
        )
        for scenario in pair.values():
            np.testing.assert_allclose(scenario.deployment.ap_positions[0], [[0, 0], [20, 0]])

    def test_ownership_partitions_antennas_and_clients(self):
        dep = paired_scenarios(
            office_b(), [(0, 0), (20, 0), (0, 20)], antennas_per_ap=3, clients_per_ap=2,
            seeds=[1],
        )[AntennaMode.DAS].deployment
        antennas = np.concatenate([dep.antennas_of(ap) for ap in range(dep.n_aps)])
        clients = np.concatenate([dep.clients_of(ap) for ap in range(dep.n_aps)])
        assert sorted(antennas) == list(range(dep.n_antennas))
        assert sorted(clients) == list(range(dep.n_clients))

    @pytest.mark.parametrize("mode", [AntennaMode.CAS, AntennaMode.DAS])
    def test_owned_nodes_sit_nearest_their_ap(self, mode):
        dep = paired_scenarios(
            office_b(), [(0, 0), (20, 0)], antennas_per_ap=4, clients_per_ap=2, seeds=[0]
        )[mode].deployment
        to_ap = geometry.pairwise_distances(dep.antenna_positions[0], dep.ap_positions[0])
        assert np.array_equal(np.argmin(to_ap, axis=1), dep.antenna_ap)
        to_ap = geometry.pairwise_distances(dep.client_positions[0], dep.ap_positions[0])
        assert np.array_equal(np.argmin(to_ap, axis=1), dep.client_ap)
