"""Block-drawn placement is the per-attempt placement, value for value.

Every factory's client and DAS stacks, the DAS layout under each rule and
Fig 16's AP placement are compared with ``array_equal`` against
:mod:`helpers.placement_oracle`, which draws one attempt at a time from
generators built straight from :class:`numpy.random.SeedSequence`.
"""

import numpy as np
import pytest

from helpers import placement_oracle as oracle
from repro.channel.pathloss import cs_range_m
from repro.config import DEFAULT_MAC
from repro.obs import Telemetry, use
from repro.topology import geometry, scenarios
from repro.topology.deployment import AntennaMode, das_antenna_layout

SEEDS = range(200)
CENTERS = np.array([[0.0, 0.0], [15.0, 0.0], [7.5, 13.0]])

RULES = {
    "none": {},
    "coverage": {"within_radius_m": 9.0},
    "sector": {"min_sector_deg": 60.0},
    "separation": {"min_separation_m": 5.0},
    "all": {"min_sector_deg": 45.0, "min_separation_m": 4.0, "within_radius_m": 9.5},
}


class TestDasLayout:
    @pytest.mark.parametrize("rules", RULES.values(), ids=RULES.keys())
    def test_matches_per_attempt_layout(self, rules):
        for seed in SEEDS:
            block_rng = np.random.default_rng(seed)
            attempt_rng = np.random.default_rng(seed)
            layout = das_antenna_layout(block_rng, CENTERS, 4, **rules)
            expected = [oracle.das_antenna_layout(attempt_rng, c, 4, **rules) for c in CENTERS]
            np.testing.assert_array_equal(layout, expected, err_msg=f"seed {seed}")

    def test_one_center_gives_one_layout(self):
        layout = das_antenna_layout(np.random.default_rng(3), (2.0, -1.0), 3)
        expected = oracle.das_antenna_layout(np.random.default_rng(3), (2.0, -1.0), 3)
        assert layout.shape == (3, 2)
        np.testing.assert_array_equal(layout, expected)

    @staticmethod
    def _attempts_needed(seed, rules):
        """Attempts each AP takes on the per-attempt oracle."""
        rng = np.random.default_rng(seed)
        return [oracle.das_attempts(rng, center, 4, **rules)[1] for center in CENTERS]

    def test_max_attempts_is_per_ap(self):
        rules = RULES["sector"]
        needed = self._attempts_needed(0, rules)
        budget = max(needed)
        assert budget > 1
        layout = das_antenna_layout(
            np.random.default_rng(0), CENTERS, 4, max_attempts=budget, **rules
        )
        expected = das_antenna_layout(np.random.default_rng(0), CENTERS, 4, **rules)
        np.testing.assert_array_equal(layout, expected)
        with pytest.raises(RuntimeError, match=f"after {budget - 1} attempts"):
            das_antenna_layout(
                np.random.default_rng(0), CENTERS, 4, max_attempts=budget - 1, **rules
            )

    def test_telemetry_counts_attempts_per_item(self):
        rules = RULES["sector"]
        telemetry = Telemetry()
        with use(telemetry):
            das_antenna_layout(np.random.default_rng(0), CENTERS, 4, **rules)
        counters = telemetry.counters
        assert counters["topology.placements"] == 3
        assert counters["topology.placement_attempts"] == sum(self._attempts_needed(0, rules))

    def test_null_telemetry_draws_the_same(self):
        plain = das_antenna_layout(np.random.default_rng(5), CENTERS, 4, **RULES["all"])
        with use(Telemetry()):
            traced = das_antenna_layout(np.random.default_rng(5), CENTERS, 4, **RULES["all"])
        np.testing.assert_array_equal(plain, traced)


def _check_against_oracle(monkeypatch):
    """Route every factory's ``paired_scenarios`` call through a spy that
    compares its stacks with the per-attempt oracle; returns the checked
    item counts."""
    real = scenarios.paired_scenarios
    checked = []

    def spy(environment, ap_positions, **kwargs):
        pair = real(environment, ap_positions, **kwargs)
        clients, das = oracle.paired_positions(environment, ap_positions, **kwargs)
        for mode, scenario in pair.items():
            deployment = scenario.deployment
            np.testing.assert_array_equal(
                deployment.client_positions, clients.reshape(len(deployment), -1, 2)
            )
            if mode is AntennaMode.DAS:
                np.testing.assert_array_equal(
                    deployment.antenna_positions, das.reshape(len(deployment), -1, 2)
                )
        checked.append(len(clients))
        return pair

    monkeypatch.setattr(scenarios, "paired_scenarios", spy)
    return checked


class TestFactoriesMatchOracle:
    def test_single_ap(self, monkeypatch):
        checked = _check_against_oracle(monkeypatch)
        for mode in AntennaMode:
            scenarios.single_ap_scenario(scenarios.office_a(), mode, seeds=SEEDS)
        assert checked == [len(SEEDS)] * 2

    def test_paired_with_per_item_aps_and_every_rule(self, monkeypatch):
        checked = _check_against_oracle(monkeypatch)
        aps = np.random.default_rng(9).uniform(-20.0, 20.0, size=(len(SEEDS), 3, 2))
        scenarios.paired_scenarios(
            scenarios.office_b(),
            aps,
            seeds=SEEDS,
            antennas_per_ap=3,
            clients_per_ap=5,
            min_sector_deg=50.0,
            min_separation_m=3.0,
        )
        assert checked == [len(SEEDS)]

    def test_three_ap(self, monkeypatch):
        checked = _check_against_oracle(monkeypatch)
        scenarios.three_ap_scenario(scenarios.office_b(), seeds=SEEDS)
        assert checked == [len(SEEDS)]

    def test_campus(self, monkeypatch):
        checked = _check_against_oracle(monkeypatch)
        scenarios.campus_scenario(scenarios.office_a(), n_rows=2, n_cols=3, seeds=SEEDS)
        assert checked == [len(SEEDS)]

    def test_hidden_terminal(self, monkeypatch):
        checked = _check_against_oracle(monkeypatch)
        scenarios.hidden_terminal_scenario(scenarios.office_b(), seeds=SEEDS)
        assert checked == [len(SEEDS)]

    @pytest.mark.parametrize(
        "region_m, max_attempts", [(60.0, 5_000), (40.0, 60)], ids=["fig16", "crowded"]
    )
    def test_eight_ap(self, monkeypatch, region_m, max_attempts):
        environment = scenarios.office_b()
        sense_range = cs_range_m(environment.radio, DEFAULT_MAC)
        expected_placed, expected_aps, expected_seeds = [], [], []
        for seed in SEEDS:
            placement_seed, scenario_seed = np.random.SeedSequence(seed).spawn(2)
            aps = oracle.place_eight_aps(
                np.random.default_rng(placement_seed), region_m, sense_range, 3, max_attempts
            )
            expected_placed.append(aps is not None)
            if aps is not None:
                expected_aps.append(aps)
                expected_seeds.append(
                    int(np.random.default_rng(scenario_seed).integers(0, 2**31 - 1))
                )
        checked = _check_against_oracle(monkeypatch)
        placed, pair = scenarios.eight_ap_scenario(
            environment, seeds=SEEDS, region_m=region_m, max_attempts=max_attempts
        )
        np.testing.assert_array_equal(placed, expected_placed)
        assert checked == [placed.sum()]
        if region_m < 60.0:
            assert 0 < placed.sum() < len(SEEDS)  # both outcomes exercised
        for scenario in pair.values():
            np.testing.assert_array_equal(
                scenario.deployment.ap_positions, np.reshape(expected_aps, (-1, 8, 2))
            )
            assert list(scenario.seeds) == expected_seeds


class TestGeometryStacks:
    def test_annulus_and_rect_points_match_draw_calls(self):
        rng = np.random.default_rng(1)
        draws = rng.random((5, 2, 7))
        again = np.random.default_rng(1)
        for attempt in draws:
            np.testing.assert_array_equal(
                geometry.annulus_points(attempt, (1.0, 2.0), 3.0, 8.0),
                oracle.annulus_attempt(again, (1.0, 2.0), 3.0, 8.0, 7),
            )
        rect = geometry.rect_points(draws, (5.0, 55.0), (-3.0, 4.0))
        again = np.random.default_rng(1)
        for points in rect:
            np.testing.assert_array_equal(points[:, 0], again.uniform(5.0, 55.0, 7))
            np.testing.assert_array_equal(points[:, 1], again.uniform(-3.0, 4.0, 7))

    def test_stacked_rules_match_single_sets(self):
        pts = np.random.default_rng(2).uniform(-10, 10, size=(6, 5, 4, 2))
        centers = np.random.default_rng(3).uniform(-1, 1, size=(6, 1, 2))
        sector = geometry.sector_angles_ok(centers, pts, 40.0)
        spread = geometry.min_pairwise_distance(pts)
        for i in range(6):
            for j in range(5):
                assert sector[i, j] == geometry.sector_angles_ok(centers[i, 0], pts[i, j], 40.0)
                assert spread[i, j] == geometry.min_pairwise_distance(pts[i, j])
