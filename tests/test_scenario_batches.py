"""Batched topology synthesis: one ``Deployment`` and one ``Scenario`` per
batch.

Every factory builds item ``i`` from the tree of ``seeds[i]`` alone, so a
batch is exactly its items synthesized one by one (rejection-sampled
layouts and rejected 8-AP placements included); deployments are read-only,
so engines that move clients never change the scenario they were given;
and an experiment builds one deployment per stack, not one per item.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec
from repro.api.experiments import get_experiment_def
from repro.api.runner import resolve_params
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.sim.network import NetworkSimulation
from repro.topology import geometry
from repro.topology.deployment import AntennaMode, Deployment
from repro.topology.scenarios import (
    Scenario,
    campus_scenario,
    eight_ap_placed,
    eight_ap_scenario,
    hidden_terminal_scenario,
    office_b,
    paired_scenarios,
    single_ap_scenario,
    three_ap_scenario,
)

ENV = office_b()
SEEDS = [7, 0, 123456789]
POSITIONS = ("ap_positions", "antenna_positions", "client_positions")


def _assert_item_equals(batch: Scenario, item: int, alone: Scenario) -> None:
    assert len(alone) == 1
    assert batch.seeds[item] == alone.seeds[0]
    assert batch.mode is alone.mode
    assert batch.radio == alone.radio and batch.mac == alone.mac
    for name in ("antenna_ap", "client_ap"):
        assert np.array_equal(getattr(batch.deployment, name), getattr(alone.deployment, name))
    for name in POSITIONS:
        assert np.array_equal(
            getattr(batch.deployment, name)[item], getattr(alone.deployment, name)[0]
        ), name


FACTORIES = {
    "paired": lambda seeds: paired_scenarios(
        ENV, [(0.0, 0.0), (18.0, 0.0)], antennas_per_ap=3, clients_per_ap=2, seeds=seeds
    ),
    "single_ap_cas": lambda seeds: {
        AntennaMode.CAS: single_ap_scenario(ENV, AntennaMode.CAS, seeds=seeds)
    },
    "single_ap_das": lambda seeds: {
        AntennaMode.DAS: single_ap_scenario(ENV, AntennaMode.DAS, seeds=seeds)
    },
    # DAS layouts rejection-sampled under the 60-degree sector rule.
    "three_ap": lambda seeds: three_ap_scenario(ENV, seeds=seeds),
    # DAS layouts rejection-sampled under the 5 m separation rule.
    "campus": lambda seeds: campus_scenario(
        ENV, n_rows=1, n_cols=2, spacing_m=20.0, clients_per_ap=3, seeds=seeds
    ),
    "hidden_terminal": lambda seeds: hidden_terminal_scenario(ENV, seeds=seeds),
    # AP placement and DAS layouts rejection-sampled per item.
    "eight_ap": lambda seeds: eight_ap_scenario(ENV, seeds=seeds)[1],
}


class TestBatchComposition:
    @pytest.mark.parametrize("factory", sorted(FACTORIES))
    def test_each_item_is_its_seed_alone(self, factory):
        build = FACTORIES[factory]
        batch = build(SEEDS)
        for item, seed in enumerate(SEEDS):
            alone = build([seed])
            assert batch.keys() == alone.keys()
            for mode, scenario in batch.items():
                assert len(scenario) == len(SEEDS)
                _assert_item_equals(scenario, item, alone[mode])

    def test_modes_built_apart_match_the_pair(self):
        pair = three_ap_scenario(ENV, seeds=SEEDS)
        for mode in (AntennaMode.CAS, AntennaMode.DAS):
            alone = three_ap_scenario(ENV, seeds=SEEDS, modes=(mode,))[mode]
            for item in range(len(SEEDS)):
                _assert_item_equals(pair[mode], item, alone.take([item]))

    def test_three_ap_das_obeys_the_sector_rule(self):
        das = three_ap_scenario(ENV, seeds=SEEDS)[AntennaMode.DAS].deployment
        for item in range(len(das)):
            for ap in range(das.n_aps):
                own = das.antenna_positions[item, das.antennas_of(ap)]
                assert geometry.sector_angles_ok(das.ap_positions[item, ap], own, 60.0)

    def test_eight_ap_seeds_are_drawn_synthesis_seeds(self):
        placed, pair = eight_ap_scenario(ENV, seeds=SEEDS)
        assert placed.all()
        seeds = pair[AntennaMode.DAS].seeds
        assert seeds == pair[AntennaMode.CAS].seeds
        assert all(isinstance(seed, int) for seed in seeds)
        assert list(seeds) != SEEDS


class TestEightApRejection:
    """Region 45 m with 300 attempts: seed 2 finds no placement, its
    neighbours 1 and 3 do."""

    KWARGS = {"region_m": 45.0, "max_attempts": 300}

    def test_failed_placement_is_a_rejected_item(self):
        placed, pair = eight_ap_scenario(ENV, seeds=[1, 2, 3], **self.KWARGS)
        assert placed.tolist() == [True, False, True]
        for mode, scenario in pair.items():
            assert len(scenario) == 2
            for item, seed in enumerate([1, 3]):
                alone_placed, alone = eight_ap_scenario(ENV, seeds=[seed], **self.KWARGS)
                assert alone_placed.tolist() == [True]
                _assert_item_equals(scenario, item, alone[mode])

    def test_all_rejected_gives_an_empty_batch(self):
        placed, pair = eight_ap_scenario(ENV, seeds=[2], **self.KWARGS)
        assert placed.tolist() == [False]
        assert all(len(scenario) == 0 for scenario in pair.values())

    def test_placed_mask_alone_matches_the_scenario(self):
        placed, __ = eight_ap_scenario(ENV, seeds=[1, 2, 3], **self.KWARGS)
        np.testing.assert_array_equal(
            eight_ap_placed(ENV, seeds=[1, 2, 3], **self.KWARGS), placed
        )


class TestFig16Gate:
    """A 40 m region: seeds 3 and 7 find no AP placement, the rest do."""

    def _params(self):
        defn = get_experiment_def("fig16")
        params = resolve_params(
            defn,
            RunSpec("fig16", params={"region_m": 40.0, "rounds_per_topology": 2}),
        )
        return defn, params

    def test_gate_is_the_placement_verdict(self):
        defn, params = self._params()
        seeds = list(range(1, 9))
        np.testing.assert_array_equal(
            defn.accept_batch(seeds, params),
            eight_ap_placed(ENV, seeds=seeds, region_m=40.0),
        )
        assert defn.accept_batch(seeds, params).tolist() == [
            True, True, False, True, True, True, False, True
        ]

    def test_building_a_rejected_seed_raises(self):
        defn, params = self._params()
        with pytest.raises(ValueError, match=r"fig16.*\[3\]"):
            defn.build_batch([1, 2, 3], params)


class TestDeploymentBatch:
    @pytest.fixture(scope="class")
    def pair(self):
        return paired_scenarios(
            ENV, [(0.0, 0.0), (18.0, 0.0)], antennas_per_ap=3, clients_per_ap=2, seeds=SEEDS
        )

    def test_shapes_and_shared_ownership(self, pair):
        dep = pair[AntennaMode.DAS].deployment
        assert len(dep) == len(SEEDS)
        assert dep.ap_positions.shape == (3, 2, 2)
        assert dep.antenna_positions.shape == (3, 6, 2)
        assert dep.client_positions.shape == (3, 4, 2)
        assert dep.antenna_ap.tolist() == [0, 0, 0, 1, 1, 1]
        assert dep.client_ap.tolist() == [0, 0, 1, 1]

    def test_take_selects_items_in_order(self, pair):
        scenario = pair[AntennaMode.DAS]
        taken = scenario.take([2, 0, 2])
        assert taken.seeds == (SEEDS[2], SEEDS[0], SEEDS[2])
        for name in POSITIONS:
            assert np.array_equal(
                getattr(taken.deployment, name), getattr(scenario.deployment, name)[[2, 0, 2]]
            )

    def test_positions_are_read_only(self, pair):
        dep = pair[AntennaMode.CAS].deployment
        for name in POSITIONS + ("antenna_ap", "client_ap"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dep, name)[0] = 0

    def test_construction_copies_the_callers_arrays(self):
        clients = np.ones((1, 2, 2))
        dep = Deployment(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), [0], clients, [0, 0])
        clients[0, 0] = 5.0
        assert clients.flags.writeable
        assert np.all(dep.client_positions == 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_positions": np.zeros((2, 2, 2))},  # batch sizes differ
            {"antenna_positions": np.zeros((1, 2, 2))},  # one owner for two antennas
            {"ap_positions": np.zeros((1, 2))},  # not a batch
            {"client_ap": [0, 3]},  # unknown AP
        ],
    )
    def test_rejects_inconsistent_batches(self, kwargs):
        args = dict(
            ap_positions=np.zeros((1, 1, 2)),
            antenna_positions=np.zeros((1, 1, 2)),
            antenna_ap=[0],
            client_positions=np.zeros((1, 2, 2)),
            client_ap=[0, 0],
        )
        with pytest.raises(ValueError):
            Deployment(**{**args, **kwargs})

    def test_scenario_needs_one_seed_per_item(self, pair):
        scenario = pair[AntennaMode.CAS]
        with pytest.raises(ValueError, match="one seed"):
            Scenario(scenario.deployment, scenario.radio, SEEDS[:2])


def _campus(seeds):
    return campus_scenario(
        ENV, n_rows=2, n_cols=2, spacing_m=20.0, clients_per_ap=3, seeds=seeds,
        modes=(AntennaMode.DAS,),
    )[AntennaMode.DAS]


def _snapshot(scenario) -> dict[str, np.ndarray]:
    return {name: np.array(getattr(scenario.deployment, name)) for name in POSITIONS}


class TestEnginesNeverWriteTheirScenario:
    MOBILITY = dict(
        mobility="gauss_markov", mobility_kwargs={"speed_mps": 6.0}, resound_period_rounds=2
    )

    def test_roaming_run_leaves_its_scenario_unchanged(self):
        scenario = _campus([0, 1])
        before = _snapshot(scenario)
        engine = RoundBasedEvaluatorBatch(
            scenario, MacMode.MIDAS, seeds=[0, 1], association="strongest_rssi",
            **self.MOBILITY,
        )
        engine.run(6)
        assert not np.array_equal(engine._mobility.positions, before["client_positions"])
        for name, values in before.items():
            assert np.array_equal(getattr(scenario.deployment, name), values), name

    def test_event_engine_leaves_its_scenario_unchanged(self):
        scenario = _campus([4])
        before = _snapshot(scenario)
        sim = NetworkSimulation(
            scenario, MacMode.MIDAS, seed=4, mobility="gauss_markov",
            mobility_kwargs={"speed_mps": 6.0}, resound_interval_s=0.01,
        )
        sim.run(0.03)
        assert not np.array_equal(sim._mobility.positions, before["client_positions"])
        for name, values in before.items():
            assert np.array_equal(getattr(scenario.deployment, name), values), name

    def test_two_engines_on_one_scenario_match_fresh_scenarios(self):
        """latency_vs_load-style: CAS and MIDAS engines built from one
        scenario (here with moving clients) give what engines built from a
        fresh scenario each give."""
        seeds = [3, 4]
        shared = single_ap_scenario(ENV, AntennaMode.DAS, seeds=seeds)
        engines = [
            RoundBasedEvaluatorBatch(shared, mode, seeds=seeds, **self.MOBILITY)
            for mode in (MacMode.CAS, MacMode.MIDAS)
        ]
        results = [engine.run(8) for engine in engines]
        for mode, got in zip((MacMode.CAS, MacMode.MIDAS), results):
            fresh = RoundBasedEvaluatorBatch(
                single_ap_scenario(ENV, AntennaMode.DAS, seeds=seeds), mode, seeds=seeds,
                **self.MOBILITY,
            ).run(8)
            for a, b in zip(got, fresh):
                assert np.array_equal(a.column("capacity_bps_hz"), b.column("capacity_bps_hz"))
                assert np.array_equal(a.column("n_streams"), b.column("n_streams"))


def test_event_engine_takes_a_batch_of_one():
    scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[3, 4])
    with pytest.raises(ValueError, match="batch of one"):
        NetworkSimulation(scenario, MacMode.MIDAS, seed=3)
    NetworkSimulation(scenario.take([1]), MacMode.MIDAS, seed=4)


def test_fig09_builds_one_deployment_per_stack(monkeypatch):
    """A 64-seed fig09 build (2x2 and 4x4, CAS and DAS) constructs one
    Deployment and one Scenario per stack: four each, not one per item."""
    built = {"deployment": 0, "scenario": 0}
    for key, cls in (("deployment", Deployment), ("scenario", Scenario)):
        original = cls.__post_init__

        def counting(self, key=key, original=original):
            built[key] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    defn = get_experiment_def("fig09")
    params = resolve_params(defn, RunSpec("fig09", n_topologies=64, seed=0))
    outcomes = defn.build_batch(list(range(64)), params)
    assert len(outcomes) == 64
    assert built == {"deployment": 4, "scenario": 4}
