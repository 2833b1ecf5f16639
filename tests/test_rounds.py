"""Round-based (quasi-static) evaluator tests, on a batch of one topology."""

import numpy as np
import pytest

from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, three_ap_scenario


def evaluator(scenario, mode, seed):
    """The round engine on one topology: a batch of one."""
    return RoundBasedEvaluatorBatch(scenario, mode, seeds=[seed])


def run(scenario, mode, seed, n_rounds):
    return evaluator(scenario, mode, seed).run(n_rounds)[0]


@pytest.fixture(scope="module")
def overhearing_pair():
    # Find a topology where the CAS APs mutually overhear (the paper's rule).
    for seed in range(200):
        pair = three_ap_scenario(office_b(), seeds=[seed])
        if RoundBasedEvaluatorBatch.mutual_overhear_mask(pair[AntennaMode.CAS], [seed])[0]:
            return pair, seed
    pytest.skip("no overhearing topology found in 200 seeds")


class TestCasRounds:
    def test_serialization_under_full_overhearing(self, overhearing_pair):
        pair, seed = overhearing_pair
        result = run(pair[AntennaMode.CAS], MacMode.CAS, seed, 6)
        # Exactly one AP transmits its four streams per round.
        assert np.all(result.column("n_streams") == 4)
        assert np.all((result.column("per_ap_streams") > 0).sum(axis=1) == 1)

    def test_primary_rotates(self, overhearing_pair):
        pair, seed = overhearing_pair
        result = run(pair[AntennaMode.CAS], MacMode.CAS, seed, 6)
        actives = np.argmax(result.column("per_ap_streams"), axis=1)
        assert set(actives.tolist()) == {0, 1, 2}

    def test_evaluator_sees_the_gate_verdict(self, overhearing_pair):
        pair, seed = overhearing_pair
        assert evaluator(pair[AntennaMode.CAS], MacMode.CAS, seed).aps_mutually_overhear()[0]


class TestMidasRounds:
    def test_primary_always_full(self, overhearing_pair):
        pair, seed = overhearing_pair
        result = run(pair[AntennaMode.DAS], MacMode.MIDAS, seed, 6)
        for index, per_ap_streams in enumerate(result.column("per_ap_streams")):
            primary = index % 3
            assert per_ap_streams[primary] >= 1

    def test_streams_at_least_cas(self, overhearing_pair):
        pair, seed = overhearing_pair
        cas = run(pair[AntennaMode.CAS], MacMode.CAS, seed, 12)
        midas = run(pair[AntennaMode.DAS], MacMode.MIDAS, seed, 12)
        assert midas.mean_streams >= cas.mean_streams * 0.9

    def test_capacity_positive(self, overhearing_pair):
        pair, seed = overhearing_pair
        result = run(pair[AntennaMode.DAS], MacMode.MIDAS, seed, 4)
        assert result.mean_capacity_bps_hz > 0

    def test_rejects_zero_rounds(self, overhearing_pair):
        pair, seed = overhearing_pair
        ev = evaluator(pair[AntennaMode.DAS], MacMode.MIDAS, seed)
        with pytest.raises(ValueError):
            ev.run(0)

    def test_deterministic(self, overhearing_pair):
        pair, seed = overhearing_pair
        a = run(pair[AntennaMode.DAS], MacMode.MIDAS, seed, 5)
        b = run(pair[AntennaMode.DAS], MacMode.MIDAS, seed, 5)
        assert a.mean_capacity_bps_hz == b.mean_capacity_bps_hz


class TestDrrSettlement:
    def test_blocked_aps_accrue_waiting_credit(self, overhearing_pair):
        # Regression: every AP settles every round.  Under full CAS
        # overhearing only the primary transmits; the other two APs send
        # nothing, and before the fix their DRR counters never moved.
        pair, seed = overhearing_pair
        scenario = pair[AntennaMode.CAS]
        ev = evaluator(scenario, MacMode.CAS, seed)
        [per_ap_streams] = ev.evaluate_round(primary_ap=0)["per_ap_streams"]
        np.testing.assert_array_equal(np.flatnonzero(per_ap_streams), [0])
        # Counters are global-axis: only the blocked AP's own members move.
        for blocked_ap in (1, 2):
            members = ev.association.members_mask(blocked_ap)[0]
            expected = np.zeros(scenario.deployment.n_clients)
            expected[members] = 1.0
            np.testing.assert_array_equal(ev._drr[blocked_ap].counters[0], expected)

    def test_transmitting_ap_settles_paper_rule(self, overhearing_pair):
        pair, seed = overhearing_pair
        scenario = pair[AntennaMode.CAS]
        ev = evaluator(scenario, MacMode.CAS, seed)
        [per_ap_streams] = ev.evaluate_round(primary_ap=0)["per_ap_streams"]
        # Four streams, four clients: everyone served, counters at -1 each.
        assert per_ap_streams[0] == 4
        expected = np.zeros(scenario.deployment.n_clients)
        expected[ev.association.members_mask(0)[0]] = -1.0
        np.testing.assert_array_equal(ev._drr[0].counters[0], expected)
