"""Association & coordination layer tests (`repro.assoc`)."""

import numpy as np
import pytest

from helpers.goldens import assert_rounds_match, goldens
from repro.api import RunSpec, UnknownNameError
from repro.assoc import (
    AssociationPolicy,
    CoordinationMode,
    HysteresisHandoffPolicy,
    association_names,
    build_association_state,
    resolve_association,
    resolve_coordination,
)
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.sim.network import NetworkSimulation
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import campus_scenario, office_b


@pytest.fixture(scope="module")
def campus_das():
    # Two-AP campus strip; seed 4 is known to produce handoffs under
    # strongest_rssi with pedestrian-plus mobility (see test below).
    return campus_scenario(
        office_b(),
        n_rows=1,
        n_cols=2,
        spacing_m=18.0,
        clients_per_ap=3,
        seed=4,
        modes=(AntennaMode.DAS,),
    )[AntennaMode.DAS]


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = association_names()
        for name in ("nearest_anchor", "strongest_rssi", "hysteresis_handoff"):
            assert name in names

    def test_unknown_policy_rejected(self):
        with pytest.raises(UnknownNameError):
            resolve_association("definitely_not_a_policy")

    def test_resolve_coordination(self):
        assert resolve_coordination(None) is CoordinationMode.INDEPENDENT
        assert (
            resolve_coordination("coordinated_scheduling")
            is CoordinationMode.COORDINATED_SCHEDULING
        )
        assert (
            resolve_coordination(CoordinationMode.INDEPENDENT)
            is CoordinationMode.INDEPENDENT
        )
        with pytest.raises(UnknownNameError):
            resolve_coordination("psychic")


class TestPolicies:
    def test_nearest_anchor_never_moves(self):
        policy = resolve_association("nearest_anchor")
        current = np.array([0, 1, 1])
        rssi = np.array([[-90.0, -30.0], [-30.0, -90.0], [-30.0, -90.0]])
        np.testing.assert_array_equal(
            policy.reevaluate(current, rssi, 0), current
        )

    def test_strongest_rssi_is_argmax(self):
        policy = resolve_association("strongest_rssi")
        rssi = np.array([[-90.0, -30.0], [-30.0, -90.0], [-50.0, -50.0]])
        np.testing.assert_array_equal(
            policy.reevaluate(np.array([0, 0, 1]), rssi, 0), [1, 0, 0]
        )

    def test_hysteresis_needs_margin_and_dwell(self):
        policy = HysteresisHandoffPolicy(
            hysteresis_db=4.0, dwell_soundings=2, smoothing=1.0
        )
        current = np.array([0])
        weak = np.array([[-60.0, -58.0]])  # 2 dB short of the margin
        strong = np.array([[-60.0, -50.0]])  # 10 dB over
        # Sounding 0/1: inside the initial dwell window, no move ever.
        np.testing.assert_array_equal(policy.reevaluate(current, strong, 0), [0])
        np.testing.assert_array_equal(policy.reevaluate(current, strong, 1), [0])
        # Dwelt, but margin too small: stay.
        np.testing.assert_array_equal(policy.reevaluate(current, weak, 2), [0])
        # Dwelt and margin cleared: move.
        np.testing.assert_array_equal(policy.reevaluate(current, strong, 3), [1])
        # Freshly moved: the dwell clock restarts.
        np.testing.assert_array_equal(
            policy.reevaluate(np.array([1]), np.array([[-50.0, -60.0]]), 4), [1]
        )

    def test_hysteresis_smoothing_filters_spikes(self):
        policy = HysteresisHandoffPolicy(
            hysteresis_db=4.0, dwell_soundings=1, smoothing=0.25
        )
        current = np.array([0])
        steady = np.array([[-50.0, -60.0]])
        spike = np.array([[-50.0, -40.0]])
        policy.reevaluate(current, steady, 0)
        # One 10-dB spike through a 0.25 EMA moves the smoothed estimate
        # only 2.5 dB -- below the 4 dB margin, so no ping-pong.
        np.testing.assert_array_equal(policy.reevaluate(current, spike, 1), [0])

    def test_hysteresis_validation(self):
        with pytest.raises(ValueError):
            HysteresisHandoffPolicy(hysteresis_db=-1.0)
        with pytest.raises(ValueError):
            HysteresisHandoffPolicy(dwell_soundings=0)
        with pytest.raises(ValueError):
            HysteresisHandoffPolicy(smoothing=0.0)


class _BadShapePolicy(AssociationPolicy):
    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return current_ap[:-1]


class _OutOfRangePolicy(AssociationPolicy):
    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return np.full_like(current_ap, 99)


class TestAssociationState:
    def _state(self, scenario, policy="strongest_rssi"):
        return build_association_state(
            policy, None, scenario.deployment, scenario.mac
        )

    def _rssi_toward(self, scenario, ap: int) -> np.ndarray:
        """RSSI that makes every client prefer ``ap``."""
        dep = scenario.deployment
        rssi = np.full((dep.n_clients, dep.n_antennas), -90.0)
        rssi[:, dep.antennas_of(ap)] = -40.0
        return rssi

    def test_initial_map_matches_deployment(self, campus_das):
        state = self._state(campus_das, "nearest_anchor")
        np.testing.assert_array_equal(
            state.client_ap, campus_das.deployment.client_ap
        )
        assert state.sounding_count == 0 and state.tag_builds == 0

    def test_resound_logs_handoffs_and_rebuilds_tags(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das)
        events = state.resound(self._rssi_toward(campus_das, 1))
        movers = np.flatnonzero(dep.client_ap != 1)
        assert {e.client for e in events} == set(movers.tolist())
        assert all(e.to_ap == 1 and e.sounding_index == 0 for e in events)
        np.testing.assert_array_equal(state.client_ap, np.ones(dep.n_clients))
        assert state.tag_builds == state.sounding_count == 1
        # AP 0 lost everyone: its tag mask is empty; AP 1's tags live on
        # the global client axis with one anchor set per member.
        assert not state.tag_mask(0).any()
        assert state.member_mask(1).all()
        assert state.tag_mask(1).any(axis=1).all()

    def test_tag_mask_false_outside_membership(self, campus_das):
        state = self._state(campus_das, "nearest_anchor")
        state.resound(self._rssi_toward(campus_das, 0))
        for ap in range(campus_das.deployment.n_aps):
            outsiders = ~state.member_mask(ap)
            assert not state.tag_mask(ap)[outsiders].any()
            for local in range(state.tag_mask(ap).shape[1]):
                tagged = state.tagged_clients(ap, local)
                assert state.member_mask(ap)[tagged].all()

    def test_outage_accounting(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das)
        events = state.resound(self._rssi_toward(campus_das, 1))
        moved = [e.client for e in events]
        assert state.handoff_count == len(moved)
        assert state.outage_count == len(moved)  # all still pending
        state.note_served([moved[0]])
        assert state.outage_count == len(moved) - 1
        # Next sounding: the unserved movers become completed outages
        # (and nobody moves again -- RSSI still points at AP 1).
        state.resound(self._rssi_toward(campus_das, 1))
        assert state.handoff_count == len(moved)
        assert state.outage_count == len(moved) - 1
        # Serving now is too late to undo a completed outage.
        state.note_served(moved)
        assert state.outage_count == len(moved) - 1
        assert dep.n_clients >= len(moved) > 1

    def test_policy_contract_enforced(self, campus_das):
        rssi = self._rssi_toward(campus_das, 0)
        state = build_association_state(
            _BadShapePolicy(), None, campus_das.deployment, campus_das.mac
        )
        with pytest.raises(ValueError, match="shape"):
            state.resound(rssi)
        state = build_association_state(
            _OutOfRangePolicy(), None, campus_das.deployment, campus_das.mac
        )
        with pytest.raises(ValueError, match="out-of-range"):
            state.resound(rssi)
        state = self._state(campus_das)
        with pytest.raises(ValueError, match="one row per client"):
            state.resound(rssi[:-1])

    def test_instance_with_kwargs_rejected(self, campus_das):
        with pytest.raises(ValueError, match="policy instance"):
            build_association_state(
                HysteresisHandoffPolicy(),
                {"hysteresis_db": 2.0},
                campus_das.deployment,
                campus_das.mac,
            )


class TestHandoffTagRederivation:
    """The roaming contract: a client crossing a cell boundary gets its
    tags rebuilt exactly once per sounding, whatever batch the topology is
    evaluated in."""

    MOBILITY = dict(
        mobility="gauss_markov",
        mobility_kwargs={"speed_mps": 4.0},
        resound_period_rounds=2,
    )

    def _evaluator(self, scenarios, seeds):
        return RoundBasedEvaluatorBatch(
            scenarios,
            MacMode.MIDAS,
            seeds=seeds,
            association="strongest_rssi",
            **self.MOBILITY,
        )

    def test_round_engine_rederives_once_per_sounding(self, campus_das):
        ev = self._evaluator([campus_das], [4])
        ev.run(12)
        item = ev.association.items[0]
        assert item.handoff_count > 0
        assert item.tag_builds == item.sounding_count == 7

    def test_handoffs_match_goldens(self, campus_das):
        golden = goldens()["campus_handoffs"]
        ev = self._evaluator([campus_das], [4])
        [result] = ev.run(12)
        item = ev.association.items[0]
        events = [
            [e.sounding_index, e.client, e.from_ap, e.to_ap]
            for e in item.handoff_events
        ]
        assert events == golden["events"]
        assert item.tag_builds == golden["tag_builds"]
        assert_rounds_match(result, golden["rounds"])

    def test_handoffs_independent_of_batch(self, campus_das):
        alone = self._evaluator([campus_das], [4])
        alone_result = alone.run(12)[0]
        paired = self._evaluator([campus_das, campus_das], [4, 5])
        paired_result = paired.run(12)[0]
        item, reference = paired.association.items[0], alone.association.items[0]
        assert item.handoff_events == reference.handoff_events
        assert item.tag_builds == reference.tag_builds
        assert item.outage_count == reference.outage_count
        np.testing.assert_array_equal(item.client_ap, reference.client_ap)
        for ap in range(campus_das.deployment.n_aps):
            np.testing.assert_array_equal(item.tag_mask(ap), reference.tag_mask(ap))
        assert (
            paired_result.mean_capacity_bps_hz == alone_result.mean_capacity_bps_hz
        )

    def test_network_engine_rederives_once_per_sounding(self, campus_das):
        sim = NetworkSimulation(
            campus_das,
            MacMode.MIDAS,
            seed=4,
            association="strongest_rssi",
            mobility="gauss_markov",
            mobility_kwargs={"speed_mps": 4.0},
            resound_interval_s=0.02,
        )
        sim.run(0.1)
        assert sim.association.tag_builds == sim.association.sounding_count
        assert sim.association.sounding_count > 1


class TestSpecHashStability:
    def test_unset_axes_leave_hash_unchanged(self):
        bare = RunSpec("fig09", n_topologies=4, seed=1)
        assert "association" not in bare.canonical_json()
        assert "coordination" not in bare.canonical_json()
        explicit = RunSpec(
            "fig09",
            n_topologies=4,
            seed=1,
            association="nearest_anchor",
            coordination="independent",
        )
        # Setting the universal defaults is semantically a no-op but names
        # the axes, so the hash differs -- only *unset* specs are stable.
        assert explicit.spec_hash() != bare.spec_hash()
        assert RunSpec.from_dict(bare.to_dict()) == bare
        assert RunSpec.from_dict(explicit.to_dict()) == explicit
