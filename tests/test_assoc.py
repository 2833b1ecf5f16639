"""Association & coordination layer tests (`repro.assoc`)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assoc_oracle
from helpers.goldens import assert_network_matches, assert_rounds_match, goldens
from repro.api import RunSpec, UnknownNameError
from repro.assoc import (
    AssociationPolicy,
    CoordinationMode,
    HysteresisHandoffPolicy,
    association_names,
    build_batch_association_state,
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
        seeds=[4],
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


class TestBatchAssociationState:
    def _state(self, scenario, policy="strongest_rssi", n_items=1):
        return build_batch_association_state(
            policy, None, n_items, scenario.deployment, scenario.mac
        )

    def _rssi_toward(self, scenario, ap: int, n_items: int = 1) -> np.ndarray:
        """RSSI that makes every client of every item prefer ``ap``."""
        dep = scenario.deployment
        rssi = np.full((n_items, dep.n_clients, dep.n_antennas), -90.0)
        rssi[..., dep.antennas_of(ap)] = -40.0
        return rssi

    def test_initial_map_matches_deployment(self, campus_das):
        state = self._state(campus_das, "nearest_anchor", n_items=2)
        np.testing.assert_array_equal(
            state.client_ap, [campus_das.deployment.client_ap] * 2
        )
        assert state.sounding_count == 0 and state.tag_builds == 0
        assert state.handoff_log.shape == (0, 5)

    def test_resound_logs_handoffs_and_rebuilds_tags(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das, n_items=2)
        events = state.resound(self._rssi_toward(campus_das, 1, n_items=2))
        movers = np.flatnonzero(dep.client_ap != 1)
        # Rows are (sounding, item, client, from_ap, to_ap), item-major.
        np.testing.assert_array_equal(events[:, 1], np.repeat([0, 1], movers.size))
        np.testing.assert_array_equal(events[:, 2], np.tile(movers, 2))
        assert (events[:, 0] == 0).all() and (events[:, 4] == 1).all()
        np.testing.assert_array_equal(events, state.handoff_log)
        np.testing.assert_array_equal(state.client_ap, np.ones((2, dep.n_clients)))
        np.testing.assert_array_equal(state.handoff_count, [movers.size] * 2)
        assert state.tag_builds == state.sounding_count == 1
        # AP 0 lost everyone: its tags are empty; AP 1's tags live on the
        # global client axis with one anchor set per member.
        assert not state.tag_stack(0).any()
        assert state.members_mask(1).all()
        assert state.tag_stack(1).any(axis=2).all()

    def test_tags_false_outside_membership(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das, "nearest_anchor")
        state.resound(self._rssi_toward(campus_das, 0))
        for ap in range(dep.n_aps):
            outsiders = ~state.members_mask(ap)
            assert not state.tag_stack(ap)[outsiders].any()
        # Every client carries exactly tag_width tags, all on its own AP.
        np.testing.assert_array_equal(state.tags.sum(axis=2), campus_das.mac.tag_width)
        own_ap = dep.antenna_ap[np.nonzero(state.tags)[2]]
        np.testing.assert_array_equal(own_ap, dep.client_ap[np.nonzero(state.tags)[1]])

    def test_outage_accounting(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das)
        events = state.resound(self._rssi_toward(campus_das, 1))
        moved = events[:, 2]
        assert state.handoff_count[0] == moved.size
        assert state.outage_count[0] == moved.size  # all still pending
        served = np.zeros((1, dep.n_clients), dtype=bool)
        served[0, moved[0]] = True
        state.note_served(served)
        assert state.outage_count[0] == moved.size - 1
        # Next sounding: the unserved movers become completed outages
        # (and nobody moves again -- RSSI still points at AP 1).
        state.resound(self._rssi_toward(campus_das, 1))
        assert state.handoff_count[0] == moved.size
        assert state.outage_count[0] == moved.size - 1
        # Serving now is too late to undo a completed outage.
        served[0, moved] = True
        state.note_served(served)
        assert state.outage_count[0] == moved.size - 1
        assert dep.n_clients >= moved.size > 1

    def test_overheard_masks(self, campus_das):
        dep = campus_das.deployment
        state = self._state(campus_das, "nearest_anchor", n_items=2)
        active = np.zeros((2, dep.n_antennas), dtype=bool)
        # Nothing sounded yet: nobody overhears anything.
        assert not state.overheard_masks(active | True).any()
        rssi = self._rssi_toward(campus_das, 1, n_items=2)
        state.resound(rssi)
        active[1, dep.antennas_of(1)[0]] = True
        overheard = state.overheard_masks(active)
        # Item 0 has nothing on the air; item 1's clients all hear AP 1 at
        # -40 dBm, above the NAV decode threshold.
        assert not overheard[0].any() and overheard[1].all()

    def test_policy_contract_enforced(self, campus_das):
        dep, mac = campus_das.deployment, campus_das.mac
        rssi = self._rssi_toward(campus_das, 0)
        state = build_batch_association_state(_BadShapePolicy(), None, 1, dep, mac)
        with pytest.raises(ValueError, match="shape"):
            state.resound(rssi)
        state = build_batch_association_state(_OutOfRangePolicy(), None, 1, dep, mac)
        with pytest.raises(ValueError, match="out-of-range"):
            state.resound(rssi)
        state = self._state(campus_das)
        with pytest.raises(ValueError, match="one row per client"):
            state.resound(rssi[:, :-1])
        with pytest.raises(ValueError, match="one row per client"):
            state.resound(np.concatenate([rssi, rssi]))

    def test_tag_width_bounds(self, campus_das):
        # Widths above an AP's antenna count clamp to it; zero is rejected
        # (it would tag nobody and leave MIDAS nothing to pick).
        wide = replace(campus_das.mac, tag_width=99)
        state = build_batch_association_state(None, None, 1, campus_das.deployment, wide)
        state.resound(self._rssi_toward(campus_das, 0))
        assert state.tags.any(axis=2).all()
        assert (state.tags.sum(axis=2) == 4).all()
        zero = replace(campus_das.mac, tag_width=0)
        state = build_batch_association_state(None, None, 1, campus_das.deployment, zero)
        with pytest.raises(ValueError, match="tag_width"):
            state.resound(self._rssi_toward(campus_das, 0))

    @pytest.mark.parametrize("engine", ["round", "event"])
    def test_zero_tag_width_rejected_at_engine_construction(self, campus_das, engine):
        scenario = replace(campus_das, mac=replace(campus_das.mac, tag_width=0))
        with pytest.raises(ValueError, match="tag_width"):
            if engine == "round":
                RoundBasedEvaluatorBatch(scenario, MacMode.MIDAS, seeds=[4])
            else:
                NetworkSimulation(scenario, MacMode.MIDAS, seed=4)

    def test_instance_with_kwargs_rejected(self, campus_das):
        with pytest.raises(ValueError, match="policy instance"):
            build_batch_association_state(
                HysteresisHandoffPolicy(),
                {"hysteresis_db": 2.0},
                1,
                campus_das.deployment,
                campus_das.mac,
            )

    def test_instance_only_for_a_batch_of_one(self, campus_das):
        policy = HysteresisHandoffPolicy()
        state = build_batch_association_state(
            policy, None, 1, campus_das.deployment, campus_das.mac
        )
        assert state.n_items == 1
        with pytest.raises(ValueError, match="policy instance"):
            build_batch_association_state(
                policy, None, 2, campus_das.deployment, campus_das.mac
            )

    def test_items_grouped_by_policy_and_arguments(self, campus_das, monkeypatch):
        built = []
        original = HysteresisHandoffPolicy.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            original(self, *args, **kwargs)

        monkeypatch.setattr(HysteresisHandoffPolicy, "__init__", counting_init)
        names = ["hysteresis_handoff", "nearest_anchor", "hysteresis_handoff"] * 2
        kwargs = [{"hysteresis_db": 2.0}, None, {"hysteresis_db": 6.0}] * 2
        state = build_batch_association_state(
            names, kwargs, 6, campus_das.deployment, campus_das.mac
        )
        assert state.n_items == 6
        assert built == [{"hysteresis_db": 2.0}, {"hysteresis_db": 6.0}]


_HYSTERESIS_KWARGS = st.fixed_dictionaries(
    {
        "hysteresis_db": st.sampled_from([0.0, 2.0, 4.0]),
        "dwell_soundings": st.sampled_from([1, 2]),
        "smoothing": st.sampled_from([0.5, 1.0]),
    }
)
_ITEM_POLICY = st.one_of(
    st.tuples(st.sampled_from(["nearest_anchor", "strongest_rssi"]), st.none()),
    st.tuples(st.just("hysteresis_handoff"), _HYSTERESIS_KWARGS),
)


class TestStackedStateMatchesOracle:
    """Random soundings, served masks and overheard queries through one
    stacked state mixing policies, against one scalar state per item."""

    @settings(max_examples=40, deadline=None)
    @given(
        policies=st.lists(_ITEM_POLICY, min_size=1, max_size=5),
        tag_width=st.integers(1, 5),
        n_soundings=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_item_matches_its_oracle(
        self, campus_das, policies, tag_width, n_soundings, seed
    ):
        dep = campus_das.deployment
        mac = replace(campus_das.mac, tag_width=tag_width)
        n_items = len(policies)
        state = build_batch_association_state(
            [name for name, __ in policies],
            [kwargs for __, kwargs in policies],
            n_items, dep, mac,
        )
        oracles = [
            assoc_oracle.AssociationState(
                assoc_oracle.scalar_policy(name, kwargs), dep, mac
            )
            for name, kwargs in policies
        ]
        rng = np.random.default_rng(seed)
        shape = (n_items, dep.n_clients, dep.n_antennas)
        for __ in range(n_soundings):
            # Whole-dB RSSI around the NAV decode threshold: ties in the
            # antenna ranking and in the per-AP argmax are common.
            rssi = mac.nav_decode_dbm + rng.integers(-12, 12, size=shape).astype(float)
            state.resound(rssi)
            served = rng.random((n_items, dep.n_clients)) < 0.3
            active = rng.random((n_items, dep.n_antennas)) < 0.2
            state.note_served(served)
            overheard = state.overheard_masks(active)
            for b, oracle in enumerate(oracles):
                oracle.resound(rssi[b])
                oracle.note_served(np.flatnonzero(served[b]))
                np.testing.assert_array_equal(state.client_ap[b], oracle.client_ap)
                for ap in range(dep.n_aps):
                    np.testing.assert_array_equal(
                        state.tag_stack(ap)[b], oracle.tag_mask(ap)
                    )
                rows = state.handoff_log[state.handoff_log[:, 1] == b]
                assert rows[:, [0, 2, 3, 4]].tolist() == oracle.handoff_events
                assert state.handoff_count[b] == oracle.handoff_count
                assert state.outage_count[b] == oracle.outage_count
                np.testing.assert_array_equal(
                    overheard[b], oracle.overheard_mask(np.flatnonzero(active[b]))
                )
        assert state.tag_builds == state.sounding_count == n_soundings


class TestHandoffTagRederivation:
    """The roaming contract: a client crossing a cell boundary gets its
    tags rebuilt exactly once per sounding, whatever batch the topology is
    evaluated in."""

    MOBILITY = dict(
        mobility="gauss_markov",
        mobility_kwargs={"speed_mps": 4.0},
        resound_period_rounds=2,
    )

    def _evaluator(self, scenario, seeds):
        return RoundBasedEvaluatorBatch(
            scenario,
            MacMode.MIDAS,
            seeds=seeds,
            association="strongest_rssi",
            **self.MOBILITY,
        )

    @staticmethod
    def _events(state, item: int = 0) -> list[list[int]]:
        """``[sounding, client, from_ap, to_ap]`` rows of one item."""
        log = state.handoff_log
        return log[log[:, 1] == item][:, [0, 2, 3, 4]].tolist()

    def _network(self, scenario):
        return NetworkSimulation(
            scenario,
            MacMode.MIDAS,
            seed=4,
            association="strongest_rssi",
            mobility="gauss_markov",
            mobility_kwargs={"speed_mps": 4.0},
            resound_interval_s=0.02,
        )

    def test_round_engine_rederives_once_per_sounding(self, campus_das):
        ev = self._evaluator(campus_das, [4])
        ev.run(12)
        assert ev.association.handoff_count[0] > 0
        assert ev.association.tag_builds == ev.association.sounding_count == 7

    def test_handoffs_match_goldens(self, campus_das):
        golden = goldens()["campus_handoffs"]
        ev = self._evaluator(campus_das, [4])
        [result] = ev.run(12)
        assert self._events(ev.association) == golden["events"]
        assert ev.association.tag_builds == golden["tag_builds"]
        assert_rounds_match(result, golden["rounds"])

    def test_handoffs_independent_of_batch(self, campus_das):
        alone = self._evaluator(campus_das, [4])
        alone_result = alone.run(12)[0]
        paired = self._evaluator(campus_das.take([0, 0]), [4, 5])
        paired_result = paired.run(12)[0]
        item, reference = paired.association, alone.association
        assert self._events(item) == self._events(reference)
        assert item.tag_builds == reference.tag_builds
        assert item.outage_count[0] == reference.outage_count[0]
        np.testing.assert_array_equal(item.client_ap[0], reference.client_ap[0])
        np.testing.assert_array_equal(item.tags[0], reference.tags[0])
        assert (
            paired_result.mean_capacity_bps_hz == alone_result.mean_capacity_bps_hz
        )

    def test_network_engine_rederives_once_per_sounding(self, campus_das):
        sim = self._network(campus_das)
        sim.run(0.1)
        assert sim.association.n_items == 1
        assert sim.association.tag_builds == sim.association.sounding_count
        assert sim.association.sounding_count > 1

    def test_network_handoffs_match_goldens(self, campus_das):
        golden = goldens()["network_handoffs"]
        sim = self._network(campus_das)
        result = sim.run(0.1)
        state = sim.association
        assert self._events(state) == golden["events"]
        assert state.tag_builds == golden["tag_builds"]
        assert state.outage_count[0] == golden["outages"]
        assert_network_matches(result, golden["result"])


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
