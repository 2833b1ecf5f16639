"""Multi-class EDCA coverage: primary/secondary access-category selection
with backlogged VOICE/VIDEO/BEST_EFFORT queues driving client selection.

Until the traffic subsystem, only the single best-effort default was
exercised by network simulations; these tests drive the prioritization
logic end to end -- through :class:`repro.mac.edca.EdcaQueueSet`, through
:func:`repro.core.selection.select_clients_for_antennas`, and through both
round engine with a scripted multi-class arrival model."""

import numpy as np

from helpers.goldens import assert_rounds_match, goldens
from repro.core.selection import DeficitRoundRobin, select_clients_for_antennas
from repro.core.tagging import TagTable
from repro.mac.edca import AccessCategory, EdcaQueueSet, QueuedPacket
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario
from repro.traffic import Packet, TrafficModel

ENV = office_b()


class ScriptedTraffic(TrafficModel):
    """Deterministic arrivals: ``script`` rows are
    ``(round, client, bytes, category)``."""

    def __init__(self, script):
        self.script = tuple(script)

    def init_state(self, rng, n_clients):
        return {"round": 0}

    def arrivals(self, state, rng, n_clients, t0_s, dt_s):
        current = state["round"]
        state["round"] += 1
        return [
            Packet(client, float(size), t0_s, category)
            for round_index, client, size, category in self.script
            if round_index == current
        ]


class TestEdcaQueueSetMultiClass:
    def _loaded(self) -> EdcaQueueSet:
        queues = EdcaQueueSet()
        queues.enqueue(QueuedPacket(client=0, category=AccessCategory.BEST_EFFORT))
        queues.enqueue(QueuedPacket(client=1, category=AccessCategory.VOICE))
        queues.enqueue(QueuedPacket(client=2, category=AccessCategory.VIDEO))
        queues.enqueue(QueuedPacket(client=1, category=AccessCategory.BEST_EFFORT))
        return queues

    def test_primary_class_is_highest_backlogged(self):
        assert self._loaded().primary_class() is AccessCategory.VOICE

    def test_backlogged_clients_filter_by_class(self):
        queues = self._loaded()
        assert np.array_equal(
            queues.backlogged_clients(AccessCategory.VOICE), [1]
        )
        assert np.array_equal(queues.backlogged_clients(), [0, 1, 2])

    def test_pop_searches_primary_then_lower_classes(self):
        queues = self._loaded()
        popped = queues.pop_for_client(1)
        assert popped.category is AccessCategory.VOICE  # primary first
        popped = queues.pop_for_client(1)
        assert popped.category is AccessCategory.BEST_EFFORT  # fill-in
        assert queues.pop_for_client(1) is None

    def test_selection_from_primary_class_backlog(self):
        queues = self._loaded()
        # Flat RSSI, width 2 of 2: every client tagged to both antennas.
        tags = TagTable.from_rssi(np.zeros((3, 2)), 2)
        drr = DeficitRoundRobin(3)
        primary = queues.primary_class()
        outcome = select_clients_for_antennas(
            [0, 1], tags, drr, queues.backlogged_clients(primary)
        )
        # Only client 1 has VOICE backlog: one stream, anchored at antenna 0.
        assert outcome.antenna_client_pairs == [(0, 1)]
        # Secondary fill-in across all classes offers every backlogged client.
        outcome = select_clients_for_antennas(
            [0, 1], tags, drr, queues.backlogged_clients()
        )
        assert outcome.clients == [0, 1]


class TestRoundEngineMultiClass:
    """Scripted VOICE/VIDEO/BEST_EFFORT backlogs drive CAS selection."""

    SCRIPT = [
        (0, 0, 40000.0, AccessCategory.BEST_EFFORT),
        (0, 1, 200.0, AccessCategory.VOICE),
        (0, 2, 1200.0, AccessCategory.VIDEO),
        # Client 3 never has backlog and must never be selected.
    ]

    def _run(self, rounds=1, seed=3):
        scenario = single_ap_scenario(ENV, AntennaMode.CAS, seed=seed)
        return RoundBasedEvaluatorBatch(
            [scenario], MacMode.CAS, seeds=[seed], traffic=ScriptedTraffic(self.SCRIPT)
        ).run(rounds)[0]

    def test_only_backlogged_clients_selected(self):
        result = self._run()
        round0 = result.rounds[0]
        assert round0.n_streams == 3  # clients 0, 1, 2
        served = round0.traffic.served_per_client
        assert served[3] == 0.0
        assert np.all(served[:3] > 0)

    def test_voice_departs_first(self):
        result = self._run()
        categories = result.rounds[0].traffic.delay_categories
        # The VOICE client wins the primary-class pick, so its packet is the
        # first departure recorded; the VIDEO packet departs the same round
        # via the any-backlog fill-in.
        assert categories[0] == int(AccessCategory.VOICE)
        assert int(AccessCategory.VIDEO) in categories

    def test_primary_class_beats_larger_deficit(self):
        # Two rounds: round 0 serves everyone (settling deficits in favour
        # of unserved clients); in round 1 only VOICE backlog remains on
        # client 1, and it must win the first pick even though clients
        # credited in round 0 hold larger deficit counters.
        script = self.SCRIPT + [(1, 1, 200.0, AccessCategory.VOICE)]
        scenario = single_ap_scenario(ENV, AntennaMode.CAS, seed=3)
        [result] = RoundBasedEvaluatorBatch(
            [scenario], MacMode.CAS, seeds=[3], traffic=ScriptedTraffic(script)
        ).run(2)
        round1 = result.rounds[1]
        served = round1.traffic.served_per_client
        assert served[1] > 0  # the VOICE client transmitted
        # Round 1's only *new* backlog is client 1's VOICE packet; client 0's
        # leftover BEST_EFFORT bytes may ride along as secondary fill-in, but
        # clients 2 and 3 (no backlog) must stay silent.
        assert served[2] == 0.0 and served[3] == 0.0

    def test_batch_engine_matches_goldens_on_multiclass_script(self):
        seeds = [5, 6]
        scenarios = [
            single_ap_scenario(ENV, AntennaMode.CAS, seed=s) for s in seeds
        ]
        model = ScriptedTraffic(self.SCRIPT)
        batch = RoundBasedEvaluatorBatch(
            scenarios, MacMode.CAS, seeds=seeds, traffic=model
        ).run(3)
        for result, golden in zip(batch, goldens()["edca_multiclass"]):
            assert_rounds_match(result, golden)

    def test_cbr_voice_rides_voice_class_in_midas(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seed=2)
        [result] = RoundBasedEvaluatorBatch(
            [scenario], MacMode.MIDAS, seeds=[2],
            traffic="cbr", traffic_kwargs={"rate_mbps": 0.5, "category": "voice"},
        ).run(20)
        categories = result.delay_category_samples
        assert categories.size > 0
        assert set(categories.tolist()) == {int(AccessCategory.VOICE)}
