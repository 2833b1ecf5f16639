"""Multi-class EDCA coverage: primary/secondary access-category selection
with backlogged VOICE/VIDEO/BEST_EFFORT queues driving client selection.

Until the traffic subsystem, only the single best-effort default was
exercised by network simulations; these tests drive the prioritization
logic end to end -- through the stacked :class:`repro.traffic.TrafficState`
and its :meth:`~repro.traffic.TrafficState.eligibility`, through the shared
scheduler :func:`repro.core.selection.pick_in_visit_order`, and through the
round engine with a scripted multi-class arrival model."""

import numpy as np

from helpers.goldens import assert_rounds_match, goldens
from repro.core.selection import BatchDeficitRoundRobin, pick_in_visit_order
from repro.core.tagging import tag_mask
from repro.mac.edca import AccessCategory
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario
from helpers.queue_oracle import members, primary_class, serve_one
from repro.traffic import TrafficModel, TrafficState

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
        rows = [row[1:] for row in self.script if row[0] == current]
        return (
            np.array([client for client, __, __ in rows], dtype=int),
            np.array([size for __, size, __ in rows], dtype=float),
            np.full(len(rows), t0_s),
            np.array([int(category) for __, __, category in rows], dtype=int),
        )


class TestPrimaryClassSelection:
    """Queued VOICE/VIDEO/BEST_EFFORT packets drive the shared scheduler
    through :meth:`TrafficState.eligibility`."""

    SCRIPT = [
        (0, 0, 100.0, AccessCategory.BEST_EFFORT),
        (0, 1, 100.0, AccessCategory.VOICE),
        (0, 2, 100.0, AccessCategory.VIDEO),
        (0, 1, 100.0, AccessCategory.BEST_EFFORT),
    ]

    def _loaded(self) -> TrafficState:
        state = TrafficState(
            [ScriptedTraffic(self.SCRIPT)], 3, [np.random.default_rng(0)],
            round_duration_s=1e-3, bandwidth_hz=20e6,
        )
        state.begin_round()
        return state

    def test_primary_class_is_highest_backlogged(self):
        state = self._loaded()
        assert primary_class(state, members(3, 0, 1, 2))[0] == AccessCategory.VOICE
        assert primary_class(state, members(3, 0, 2))[0] == AccessCategory.VIDEO

    def test_backlogged_clients_filter_by_class(self):
        backlog = self._loaded().backlog_mask()[0]
        assert backlog[:, AccessCategory.VOICE].tolist() == [False, True, False]
        assert backlog.any(axis=1).tolist() == [True, True, True]

    def test_eligibility_masks_on_global_axis(self):
        state = self._loaded()
        primary, eligible = state.eligibility(members(3, 0, 1, 2))
        assert primary.tolist() == [[False, True, False]]
        assert eligible.tolist() == [[True, True, True]]
        # Among members 0 and 2 VIDEO wins; non-members are never eligible.
        primary, eligible = state.eligibility(members(3, 0, 2))
        assert primary.tolist() == [[False, False, True]]
        assert eligible.tolist() == [[True, False, True]]
        primary, eligible = state.eligibility(members(3))
        assert not primary.any() and not eligible.any()

    def test_eligibility_respects_arrival_cutoff(self):
        state = self._loaded()  # every scripted packet arrives at t = 0
        primary, eligible = state.eligibility(members(3, 0, 1, 2), arrival_cutoff_s=0.0)
        assert not primary.any() and not eligible.any()

    def test_serve_searches_primary_then_lower_classes(self):
        state = self._loaded()
        __, departures = serve_one(state, 1, 100.0, 1.0)
        assert [c for __, c in departures] == [AccessCategory.VOICE]
        __, departures = serve_one(state, 1, 100.0, 1.0)
        assert [c for __, c in departures] == [AccessCategory.BEST_EFFORT]
        assert serve_one(state, 1, 100.0, 1.0) == (0.0, [])

    def test_selection_from_primary_class_backlog(self):
        [primary], [eligible] = self._loaded().eligibility(members(3, 0, 1, 2))
        # Flat RSSI, width 2 of 2: every client tagged to both antennas.
        tags = tag_mask(np.zeros((3, 2)), 2)
        visits = [tags[:, antenna][None] for antenna in range(2)]
        __, [picks] = pick_in_visit_order(
            BatchDeficitRoundRobin(1, 3), visits, primary[None], eligible[None]
        )
        # Only client 1 has VOICE backlog: antenna 0 anchors it; antenna 1
        # falls back to secondary fill-in across all classes (client 0
        # wins the deficit tie).
        assert picks.tolist() == [1, 0]


class TestRoundEngineMultiClass:
    """Scripted VOICE/VIDEO/BEST_EFFORT backlogs drive CAS selection."""

    SCRIPT = [
        (0, 0, 40000.0, AccessCategory.BEST_EFFORT),
        (0, 1, 200.0, AccessCategory.VOICE),
        (0, 2, 1200.0, AccessCategory.VIDEO),
        # Client 3 never has backlog and must never be selected.
    ]

    def _run(self, rounds=1, seed=3):
        scenario = single_ap_scenario(ENV, AntennaMode.CAS, seeds=[seed])
        return RoundBasedEvaluatorBatch(
            scenario, MacMode.CAS, seeds=[seed], traffic=ScriptedTraffic(self.SCRIPT)
        ).run(rounds)[0]

    def test_only_backlogged_clients_selected(self):
        result = self._run()
        assert result.column("n_streams")[0] == 3  # clients 0, 1, 2
        served = result.column("served_per_client")[0]
        assert served[3] == 0.0
        assert np.all(served[:3] > 0)

    def test_voice_departs_first(self):
        result = self._run()
        categories = result.log.delay_categories[result.log.delay_span(result.item, 0)]
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
        scenario = single_ap_scenario(ENV, AntennaMode.CAS, seeds=[3])
        [result] = RoundBasedEvaluatorBatch(
            scenario, MacMode.CAS, seeds=[3], traffic=ScriptedTraffic(script)
        ).run(2)
        served = result.column("served_per_client")[1]
        assert served[1] > 0  # the VOICE client transmitted
        # Round 1's only *new* backlog is client 1's VOICE packet; client 0's
        # leftover BEST_EFFORT bytes may ride along as secondary fill-in, but
        # clients 2 and 3 (no backlog) must stay silent.
        assert served[2] == 0.0 and served[3] == 0.0

    def test_batch_engine_matches_goldens_on_multiclass_script(self):
        seeds = [5, 6]
        scenarios = single_ap_scenario(ENV, AntennaMode.CAS, seeds=seeds)
        model = ScriptedTraffic(self.SCRIPT)
        batch = RoundBasedEvaluatorBatch(
            scenarios, MacMode.CAS, seeds=seeds, traffic=model
        ).run(3)
        for result, golden in zip(batch, goldens()["edca_multiclass"]):
            assert_rounds_match(result, golden)

    def test_cbr_voice_rides_voice_class_in_midas(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[2])
        [result] = RoundBasedEvaluatorBatch(
            scenario, MacMode.MIDAS, seeds=[2],
            traffic="cbr", traffic_kwargs={"rate_mbps": 0.5, "category": "voice"},
        ).run(20)
        categories = result.delay_category_samples
        assert categories.size > 0
        assert set(categories.tolist()) == {int(AccessCategory.VOICE)}
