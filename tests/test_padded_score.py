"""The round engine's padded precode/score pass against the grouped oracle.

Random round plans -- ragged streams and antennas per slot, holes in the
picks, inactive items, CSI noise on and off -- are scored by
``RoundBasedEvaluatorBatch._score_round`` and by the grouped-by-shape
reference in :mod:`helpers.score_oracle`.  Capacities and per-stream SINRs
agree within :data:`helpers.contracts.PADDED_SCORE_CONTRACT`; stream counts
agree exactly.
"""

import copy
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.closeness import assert_close_series
from helpers.contracts import PADDED_SCORE_CONTRACT
from helpers.score_oracle import planned_lists, score_planned
from repro.config import SimConfig
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch, RoundPlan
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, three_ap_scenario

SEEDS = (0, 1, 2)


@lru_cache(maxsize=None)
def _evaluator(mode: MacMode, csi_error_std: float) -> RoundBasedEvaluatorBatch:
    antenna_mode = AntennaMode.CAS if mode is MacMode.CAS else AntennaMode.DAS
    scenarios = three_ap_scenario(office_b(), seeds=SEEDS)[antenna_mode]
    return RoundBasedEvaluatorBatch(
        scenarios, mode, sim=SimConfig(csi_error_std=csi_error_std), seeds=list(SEEDS)
    )


@st.composite
def _plans(draw):
    """A random plan over the three-AP structure (4 antennas and 4 clients
    per AP): each committed slot transmits on a random antenna subset and
    serves at most that many distinct clients, placed on random visits."""
    ev = _evaluator(MacMode.MIDAS, 0.0)
    n_items, n_slots, width = ev.n_items, ev.n_aps, 4
    primary = draw(st.integers(0, n_slots - 1))
    aps = (primary + np.arange(n_slots)) % n_slots
    item_active = np.array([draw(st.booleans()) for _ in range(n_items)])
    slot_on = np.zeros((n_items, n_slots), dtype=bool)
    slot_antennas = np.full((n_items, n_slots, width), -1, dtype=int)
    slot_clients = np.full((n_items, n_slots, width), -1, dtype=int)
    for b in np.flatnonzero(item_active):
        for p, ap in enumerate(aps):
            if not draw(st.booleans()):
                continue
            own = ev.antennas_of(int(ap))
            used = draw(st.lists(st.booleans(), min_size=width, max_size=width))
            used = np.asarray(used) | (np.arange(width) == draw(st.integers(0, width - 1)))
            n_streams = draw(st.integers(1, int(used.sum())))
            visits = draw(st.permutations(range(width)))[:n_streams]
            clients = draw(st.permutations(ev.clients_of(int(ap)).tolist()))[:n_streams]
            slot_on[b, p] = True
            slot_antennas[b, p] = np.where(used, own, -1)
            slot_clients[b, p, visits] = clients
    plan = RoundPlan(
        aps=aps,
        slot_on=slot_on,
        slot_antennas=slot_antennas,
        slot_clients=slot_clients,
        active_mask=np.zeros((n_items, ev.carrier_sense.n_antennas), dtype=bool),
        served=np.zeros((n_items, n_slots, ev._n_clients), dtype=bool),
        members=(),
    )
    return plan, item_active


@given(
    plan=_plans(),
    mode=st.sampled_from([MacMode.MIDAS, MacMode.CAS]),
    csi_error_std=st.sampled_from([0.0, 0.1]),
)
@settings(max_examples=60, deadline=None)
def test_padded_score_matches_grouped_oracle(plan, mode, csi_error_std):
    plan, item_active = plan
    ev = _evaluator(mode, csi_error_std)
    radio = ev.scenario.radio
    h = ev.channel.channel_matrices()
    oracle_rngs = copy.deepcopy(ev._csi_rngs)
    capacity, n_streams, per_ap_streams, sinrs = ev._score_round(plan)
    expected = score_planned(
        h,
        h,
        planned_lists(plan),
        item_active,
        balanced=mode is MacMode.MIDAS,
        per_antenna_power_mw=radio.per_antenna_power_mw,
        noise_mw=radio.noise_mw,
        n_aps=ev.n_aps,
        csi_error_std=csi_error_std,
        csi_rngs=oracle_rngs,
    )
    exp_capacity, exp_streams, exp_per_ap, exp_sinrs = expected
    assert np.array_equal(n_streams, exp_streams)
    assert np.array_equal(per_ap_streams, exp_per_ap)
    # Both sides drew the same CSI noise from the same generator states.
    for ours, theirs in zip(ev._csi_rngs, oracle_rngs):
        if ours is not None:
            assert ours.bit_generator.state == theirs.bit_generator.state
    got_sinrs, want_sinrs = [], []
    for b in range(ev.n_items):
        for s, p in enumerate(np.flatnonzero(plan.slot_on[b])):
            got_sinrs.append(sinrs[b, p][plan.slot_clients[b, p] >= 0])
            want_sinrs.append(exp_sinrs[(b, s)])
    # Padding (holes, silent slots, inactive items) scores exactly zero.
    assert not sinrs[plan.slot_clients < 0].any()
    assert_close_series(
        {"capacity": capacity, "sinr": np.concatenate([np.zeros(0), *got_sinrs])},
        {"capacity": exp_capacity, "sinr": np.concatenate([np.zeros(0), *want_sinrs])},
        PADDED_SCORE_CONTRACT,
    )
