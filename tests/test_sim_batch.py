"""Batched round-based engine tests: bit-identity against recorded goldens.

Round results are compared exactly (``array_equal`` / ``==``) with the
outputs the retired per-topology engine recorded (:mod:`helpers.goldens`);
the batched sim layer inherits the no-tolerances contract.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.carrier_sense_table import reference_decodes, reference_sensed_mw
from helpers.drr_oracle import PaperDrr
from helpers.goldens import assert_rounds_match, floats, goldens
from repro import rng as rng_mod
from repro.api.registry import MOBILITY, TRAFFIC
from repro.config import MacConfig
from repro.core.selection import BatchDeficitRoundRobin
from repro.mobility.models import GaussMarkovMobility, StaticMobility
from repro.sim.batch import (
    CarrierSenseBatch,
    MacMode,
    RoundBasedEvaluatorBatch,
    _mutual_overhear_from_decodable,
    count_streams_batch,
)
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import (
    campus_scenario,
    office_b,
    paired_scenarios,
    three_ap_scenario,
)
from repro.traffic.models import FullBufferTraffic, PoissonTraffic

ENV = office_b()
SEEDS = [0, 1, 2, 3]


def _three_ap(mode, seeds=SEEDS):
    return three_ap_scenario(ENV, seeds=seeds)[mode]


GOLDEN = goldens()


# ----------------------------------------------------------------------
# Carrier sense
# ----------------------------------------------------------------------
class TestCarrierSenseBatch:
    @pytest.fixture(scope="class")
    def stacked(self):
        rng = np.random.default_rng(5)
        cross = rng.uniform(-95.0, -55.0, (3, 6, 6))
        eye = np.eye(6, dtype=bool)
        cross[:, eye] = np.inf
        return cross

    def test_matches_reference_rules(self, stacked):
        mac = MacConfig()
        batch = CarrierSenseBatch(stacked, mac)
        rng = np.random.default_rng(9)
        for __ in range(20):
            tx_mask = rng.random((3, 6)) < 0.4
            sensed = batch.sensed_power_mw(tx_mask)
            busy = batch.busy_mask(tx_mask)
            decode = batch.decode_mask(tx_mask)
            nav = batch.nav_blocked_mask(tx_mask)
            for b in range(3):
                cross = stacked[b].tolist()
                tx = np.flatnonzero(tx_mask[b]).tolist()
                for listener in range(6):
                    expected = reference_sensed_mw(cross, listener, tx)
                    assert sensed[b, listener] == pytest.approx(expected, rel=1e-12)
                    assert busy[b, listener] == (
                        listener in tx or expected >= mac.cs_threshold_mw
                    )
                    for transmitter in range(6):
                        assert bool(decode[b, listener, transmitter]) == reference_decodes(
                            cross, listener, transmitter, tx, mac
                        ), (b, listener, transmitter)
                    expected_nav = any(
                        reference_decodes(cross, listener, t, tx, mac) for t in tx
                    )
                    assert bool(nav[b, listener]) == expected_nav

    def test_listener_restriction_matches_full(self, stacked):
        mac = MacConfig()
        batch = CarrierSenseBatch(stacked, mac)
        tx_mask = np.zeros((3, 6), dtype=bool)
        tx_mask[:, [1, 4]] = True
        listeners = np.asarray([0, 2, 5])
        assert np.array_equal(
            batch.sensed_power_mw(tx_mask, listeners=listeners),
            batch.sensed_power_mw(tx_mask)[:, listeners],
        )
        assert np.array_equal(
            batch.decode_mask(tx_mask, listeners=listeners),
            batch.decode_mask(tx_mask)[:, listeners],
        )
        assert np.array_equal(
            batch.nav_blocked_mask(tx_mask, listeners=listeners),
            batch.nav_blocked_mask(tx_mask)[:, listeners],
        )

    def test_rejects_non_stacked_input(self):
        with pytest.raises(ValueError, match="batch"):
            CarrierSenseBatch(np.zeros((4, 4)), MacConfig())


# ----------------------------------------------------------------------
# Batched DRR
# ----------------------------------------------------------------------
class TestBatchDeficitRoundRobin:
    def test_mirrors_scalar_sequences(self):
        n_items, n_clients = 5, 4
        batch = BatchDeficitRoundRobin(n_items, n_clients)
        scalars = [PaperDrr(n_clients) for _ in range(n_items)]
        rng = np.random.default_rng(3)
        for __ in range(30):
            candidates = rng.random((n_items, n_clients)) < 0.6
            picks = batch.pick(candidates)
            served = np.zeros((n_items, n_clients), dtype=bool)
            for b, scalar in enumerate(scalars):
                expected = scalar.pick(np.flatnonzero(candidates[b]))
                assert picks[b] == (-1 if expected is None else expected)
                if expected is not None:
                    served[b, expected] = True
            has = served.any(axis=1)
            losers = ~served & has[:, None]
            batch.settle(served, losers)
            batch.credit(~has[:, None])
            for b, scalar in enumerate(scalars):
                if has[b]:
                    scalar.settle(
                        list(np.flatnonzero(served[b])), list(np.flatnonzero(losers[b]))
                    )
                else:
                    scalar.credit(range(n_clients))
                assert np.array_equal(batch.counters[b], scalar.counters)

    def test_tie_breaks_to_lowest_index(self):
        batch = BatchDeficitRoundRobin(1, 3)
        assert batch.pick(np.array([[False, True, True]]))[0] == 1

    def test_rejects_overlap(self):
        batch = BatchDeficitRoundRobin(1, 2)
        both = np.array([[True, False]])
        with pytest.raises(ValueError):
            batch.settle(both, both)


# ----------------------------------------------------------------------
# Round-based evaluator
# ----------------------------------------------------------------------
class TestRoundBasedEvaluatorBatch:
    @pytest.mark.parametrize(
        "antenna_mode,mac_mode",
        [(AntennaMode.CAS, MacMode.CAS), (AntennaMode.DAS, MacMode.MIDAS)],
    )
    def test_three_ap_matches_goldens(self, antenna_mode, mac_mode):
        scenarios = _three_ap(antenna_mode)
        batch = RoundBasedEvaluatorBatch(scenarios, mac_mode, seeds=SEEDS)
        results = batch.run(5)
        for result, golden in zip(results, GOLDEN["three_ap"][mac_mode.value]):
            assert_rounds_match(result, golden)

    def test_item_mask_skips_items(self):
        scenarios = _three_ap(AntennaMode.DAS)
        batch = RoundBasedEvaluatorBatch(scenarios, MacMode.MIDAS, seeds=SEEDS)
        mask = np.array([True, False, True, False])
        results = batch.run(5, item_mask=mask)
        assert results[1] is None and results[3] is None
        assert_rounds_match(results[2], GOLDEN["three_ap"]["midas"][2])

    def test_mutual_overhear_mask_matches_goldens(self):
        seeds = list(range(8))
        scenarios = _three_ap(AntennaMode.CAS, seeds)
        mask = RoundBasedEvaluatorBatch.mutual_overhear_mask(scenarios, seeds)
        assert mask.tolist() == GOLDEN["mutual_overhear"]
        # The gate is the full evaluator's own verdict, item for item.
        evaluator = RoundBasedEvaluatorBatch(scenarios, MacMode.CAS, seeds=seeds)
        assert np.array_equal(evaluator.aps_mutually_overhear(), mask)

    def test_mutual_overhear_rule(self):
        # Two APs with two antennas each: AP 0 decodes AP 1 through one
        # antenna pair, but AP 1 decodes nothing of AP 0.
        decodable = np.zeros((2, 4, 4), dtype=bool)
        decodable[:, 0, 3] = True  # antenna 0 (AP 0) hears antenna 3 (AP 1)
        decodable[1, 2, 1] = True  # item 1 only: antenna 2 (AP 1) hears 1
        verdict = _mutual_overhear_from_decodable(
            decodable, [np.array([0, 1]), np.array([2, 3])]
        )
        assert verdict.tolist() == [False, True]

    def test_count_streams_matches_goldens(self):
        scenarios = _three_ap(AntennaMode.DAS)
        batch = RoundBasedEvaluatorBatch(scenarios, MacMode.MIDAS, seeds=SEEDS)
        counted = count_streams_batch(
            batch, [rng_mod.make_rng(s) for s in SEEDS], rounds=4
        )
        assert np.array_equal(counted, floats(GOLDEN["count_streams"]))

    def test_rejects_seed_count_mismatch(self):
        scenarios = _three_ap(AntennaMode.DAS, [0, 1])
        with pytest.raises(ValueError, match="seed"):
            RoundBasedEvaluatorBatch(scenarios, MacMode.MIDAS, seeds=[0])


# ----------------------------------------------------------------------
# Larger AP layouts
# ----------------------------------------------------------------------
def _grid_aps(n_rows, n_cols, spacing_m):
    return [(col * spacing_m, row * spacing_m) for row in range(n_rows) for col in range(n_cols)]


#: The AP grid and the crowded office row the goldens were recorded on,
#: built with their historical placement rules.
_FAMILIES = {
    "grid_region": dict(
        ap_positions=_grid_aps(2, 2, 18.0), client_radius_fraction=0.55,
        das_radius_min_m=5.0, das_radius_max_m=10.0, min_separation_m=5.0,
    ),
    "dense_office": dict(
        ap_positions=[(0.0, 0.0), (15.0, 0.0)], clients_per_ap=10,
        client_radius_fraction=0.6,
    ),
}


class TestLargerLayouts:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_batch_matches_goldens_on_family(self, family):
        seeds = [0, 1]
        scenario = paired_scenarios(ENV, seeds=seeds, **_FAMILIES[family])[AntennaMode.DAS]
        batch = RoundBasedEvaluatorBatch(scenario, MacMode.MIDAS, seeds=seeds)
        results = batch.run(3)
        for result, golden in zip(results, GOLDEN["families"][family]):
            assert_rounds_match(result, golden)


# ----------------------------------------------------------------------
# Per-item engine arguments (sweep points on the batch axis)
# ----------------------------------------------------------------------
ITEM_SEEDS = (3, 8)


@lru_cache(maxsize=None)
def _campus(*seeds: int):
    """A two-AP campus strip, small enough for many hypothesis examples."""
    return campus_scenario(
        ENV, n_rows=1, n_cols=2, spacing_m=18.0, antennas_per_ap=2,
        clients_per_ap=2, seeds=seeds, modes=(AntennaMode.DAS,),
    )[AntennaMode.DAS]


#: Per-item argument draws for each sweep kind: the engine keyword that
#: varies by item, the values it takes, and the shared keywords.
_HYSTERESIS = st.fixed_dictionaries(
    {"hysteresis_db": st.sampled_from([2.0, 6.0]),
     "dwell_soundings": st.sampled_from([1, 2])}
)
_ITEM_ARGS = {
    "traffic": st.fixed_dictionaries(
        {"traffic_kwargs": st.fixed_dictionaries(
            {"rate_mbps": st.sampled_from([2.0, 30.0, 120.0]),
             "packet_bytes": st.sampled_from([500.0, 1500.0])}
        )}
    ),
    "mobility": st.fixed_dictionaries(
        {"mobility_kwargs": st.fixed_dictionaries(
            {"speed_mps": st.sampled_from([0.0, 1.0, 6.0])}
        )}
    ),
    "association": st.one_of(
        st.fixed_dictionaries(
            {"association": st.sampled_from(["nearest_anchor", "strongest_rssi"]),
             "association_kwargs": st.none()}
        ),
        st.fixed_dictionaries(
            {"association": st.just("hysteresis_handoff"),
             "association_kwargs": _HYSTERESIS}
        ),
    ),
}
_SHARED = {
    "traffic": {"traffic": "poisson"},
    "mobility": {"mobility": "gauss_markov", "resound_period_rounds": 2},
    "association": {
        "mobility": "gauss_markov",
        "mobility_kwargs": {"speed_mps": 4.0},
        "resound_period_rounds": 2,
    },
}


@st.composite
def _mixed_batches(draw):
    kind = draw(st.sampled_from(sorted(_ITEM_ARGS)))
    mode = draw(st.sampled_from([MacMode.CAS, MacMode.MIDAS]))
    items = draw(
        st.lists(
            st.tuples(st.sampled_from(ITEM_SEEDS), _ITEM_ARGS[kind]),
            min_size=2,
            max_size=4,
        )
    )
    return kind, mode, items


def _assert_same_rounds(actual, expected) -> None:
    assert actual.log.n_rounds == expected.log.n_rounds
    for name in (
        "capacity_bps_hz", "n_streams", "active_antennas", "per_ap_streams",
        "sounding_us",
    ):
        assert np.array_equal(actual.column(name), expected.column(name))
    assert actual.has_traffic == expected.has_traffic
    if actual.has_traffic:
        for name in ("served_bytes", "queue_bytes"):
            assert np.array_equal(actual.column(name), expected.column(name))
        for r in range(actual.log.n_rounds):
            assert np.array_equal(
                actual.log.delays_s[actual.log.delay_span(actual.item, r)],
                expected.log.delays_s[expected.log.delay_span(expected.item, r)],
            )


class TestPerItemArguments:
    @settings(max_examples=12, deadline=None)
    @given(_mixed_batches())
    def test_mixed_item_matches_its_batch_of_one(self, case):
        kind, mode, items = case
        shared = _SHARED[kind]
        per_item = {
            key: [args[key] for __, args in items] for key in items[0][1]
        }
        seeds = [seed for seed, __ in items]
        mixed = RoundBasedEvaluatorBatch(
            _campus(*seeds), mode, seeds=seeds,
            **shared, **per_item,
        )
        results = mixed.run(4)
        for index, (seed, args) in enumerate(items):
            alone = RoundBasedEvaluatorBatch(
                _campus(seed), mode, seeds=[seed], **shared, **args
            )
            [expected] = alone.run(4)
            _assert_same_rounds(results[index], expected)
            item, single = mixed.association, alone.association
            assert np.array_equal(item.client_ap[index], single.client_ap[0])
            assert np.array_equal(item.tags[index], single.tags[0])
            assert item.handoff_count[index] == single.handoff_count[0]
            assert item.outage_count[index] == single.outage_count[0]

    @pytest.mark.parametrize(
        "keyword,value",
        [
            ("traffic_kwargs", [{"rate_mbps": 5.0}]),
            ("mobility_kwargs", ({"speed_mps": 1.0},) * 3),
            ("association", ["strongest_rssi"]),
            ("association_kwargs", [None, None, None]),
        ],
    )
    def test_wrong_length_sequence_rejected(self, keyword, value):
        with pytest.raises(ValueError, match=f"{keyword} must be one value"):
            RoundBasedEvaluatorBatch(
                _campus(*ITEM_SEEDS), MacMode.MIDAS,
                seeds=list(ITEM_SEEDS), traffic="poisson",
                mobility="gauss_markov", **{keyword: value},
            )

    def test_full_buffer_and_finite_load_mix_rejected(self, monkeypatch):
        # A factory that falls back to full buffer at zero rate is the only
        # way one traffic name yields both kinds of item.
        def saturating(rate_mbps=0.0, **kwargs):
            if rate_mbps == 0:
                return FullBufferTraffic()
            return PoissonTraffic(rate_mbps=rate_mbps, **kwargs)

        monkeypatch.setitem(TRAFFIC._items, "saturating", saturating)
        with pytest.raises(ValueError, match="full-buffer and finite-load"):
            RoundBasedEvaluatorBatch(
                _campus(*ITEM_SEEDS), MacMode.MIDAS,
                seeds=list(ITEM_SEEDS), traffic="saturating",
                traffic_kwargs=[{"rate_mbps": 0.0}, {"rate_mbps": 10.0}],
            )

    def test_static_and_moving_mix_rejected(self, monkeypatch):
        def parking(speed_mps=0.0):
            if speed_mps == 0:
                return StaticMobility()
            return GaussMarkovMobility(speed_mps=speed_mps)

        monkeypatch.setitem(MOBILITY._items, "parking", parking)
        with pytest.raises(ValueError, match="static and moving"):
            RoundBasedEvaluatorBatch(
                _campus(*ITEM_SEEDS), MacMode.MIDAS,
                seeds=list(ITEM_SEEDS), mobility="parking",
                mobility_kwargs=[{"speed_mps": 1.0}, {"speed_mps": 0.0}],
            )
