"""DRR client selection tests (paper §3.2.5).

The scheduler is one stacked kernel; a single AP is a batch of one, so
every rule is checked on ``(1, n_clients)`` masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.drr_oracle import PaperDrr, select_in_visit_order
from repro.core.selection import BatchDeficitRoundRobin, pick_in_visit_order
from repro.core.tagging import tag_mask


def _mask(n_clients: int, clients) -> np.ndarray:
    """A ``(1, n_clients)`` mask with ``clients`` set."""
    mask = np.zeros((1, n_clients), dtype=bool)
    mask[0, list(clients)] = True
    return mask


def _drr(n_clients: int) -> BatchDeficitRoundRobin:
    return BatchDeficitRoundRobin(1, n_clients)


def _order(picks: np.ndarray) -> list[int]:
    """One item's pick order: its row of picks without the ``-1`` holes."""
    return [int(c) for c in picks[picks >= 0]]


class TestDrrPick:
    def test_largest_deficit_wins(self):
        drr = _drr(3)
        drr.settle(_mask(3, [0]), _mask(3, [1, 2]))  # 0 pays, 1 and 2 accrue
        assert drr.pick(_mask(3, [0, 1, 2]))[0] in (1, 2)

    def test_tie_breaks_to_lowest_index(self):
        assert _drr(3).pick(_mask(3, [2, 1]))[0] == 1

    def test_empty_candidates(self):
        assert _drr(2).pick(_mask(2, []))[0] == -1

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            _drr(0)
        with pytest.raises(ValueError):
            BatchDeficitRoundRobin(0, 3)


class TestDrrSettle:
    def test_paper_update_rule(self):
        # n=2 streams served, m=2 backlogged losers: losers gain nT/m = 1 each.
        drr = _drr(4)
        drr.settle(_mask(4, [0, 1]), _mask(4, [2, 3]), txop_units=1.0)
        np.testing.assert_allclose(drr.counters[0], [-1.0, -1.0, 1.0, 1.0])

    def test_counter_conservation(self):
        drr = _drr(5)
        drr.settle(_mask(5, [0, 1, 2]), _mask(5, [3, 4]), txop_units=2.0)
        assert drr.counters.sum() == pytest.approx(0.0)

    def test_no_losers_no_credit(self):
        drr = _drr(2)
        drr.settle(_mask(2, [0, 1]), _mask(2, []), txop_units=1.0)
        np.testing.assert_allclose(drr.counters[0], [-1.0, -1.0])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            _drr(3).settle(_mask(3, [0]), _mask(3, [0, 1]))

    def test_credit_adds_waiting_airtime(self):
        drr = _drr(3)
        drr.credit(_mask(3, [0, 2]), txop_units=1.5)
        np.testing.assert_allclose(drr.counters[0], [1.5, 0.0, 1.5])
        drr.credit(_mask(3, []), txop_units=1.0)  # no clients, no change
        np.testing.assert_allclose(drr.counters[0], [1.5, 0.0, 1.5])

    def test_long_run_fairness(self):
        # Two clients alternate single-stream service: counters stay bounded
        # and both get half the service.
        drr = _drr(2)
        served = [0, 0]
        for __ in range(200):
            pick = int(drr.pick(_mask(2, [0, 1]))[0])
            served[pick] += 1
            drr.settle(_mask(2, [pick]), _mask(2, [1 - pick]))
        assert abs(served[0] - served[1]) <= 1
        assert np.max(np.abs(drr.counters)) < 5.0

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=50, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_fairness_property(self, n_clients, rounds):
        drr = _drr(n_clients)
        everyone = _mask(n_clients, range(n_clients))
        counts = np.zeros(n_clients)
        for __ in range(rounds):
            pick = int(drr.pick(everyone)[0])
            counts[pick] += 1
            served = _mask(n_clients, [pick])
            drr.settle(served, everyone & ~served)
        assert counts.max() - counts.min() <= 2


class TestAntennaSpecificSelection:
    """MIDAS visits: one tag column per available antenna, in order."""

    RSSI = np.array(
        [
            [-50.0, -60.0, -70.0, -80.0],
            [-80.0, -50.0, -60.0, -70.0],
            [-70.0, -80.0, -50.0, -60.0],
            [-60.0, -70.0, -80.0, -50.0],
        ]
    )

    def _select(self, antennas, backlogged, drr=None):
        tags = tag_mask(self.RSSI, tag_width=2)
        visits = [tags[:, antenna][None] for antenna in antennas]
        backlog = _mask(4, backlogged)
        __, [picks] = pick_in_visit_order(drr or _drr(4), visits, backlog, backlog)
        return _order(picks)

    def test_one_client_per_antenna(self):
        chosen = self._select([0, 1, 2, 3], range(4))
        assert len(chosen) == len(set(chosen)) == 4

    def test_respects_tags(self):
        # Only clients 0 and 1 are tagged to antenna 1.
        assert self._select([1], range(4))[0] in (0, 1)

    def test_respects_backlog(self):
        assert self._select([0, 1], [1]) == [1]

    def test_unmatched_antenna_skipped(self):
        # Antenna 2 claims client 2; antenna 3 (taggees 2 and 3) skips it
        # and still anchors client 3.
        assert self._select([2, 3], [2, 3]) == [2, 3]
        # Antenna 0's taggees (0 and 3) lack backlog: it anchors no client.
        assert self._select([0, 2], [2]) == [2]

    def test_deficit_steers_choice(self):
        drr = _drr(4)
        drr.settle(_mask(4, [0]), _mask(4, [1, 2, 3]))  # client 0 already served
        # Antenna 0's tagged clients are 0 and 3; 3 now has higher deficit.
        assert self._select([0], range(4), drr) == [3]


class TestPrimaryThenFillIn:
    def test_primary_candidate_beats_larger_deficit(self):
        drr = _drr(3)
        drr.settle(_mask(3, [1]), _mask(3, [0, 2]))  # 0 and 2 out-deficit 1
        everyone = _mask(3, range(3))
        __, [picks] = pick_in_visit_order(drr, [everyone], _mask(3, [1]), everyone)
        assert _order(picks) == [1]

    def test_fill_in_when_primary_is_taken(self):
        everyone = _mask(3, range(3))
        __, [picks] = pick_in_visit_order(
            _drr(3), [everyone] * 3, _mask(3, [2]), _mask(3, [0, 2])
        )
        # Primary first, then fill-in; 1 has no backlog, so visit 3 is a hole.
        assert picks.tolist() == [2, 0, -1]


@st.composite
def _schedules(draw):
    n_items = draw(st.integers(1, 4))
    n_clients = draw(st.integers(1, 6))
    n_visits = draw(st.integers(0, 6))
    n_rounds = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_items, n_clients, n_visits, n_rounds, seed


@given(_schedules())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_per_item_oracle(schedule):
    """Random deficits, visits and eligibility: every item's picks and the
    counters it settles equal the brute-force per-item reading."""
    n_items, n_clients, n_visits, n_rounds, seed = schedule
    rng = np.random.default_rng(seed)
    drr = BatchDeficitRoundRobin(n_items, n_clients)
    oracles = [PaperDrr(n_clients) for _ in range(n_items)]
    for __ in range(n_rounds + 1):
        visits = [rng.random((n_items, n_clients)) < 0.5 for _ in range(n_visits)]
        primary = rng.random((n_items, n_clients)) < 0.3
        eligible = rng.random((n_items, n_clients)) < 0.7
        chosen_mask, picks = pick_in_visit_order(drr, visits, primary, eligible)
        assert picks.shape == (n_items, n_visits)
        chosen_lists = [_order(row) for row in picks]
        for b, oracle in enumerate(oracles):
            expected = select_in_visit_order(
                oracle,
                [set(np.flatnonzero(visit[b])) for visit in visits],
                set(np.flatnonzero(primary[b])),
                set(np.flatnonzero(eligible[b])),
            )
            assert chosen_lists[b] == expected
            assert set(np.flatnonzero(chosen_mask[b])) == set(expected)
        losers = eligible & ~chosen_mask
        drr.settle(chosen_mask, losers)
        for b, oracle in enumerate(oracles):
            oracle.settle(chosen_lists[b], list(np.flatnonzero(losers[b])))
            assert np.array_equal(drr.counters[b], oracle.counters)
