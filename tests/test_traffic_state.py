"""The stacked :class:`repro.traffic.TrafficState` against one per-item
deque oracle (``helpers.queue_oracle``) per batch item, plus the arrival
protocol's checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.queue_oracle import ItemTraffic, ScriptedTraffic, packet_arrivals, primary_class
from repro.traffic import (
    CbrTraffic,
    OnOffTraffic,
    PoissonTraffic,
    TrafficModel,
    TrafficState,
)

DT = 1e-3
BANDWIDTH_HZ = 20e6

sizes = st.sampled_from([1.0, 100.0, 1500.0, 333.3]) | st.floats(0.5, 5000.0)
budgets = st.sampled_from([0.0, 50.0, 1500.0, 4000.0, 1e9]) | st.floats(0.0, 1e4)


@st.composite
def batches(draw):
    n_items = draw(st.integers(1, 3))
    n_clients = draw(st.integers(1, 3))
    n_rounds = draw(st.integers(1, 4))
    row = st.tuples(
        st.integers(0, n_clients - 1), sizes,
        st.floats(0.0, DT, exclude_max=True), st.integers(0, 3),
    )
    # Sorting a window by offset keeps every queue's times nondecreasing.
    window = st.lists(row, max_size=6).map(lambda rows: sorted(rows, key=lambda r: r[2]))
    windows = draw(st.lists(
        st.lists(window, min_size=n_rounds, max_size=n_rounds),
        min_size=n_items, max_size=n_items,
    ))
    stream = st.tuples(st.integers(0, n_items - 1), st.integers(0, n_clients - 1), budgets)
    # A call serves each (item, client) at most once.
    call = st.lists(stream, max_size=6, unique_by=lambda s: s[:2])
    calls = draw(st.lists(
        st.lists(call, max_size=2),
        min_size=n_rounds, max_size=n_rounds,
    ))
    members = draw(st.lists(
        st.lists(st.booleans(), min_size=n_clients, max_size=n_clients),
        min_size=n_items, max_size=n_items,
    ))
    cutoff = draw(st.none() | st.floats(0.0, DT * (n_rounds + 1)))
    depart = draw(st.none() | st.floats(0.0, DT * (n_rounds + 1)))
    event = draw(st.booleans())
    return n_clients, windows, calls, np.array(members), cutoff, depart, event


def _compare_queues(state, oracles, members, cutoff):
    n_items, n_clients = len(oracles), oracles[0].n_clients
    counts = state._counts.reshape(n_items, n_clients, 4)
    totals = state._bytes.reshape(n_items, n_clients, 4)
    backlog = state.backlog_mask(cutoff)
    primary_mask, any_mask = state.eligibility(members, cutoff)
    primary = primary_class(state, members, cutoff)
    for b, oracle in enumerate(oracles):
        assert np.array_equal(counts[b], oracle.queues._counts)
        assert np.array_equal(totals[b], oracle.queues._bytes)
        assert np.array_equal(backlog[b], oracle.queues.backlog(cutoff))
        member_ids = np.flatnonzero(members[b])
        want_primary, want_any = oracle.eligibility(member_ids, cutoff)
        assert np.array_equal(primary_mask[b], want_primary)
        assert np.array_equal(any_mask[b], want_any)
        assert primary[b] == oracle.queues.primary_class(member_ids, cutoff)


def _compare_round(state, round_index, oracles):
    """Close the round on the state and every oracle; ``end_round``'s
    arrays, read column by column, and the round's slice of the departure
    log must equal each oracle's round."""
    arrived, served, queued, per_client = state.end_round()
    item_of, round_of, delays_s, categories = state.departures()
    for b, oracle in enumerate(oracles):
        want = oracle.end_round()
        assert state.round_duration_s == want.duration_s
        assert arrived[b] == want.arrived_bytes
        assert served[b] == want.served_bytes
        assert queued[b] == want.queue_bytes
        mine = (item_of == b) & (round_of == round_index)
        assert np.array_equal(delays_s[mine], want.delays_s)
        assert np.array_equal(categories[mine], want.delay_categories)
        assert categories.dtype == want.delay_categories.dtype
        assert np.array_equal(per_client[b], want.served_per_client)


@settings(max_examples=200, deadline=None)
@given(batches())
def test_stacked_state_matches_one_oracle_per_item(batch):
    n_clients, windows, calls, members, cutoff, depart, event = batch
    kwargs = {"round_duration_s": DT, "bandwidth_hz": BANDWIDTH_HZ}
    state = TrafficState(
        [ScriptedTraffic(w) for w in windows], n_clients, [None] * len(windows),
        **kwargs,
    )
    oracles = [ItemTraffic(ScriptedTraffic(w), n_clients, None, **kwargs) for w in windows]
    for r, round_calls in enumerate(calls):
        if event:
            state.advance_arrivals_to((r + 0.5) * DT)
            for oracle in oracles:
                oracle.advance_arrivals_to((r + 0.5) * DT)
        else:
            state.begin_round()
            for oracle in oracles:
                oracle.begin_round()
        _compare_queues(state, oracles, members, cutoff)
        for streams in round_calls:
            items = np.array([s[0] for s in streams], dtype=int)
            clients = np.array([s[1] for s in streams], dtype=int)
            amounts = np.array([s[2] for s in streams])
            served = state.drain(items, clients, amounts, depart, cutoff)
            want = np.zeros(len(streams))
            for b, oracle in enumerate(oracles):
                mine = items == b
                want[mine] = oracle.drain(clients[mine], amounts[mine], depart, cutoff)
            assert np.array_equal(served, want)
            _compare_queues(state, oracles, members, cutoff)
        if not event:
            _compare_round(state, r, oracles)
    for got, oracle in zip(state.summary(), oracles):
        assert got.duration_s == oracle.t_s
        assert got.arrived_bytes == oracle.total_arrived
        assert got.served_bytes == oracle.total_served
        assert got.queue_bytes == oracle.queues.total_bytes()
        assert np.array_equal(got.delays_s, np.asarray(oracle.delays))
        assert np.array_equal(got.delay_categories, np.asarray(oracle.categories, dtype=int))
        assert np.array_equal(got.served_per_client, oracle.served_per_client)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_serve_burst_budgets_match_per_burst_oracle(n_clients, sinrs_db, seed):
    """SINR -> budget -> drain over a Poisson batch, one burst per item."""
    kwargs = {"round_duration_s": 3e-3, "bandwidth_hz": BANDWIDTH_HZ}
    models = [PoissonTraffic(rate_mbps=60.0), PoissonTraffic(rate_mbps=5.0)]
    state = TrafficState(
        models, n_clients, [np.random.default_rng([seed, b]) for b in range(2)], **kwargs
    )
    oracles = [
        ItemTraffic(m, n_clients, np.random.default_rng([seed, b]), **kwargs)
        for b, m in enumerate(models)
    ]
    for r, sinr_db in enumerate(sinrs_db):
        state.begin_round()
        for oracle in oracles:
            oracle.begin_round()
        clients = np.arange(n_clients)
        sinrs = np.full(n_clients, 10 ** (sinr_db / 1e3))
        served = state.serve_burst(
            np.repeat([0, 1], n_clients), np.tile(clients, 2), np.tile(sinrs, 2), 1e-3
        )
        want = np.concatenate(
            [o.drain(clients, o.budgets(sinrs, 1e-3)) for o in oracles]
        )
        assert np.array_equal(served, want)
        _compare_round(state, r, oracles)


def _arrival_models():
    return st.one_of(
        st.builds(PoissonTraffic, rate_mbps=st.floats(0.0, 200.0),
                  packet_bytes=st.sampled_from([200.0, 1500.0])),
        st.builds(OnOffTraffic, rate_mbps=st.floats(0.0, 200.0),
                  duty_cycle=st.floats(0.1, 1.0), mean_burst_s=st.floats(1e-3, 0.1)),
        st.builds(CbrTraffic, rate_mbps=st.floats(0.0, 50.0),
                  packet_bytes=st.sampled_from([100.0, 200.0, 1500.0])),
    )


@settings(max_examples=100, deadline=None)
@given(_arrival_models(), st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_model_arrival_arrays_match_per_client_packets(model, n_clients, seed, n_windows):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    state_a = model.init_state(rng_a, n_clients)
    state_b = model.init_state(rng_b, n_clients)
    for w in range(n_windows):
        clients, sizes, times, categories = model.arrivals(
            state_a, rng_a, n_clients, w * 3e-3, 3e-3
        )
        packets = packet_arrivals(model, state_b, rng_b, n_clients, w * 3e-3, 3e-3)
        assert np.array_equal(clients, [p.client for p in packets])
        assert np.array_equal(sizes, [float(p.bytes_total) for p in packets])
        assert np.array_equal(times, [p.t_arrival_s for p in packets])
        assert np.array_equal(categories, [int(p.category) for p in packets])
        if state_a is not None:
            assert np.array_equal(state_a, state_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


class _Arrays(TrafficModel):
    """One window of fixed arrival arrays, then nothing."""

    def __init__(self, *arrays):
        self.arrays = arrays

    def init_state(self, rng, n_clients):
        return {"drawn": False}

    def arrivals(self, state, rng, n_clients, t0_s, dt_s):
        if state["drawn"]:
            return ScriptedTraffic([]).arrivals({"window": 0}, rng, n_clients, t0_s, dt_s)
        state["drawn"] = True
        return tuple(np.asarray(a) for a in self.arrays)


def _begin(model, n_clients=2):
    state = TrafficState(
        [model], n_clients, [None], round_duration_s=DT, bandwidth_hz=BANDWIDTH_HZ
    )
    state.begin_round()
    return state


class TestArrivalChecks:
    """The oracle's ``Packet`` and ``ClientQueues.enqueue`` checks, on the
    array protocol."""

    def test_rejects_nonpositive_bytes(self):
        with pytest.raises(ValueError, match="_Arrays arrivals must carry at least one byte"):
            _begin(_Arrays([0], [0.0], [0.0], [2]))

    def test_rejects_nan_bytes(self):
        with pytest.raises(ValueError, match="_Arrays"):
            _begin(_Arrays([0], [np.nan], [0.0], [2]))

    def test_rejects_client_out_of_range(self):
        with pytest.raises(ValueError, match="_Arrays arrivals name a client outside 0..1"):
            _begin(_Arrays([5], [10.0], [0.0], [2]))
        with pytest.raises(ValueError, match="_Arrays arrivals name a client"):
            _begin(_Arrays([-1], [10.0], [0.0], [2]))

    def test_rejects_times_decreasing_within_a_window(self):
        with pytest.raises(ValueError, match="_Arrays arrivals decrease in time within client 1's VOICE"):
            _begin(_Arrays([1, 1], [10.0, 10.0], [0.5, 0.25], [0, 0]))

    def test_rejects_times_before_the_queued_tail(self):
        state = _begin(ScriptedTraffic([[(0, 10.0, 0.9 * DT, 2)], [(0, 10.0, -0.5 * DT, 2)]]))
        state.end_round()
        with pytest.raises(ValueError, match="ScriptedTraffic arrivals decrease in time"):
            state.begin_round()

    def test_accepts_decreasing_times_across_queues(self):
        state = _begin(_Arrays([0, 1, 0], [10.0, 10.0, 10.0], [0.5, 0.25, 0.5], [2, 2, 0]))
        assert state.backlog_mask().sum() == 3

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="_Arrays arrivals carry an unknown access category"):
            _begin(_Arrays([0], [10.0], [0.0], [4]))

    def test_rejects_uneven_arrays(self):
        with pytest.raises(ValueError, match="_Arrays arrivals must be four equal-length"):
            _begin(_Arrays([0, 1], [10.0], [0.0], [2]))

    @pytest.mark.parametrize("arrays", [
        ([0], [10.0], [0.0]),
        ([0], [10.0], [0.0], [2], [0]),
    ])
    def test_rejects_other_than_four_arrays(self, arrays):
        with pytest.raises(ValueError, match="_Arrays arrivals must be four equal-length"):
            _begin(_Arrays(*arrays))

    def test_names_the_offending_item_model(self):
        class Other(_Arrays):
            pass

        models = [_Arrays([0], [10.0], [0.0], [2]), Other([0], [-1.0], [0.0], [2])]
        state = TrafficState(
            models, 2, [None, None], round_duration_s=DT, bandwidth_hz=BANDWIDTH_HZ
        )
        with pytest.raises(ValueError, match="Other arrivals"):
            state.begin_round()


def test_rings_grow_on_demand_and_keep_fifo_order():
    n = 300  # many doublings past the initial ring capacity
    rows = [(0, 1.0 + k, k * DT / n, 2) for k in range(n)]
    state = _begin(ScriptedTraffic([rows]), n_clients=1)
    state.drain([0], [0], [3.0], t_depart_s=1.0)
    state.drain([0], [0], [1e9], t_depart_s=1.0)
    __, [served], __, __ = state.end_round()
    assert np.array_equal(state.departures()[2], [1.0 - k * DT / n for k in range(n)])
    assert served == sum(1.0 + k for k in range(n))


def test_drain_rejects_a_stream_served_twice_in_one_call():
    state = _begin(ScriptedTraffic([[(0, 10.0, 0.0, 2), (1, 10.0, 0.0, 2)]]))
    with pytest.raises(ValueError, match="at most once per call"):
        state.drain([0, 0, 0], [0, 1, 0], [5.0, 5.0, 5.0])
    # The rejected call drained nothing.
    assert state.summary()[0].queue_bytes == 20.0
