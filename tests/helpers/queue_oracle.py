"""Scalar references for the stacked traffic queues.

:class:`ClientQueues` is one item's per-client, per-access-category deque
FIFO of :class:`Packet` objects, and :class:`ItemTraffic` is one item's
arrival/service/latency accounting on top of it -- the per-item objects the
stacked :class:`repro.traffic.TrafficState` replaced.  :func:`packet_arrivals`
is the per-client ``Packet`` generation of the built-in arrival models.
Tests drive the stacked state and one :class:`ItemTraffic` per item with the
same arrivals and budgets and compare exactly; :func:`stacked` and
:func:`serve_one` read single-queue checks on the stacked state the way
they read on :class:`ClientQueues`, and :func:`primary_class` reads the
class that wins internal contention through ``eligibility``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.mac.edca import AccessCategory
from repro.traffic import (
    AmpduConfig,
    CbrTraffic,
    OnOffTraffic,
    PoissonTraffic,
    TrafficModel,
    TrafficState,
)


@dataclass(frozen=True)
class OracleRound:
    """One item's queueing outcome of one round."""

    duration_s: float
    arrived_bytes: float
    served_bytes: float
    queue_bytes: float  # backlog left after this round's service
    delays_s: np.ndarray  # departed-packet delays, seconds
    delay_categories: np.ndarray  # AccessCategory value per delay sample
    served_per_client: np.ndarray


class Packet:
    """One queued downlink packet (an MPDU-to-be)."""

    __slots__ = ("client", "bytes_total", "t_arrival_s", "category", "bytes_left")

    def __init__(self, client, bytes_total, t_arrival_s, category=AccessCategory.BEST_EFFORT):
        if bytes_total <= 0:
            raise ValueError("packets must carry at least one byte")
        self.client = client
        self.bytes_total = bytes_total
        self.t_arrival_s = t_arrival_s
        self.category = AccessCategory(category)
        self.bytes_left = float(bytes_total)


class ClientQueues:
    """Per-client, per-access-category FIFO byte queues of one item."""

    def __init__(self, n_clients: int):
        self.n_clients = n_clients
        self._queues = [{ac: deque() for ac in AccessCategory} for _ in range(n_clients)]
        self._counts = np.zeros((n_clients, len(AccessCategory)), dtype=int)
        self._bytes = np.zeros((n_clients, len(AccessCategory)))

    def enqueue(self, packet: Packet) -> None:
        if not 0 <= packet.client < self.n_clients:
            raise ValueError(f"client {packet.client} out of range")
        self._queues[packet.client][packet.category].append(packet)
        self._counts[packet.client, packet.category] += 1
        self._bytes[packet.client, packet.category] += packet.bytes_left

    def backlog(self, arrival_cutoff_s=None) -> np.ndarray:
        """``(n_clients, 4)`` verdicts: a packet of that class queued (and
        arrived before the cutoff, judged by the head packet)."""
        if arrival_cutoff_s is None:
            return self._counts > 0
        return np.array(
            [
                [bool(queue) and queue[0].t_arrival_s < arrival_cutoff_s
                 for queue in per_client.values()]
                for per_client in self._queues
            ],
            dtype=bool,
        ).reshape(self.n_clients, len(AccessCategory))

    def primary_class(self, members, arrival_cutoff_s=None) -> int:
        """Highest-priority class with backlog among ``members``, else -1."""
        has = self.backlog(arrival_cutoff_s)[list(members)]
        for ac in AccessCategory:
            if has[:, ac].any():
                return int(ac)
        return -1

    def total_bytes(self) -> float:
        return float(max(0.0, self._bytes.sum()))

    def serve(self, client, budget_bytes, t_depart_s, arrival_cutoff_s=None):
        """Drain up to ``budget_bytes``: classes in priority order, FIFO
        within a class; ``(served, [(delay_s, category), ...])``."""
        served = 0.0
        departures = []
        remaining = float(budget_bytes)
        if remaining <= 0:
            return 0.0, departures
        for ac in AccessCategory:
            if self._counts[client, ac] == 0:
                continue
            queue = self._queues[client][ac]
            while remaining > 0 and queue:
                head = queue[0]
                if arrival_cutoff_s is not None and head.t_arrival_s >= arrival_cutoff_s:
                    break
                take = min(remaining, head.bytes_left)
                head.bytes_left -= take
                remaining -= take
                served += take
                self._bytes[client, ac] -= take
                if head.bytes_left <= 0:
                    queue.popleft()
                    self._counts[client, ac] -= 1
                    departures.append((t_depart_s - head.t_arrival_s, ac))
            if not queue:
                self._bytes[client, ac] = 0.0
            if remaining <= 0:
                break
        return served, departures


def packet_arrivals(model, state, rng, n_clients, t0_s, dt_s) -> list[Packet]:
    """One window of a built-in model's arrivals, drawn client by client."""
    packets = []
    if isinstance(model, PoissonTraffic):
        lam = model.rate_mbps * 1e6 * dt_s / (8.0 * model.packet_bytes)
        counts = rng.poisson(lam, n_clients)
        for client in np.flatnonzero(counts):
            offsets = np.sort(rng.uniform(0.0, dt_s, counts[client]))
            packets.extend(
                Packet(int(client), model.packet_bytes, t0_s + float(off), model.category)
                for off in offsets
            )
    elif isinstance(model, OnOffTraffic):
        peak_mbps = model.rate_mbps / model.duty_cycle
        lam = peak_mbps * 1e6 * dt_s / (8.0 * model.packet_bytes)
        mean_off_s = model.mean_burst_s * (1.0 - model.duty_cycle) / model.duty_cycle
        p_on_off = min(1.0, dt_s / model.mean_burst_s)
        p_off_on = 1.0 if mean_off_s <= 0 else min(1.0, dt_s / mean_off_s)
        for client in range(n_clients):
            flip = rng.uniform()
            if state[client]:
                count = int(rng.poisson(lam))
                if count:
                    offsets = np.sort(rng.uniform(0.0, dt_s, count))
                    packets.extend(
                        Packet(client, model.packet_bytes, t0_s + float(off), model.category)
                        for off in offsets
                    )
                if flip < p_on_off:
                    state[client] = False
            elif flip < p_off_on:
                state[client] = True
    elif isinstance(model, CbrTraffic):
        new_bytes = model.rate_mbps * 1e6 * dt_s / 8.0
        for client in range(n_clients):
            state[client] += new_bytes
            count = int(state[client] // model.packet_bytes)
            if count == 0:
                continue
            state[client] -= count * model.packet_bytes
            spacing = dt_s / count
            packets.extend(
                Packet(client, model.packet_bytes, t0_s + (i + 0.5) * spacing, model.category)
                for i in range(count)
            )
    else:
        clients, sizes, times, categories = model.arrivals(state, rng, n_clients, t0_s, dt_s)
        packets.extend(
            Packet(int(c), float(b), float(t), int(ac))
            for c, b, t, ac in zip(clients, sizes, times, categories)
        )
    return packets


class ScriptedTraffic(TrafficModel):
    """Arrival model replaying ``script``: entry ``r`` lists window ``r``'s
    ``(client, bytes, t_offset_s, category)`` rows (offsets from the window
    start); later windows are empty."""

    def __init__(self, script):
        self.script = [list(rows) for rows in script]

    def init_state(self, rng, n_clients):
        return {"window": 0}

    def arrivals(self, state, rng, n_clients, t0_s, dt_s):
        index = state["window"]
        state["window"] += 1
        rows = self.script[index] if index < len(self.script) else []
        return (
            np.array([r[0] for r in rows], dtype=int),
            np.array([r[1] for r in rows], dtype=float),
            t0_s + np.array([r[2] for r in rows], dtype=float),
            np.array([int(r[3]) for r in rows], dtype=int),
        )


class ItemTraffic:
    """One item's arrivals, queues and latency accounting, packet by
    packet: the reference for one item of a stacked ``TrafficState``."""

    def __init__(self, model, n_clients, rng, *, round_duration_s, bandwidth_hz,
                 ampdu=None):
        self.model = model
        self.queues = ClientQueues(n_clients)
        self.ampdu = ampdu or AmpduConfig()
        self.n_clients = n_clients
        self.round_duration_s = float(round_duration_s)
        self.bandwidth_hz = float(bandwidth_hz)
        self._rng = rng
        self._model_state = model.init_state(rng, n_clients)
        self.t_s = 0.0
        self.total_arrived = 0.0
        self.total_served = 0.0
        self.delays: list[float] = []
        self.categories: list[int] = []
        self.served_per_client = np.zeros(n_clients)
        self._reset_round()

    def _reset_round(self):
        self.round_arrived = 0.0
        self.round_served = 0.0
        self.round_delays: list[float] = []
        self.round_categories: list[int] = []
        self.round_served_per_client = np.zeros(self.n_clients)

    def generate_window(self) -> None:
        for packet in packet_arrivals(
            self.model, self._model_state, self._rng, self.n_clients, self.t_s,
            self.round_duration_s,
        ):
            self.queues.enqueue(packet)
            self.round_arrived += packet.bytes_total
            self.total_arrived += packet.bytes_total
        self.t_s += self.round_duration_s

    def begin_round(self) -> None:
        self._reset_round()
        self.generate_window()

    def end_round(self) -> OracleRound:
        return OracleRound(
            duration_s=self.round_duration_s,
            arrived_bytes=self.round_arrived,
            served_bytes=self.round_served,
            queue_bytes=self.queues.total_bytes(),
            delays_s=np.asarray(self.round_delays),
            delay_categories=np.asarray(self.round_categories, dtype=int),
            served_per_client=self.round_served_per_client.copy(),
        )

    def advance_arrivals_to(self, t_s: float) -> None:
        while self.t_s < t_s:
            self.generate_window()

    def eligibility(self, members, arrival_cutoff_s=None):
        members = list(members)
        has = self.queues.backlog(arrival_cutoff_s)
        any_mask = np.zeros(self.n_clients, dtype=bool)
        any_mask[members] = has[members].any(axis=1)
        primary_mask = np.zeros(self.n_clients, dtype=bool)
        primary = self.queues.primary_class(members, arrival_cutoff_s)
        if primary >= 0:
            primary_mask[members] = has[members, primary]
        return primary_mask, any_mask

    def budgets(self, sinrs, payload_s) -> np.ndarray:
        """Per-stream A-MPDU budgets, one burst at a time."""
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(np.asarray(sinrs, dtype=float))
        return self.ampdu.served_byte_budget(sinr_db, self.bandwidth_hz, payload_s)

    def drain(self, clients, budgets, t_depart_s=None, arrival_cutoff_s=None) -> list[float]:
        if t_depart_s is None:
            t_depart_s = self.t_s
        out = []
        for client, budget in zip(clients, budgets):
            client = int(client)
            served, departures = self.queues.serve(
                client, float(budget), t_depart_s, arrival_cutoff_s
            )
            out.append(served)
            self.round_served += served
            self.total_served += served
            self.round_served_per_client[client] += served
            self.served_per_client[client] += served
            for delay, category in departures:
                self.round_delays.append(delay)
                self.round_categories.append(int(category))
                self.delays.append(delay)
                self.categories.append(int(category))
        return out


def stacked(n_clients: int, *packets) -> TrafficState:
    """A stacked state of one item holding ``packets``, each ``(client,
    bytes, t_arrival_s[, category])`` (default BEST_EFFORT), in order."""
    rows = [(p[0], p[1], p[2], p[3] if len(p) > 3 else AccessCategory.BEST_EFFORT)
            for p in packets]
    state = TrafficState(
        [ScriptedTraffic([rows])], n_clients, [None],
        round_duration_s=1.0, bandwidth_hz=20e6,
    )
    state.advance_arrivals_to(1.0)
    return state


def members(n_clients: int, *clients) -> np.ndarray:
    """``(1, n_clients)`` membership mask of ``clients``."""
    mask = np.zeros((1, n_clients), dtype=bool)
    mask[0, list(clients)] = True
    return mask


def primary_class(state, members_mask=None, arrival_cutoff_s=None) -> np.ndarray:
    """Per item, the highest-priority EDCA class with backlog among the
    ``(batch, n_clients)`` members (all clients by default), ``-1`` where
    none has any -- read off ``backlog_mask``, after checking that
    ``eligibility``'s primary mask is exactly that class's backlog."""
    if members_mask is None:
        members_mask = np.ones((state.n_items, state.n_clients), dtype=bool)
    has = state.backlog_mask(arrival_cutoff_s) & np.asarray(members_mask, dtype=bool)[:, :, None]
    present = has.any(axis=1)
    primary = np.array([
        next((int(ac) for ac in AccessCategory if row[ac]), -1) for row in present
    ])
    primary_mask, __ = state.eligibility(members_mask, arrival_cutoff_s)
    for b, ac in enumerate(primary.tolist()):
        want = has[b, :, ac] if ac >= 0 else np.zeros(state.n_clients, dtype=bool)
        assert np.array_equal(primary_mask[b], want)
    return primary


def serve_one(state, client, budget_bytes, t_depart_s, arrival_cutoff_s=None, item=0):
    """One stream of the stacked state, read like ``ClientQueues.serve``:
    ``(served, [(delay_s, category), ...])``."""
    before = state.summary()[item].delays_s.size
    [served] = state.drain([item], [client], [budget_bytes], t_depart_s, arrival_cutoff_s)
    after = state.summary()[item]
    return served, [
        (delay, AccessCategory(category))
        for delay, category in zip(
            after.delays_s[before:].tolist(), after.delay_categories[before:].tolist()
        )
    ]
