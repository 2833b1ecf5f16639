"""The stacked traffic driver shared by every execution engine.

:class:`TrafficState` owns a batch of topologies' arrival streams, EDCA
queues and latency accounting as arrays.  The round engine holds one for
its whole batch; the event-driven engine holds a batch of one.

Each (item, client, access category) queue is a FIFO ring of packets --
arrival time and bytes left -- stored as one row of a ``(rows, capacity)``
pair of arrays.  A queue gets its row when it first holds a packet, and the
capacity doubles on demand.  Integer packet counts drive eligibility
(exact by construction); float byte totals back the occupancy metrics
only, so incremental float error can never strand a packet.

Service is *fluid at packet boundaries*: a burst may drain part of a
packet (the MPDU continues in the next TXOP), but a packet's delay is only
recorded once its final byte leaves, so delays are last-byte-out minus
arrival.  Classes drain in EDCA priority order (VOICE first), FIFO within
a class.  Every running total -- bytes left in a stream's budget, bytes
served, queue byte totals -- is a sequential left fold in stream, class and
packet order (``np.subtract.accumulate``, ``ufunc.at``), never a pairwise
sum, so an item's floats do not depend on its batch.

Clock convention: time is carved into fixed TXOP-sized windows
(``round_duration_s``).  ``begin_round`` draws one window of arrivals per
selected item, the engines serve streams against their post-precoding
SINRs, and ``end_round`` closes the window and returns the round's
``(batch,)`` byte totals.  Departures are stamped at the window's end and
kept in one log with each item's round index (:meth:`departures`).  The
discrete-event MAC instead calls ``advance_arrivals_to`` with its own clock
and passes explicit departure times (plus an arrival cutoff at the TXOP
start) to ``serve_burst``; its departures all carry round 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mac.edca import AccessCategory
from .ampdu import AmpduConfig
from .models import TrafficModel

_N_CLASSES = len(AccessCategory)
#: Packets each ring holds before its first doubling.
_INITIAL_CAPACITY = 32
#: The 802.11ac aggregation constants every stream is served under.
_AMPDU = AmpduConfig()


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate queueing outcome of one run (the event-driven MAC's view)."""

    duration_s: float
    arrived_bytes: float
    served_bytes: float
    queue_bytes: float
    delays_s: np.ndarray
    delay_categories: np.ndarray
    served_per_client: np.ndarray

    @property
    def throughput_mbps(self) -> float:
        """Delivered goodput in Mb/s over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.served_bytes * 8.0 / self.duration_s / 1e6

    @property
    def mean_delay_s(self) -> float:
        """Mean packet delay; ``inf`` when nothing ever departed."""
        if self.delays_s.size == 0:
            return math.inf
        return float(np.mean(self.delays_s))


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _rank_in_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal sorted keys."""
    return np.arange(sorted_keys.size) - np.searchsorted(sorted_keys, sorted_keys)


def _primary_class(has: np.ndarray) -> np.ndarray:
    """Highest-priority class with backlog per item, -1 where none, from
    ``(batch, n_clients, 4)`` backlog verdicts."""
    present = has.any(axis=1)
    return np.where(present.any(axis=1), present.argmax(axis=1), -1)


class TrafficState:
    """Arrivals + queues + latency accounting for a batch of topology runs.

    ``models`` and ``rngs`` hold one traffic model and one generator per
    batch item; item ``b`` draws its arrivals from ``rngs[b]`` only.
    """

    def __init__(
        self,
        models,
        n_clients: int,
        rngs,
        *,
        round_duration_s: float,
        bandwidth_hz: float,
    ):
        self.models: list[TrafficModel] = list(models)
        self._rngs = list(rngs)
        if not self.models or len(self._rngs) != len(self.models):
            raise ValueError("need one traffic model and one generator per item")
        if any(model.is_full_buffer for model in self.models):
            raise ValueError(
                "full-buffer traffic needs no TrafficState; run the engine "
                "without a traffic model instead"
            )
        if n_clients < 1:
            raise ValueError("need at least one client")
        if round_duration_s <= 0:
            raise ValueError("round_duration_s must be positive")
        self.n_items = len(self.models)
        self.n_clients = n_clients
        self.round_duration_s = float(round_duration_s)
        self.bandwidth_hz = float(bandwidth_hz)
        self._model_states = [
            model.init_state(rng, n_clients)
            for model, rng in zip(self.models, self._rngs)
        ]
        n_queues = self.n_items * n_clients * _N_CLASSES
        # Flat queue index: (item * n_clients + client) * 4 + category.
        self._counts = np.zeros(n_queues, dtype=int)
        self._bytes = np.zeros(n_queues)
        self._min_bytes = np.full(n_queues, np.inf)  # smallest packet queued
        self._head = np.zeros(n_queues, dtype=int)  # ring slot of each head
        # Ring storage: one row per queue that ever held a packet.
        self._row = np.full(n_queues, -1)
        self._n_rows = 0
        self._t_arrival = np.zeros((0, _INITIAL_CAPACITY))
        self._left = np.zeros((0, _INITIAL_CAPACITY))
        self._t_s = np.zeros(self.n_items)  # end of the last arrival window
        # This round's and the whole run's totals, stacked so that one
        # ufunc.at call folds a window or a burst into both.
        self._arrived = np.zeros((2, self.n_items))
        self._served = np.zeros((2, self.n_items))
        self._served_per_client = np.zeros((2, self.n_items, n_clients))
        self._round_open = np.zeros(self.n_items, dtype=bool)
        #: ``(batch,)`` index of each item's current round: the rounds it
        #: has closed.  Every departure is stamped with it.
        self.round_index = np.zeros(self.n_items, dtype=int)
        #: ``(items, rounds, delays_s, categories)`` chunks in departure order.
        none = np.zeros(0, dtype=int)
        self._departures = [(none, none, np.zeros(0), none)]

    # ------------------------------------------------------------------
    def _items(self, item_mask) -> np.ndarray:
        if item_mask is None:
            return np.arange(self.n_items)
        return np.flatnonzero(np.asarray(item_mask, dtype=bool))

    def _reject(self, item: int, what: str):
        """Raise for a bad arrival window of ``item``, naming its model."""
        raise ValueError(f"{type(self.models[item]).__name__} arrivals {what}")

    def _generate_window(self, items: np.ndarray) -> None:
        """Draw one window of arrivals per item of ``items`` (each from its
        own generator) and enqueue them in one scatter."""
        if not items.size:
            return
        windows = [
            self.models[b].arrivals(
                self._model_states[b], self._rngs[b], self.n_clients, t0_s,
                self.round_duration_s,
            )
            for b, t0_s in zip(items.tolist(), self._t_s[items].tolist())
        ]
        self._t_s[items] += self.round_duration_s
        for b, window in zip(items.tolist(), windows):
            if len(window) != 4 or len({len(part) for part in window}) != 1:
                self._reject(b, "must be four equal-length arrays")
        item_of = np.repeat(items, [len(window[0]) for window in windows])
        if not item_of.size:
            return
        clients, sizes, t_arrival, categories = (
            np.concatenate(parts) for parts in zip(*windows)
        )
        clients = clients.astype(int, copy=False)
        sizes = sizes.astype(float, copy=False)
        t_arrival = t_arrival.astype(float, copy=False)
        categories = categories.astype(int, copy=False)
        bad = (clients < 0) | (clients >= self.n_clients)
        if bad.any():
            self._reject(
                item_of[np.argmax(bad)],
                f"name a client outside 0..{self.n_clients - 1}",
            )
        if not (sizes > 0).all():
            self._reject(
                item_of[np.argmin(sizes > 0)], "must carry at least one byte each"
            )
        bad = (categories < 0) | (categories >= _N_CLASSES)
        if bad.any():
            self._reject(item_of[np.argmax(bad)], "carry an unknown access category")
        queue = (item_of * self.n_clients + clients) * _N_CLASSES + categories
        order = np.argsort(queue, kind="stable")
        queue_sorted = queue[order]
        t_sorted = t_arrival[order]
        starts = _group_starts(queue_sorted)
        per_queue = np.diff(starts, append=queue.size)
        touched = queue_sorted[starts]
        fresh = touched[self._row[touched] < 0]
        if fresh.size:
            self._add_rows(fresh)
        rows = self._row[touched]
        queued = self._counts[touched]
        cap = self._t_arrival.shape[1]

        # FIFO order needs nondecreasing times within every queue, queued
        # packets included.
        previous = np.empty(queue.size)
        previous[1:] = t_sorted[:-1]
        previous[starts] = np.where(
            queued > 0,
            self._t_arrival[rows, (self._head[touched] + queued - 1) % cap],
            -np.inf,
        )
        bad = ~(t_sorted >= previous)
        if bad.any():
            first = order[np.argmax(bad)]
            self._reject(
                item_of[first],
                f"decrease in time within client {clients[first]}'s "
                f"{AccessCategory(categories[first]).name} queue",
            )

        needed = int((queued + per_queue).max())
        if needed > cap:
            self._grow(needed)
            cap = self._t_arrival.shape[1]
        slot = (
            np.repeat(self._head[touched] + queued - starts, per_queue)
            + np.arange(queue.size)
        ) % cap
        row = np.repeat(rows, per_queue)
        self._t_arrival[row, slot] = t_sorted
        self._left[row, slot] = sizes[order]
        self._counts[touched] += per_queue
        # Byte totals fold in arrival order, as packets were enqueued.
        np.add.at(self._bytes, queue, sizes)
        np.minimum.at(self._min_bytes, queue, sizes)
        np.add.at(self._arrived, (slice(None), item_of), sizes)

    def _add_rows(self, fresh: np.ndarray) -> None:
        """Give each queue of ``fresh`` its own ring row (row storage
        doubles on demand)."""
        first = self._n_rows
        self._n_rows += fresh.size
        self._row[fresh] = np.arange(first, self._n_rows)
        spare = self._t_arrival.shape[0]
        if self._n_rows > spare:
            extra = np.zeros((max(self._n_rows, 2 * spare) - spare, self._t_arrival.shape[1]))
            self._t_arrival = np.concatenate([self._t_arrival, extra])
            self._left = np.concatenate([self._left, extra])

    def _grow(self, needed: int) -> None:
        """Double every ring until it holds ``needed`` packets.  Tiling the
        old slots keeps each ring valid in place: a ring never holds more
        than the old capacity, so slot ``head + k`` of the doubled ring reads
        old slot ``(head + k) % capacity``."""
        cap = self._t_arrival.shape[1]
        factor = 1 << math.ceil(math.log2(needed / cap))
        self._t_arrival = np.tile(self._t_arrival, (1, factor))
        self._left = np.tile(self._left, (1, factor))

    # ------------------------------------------------------------------
    # Round-engine protocol
    # ------------------------------------------------------------------
    def begin_round(self, item_mask=None) -> None:
        """Draw one TXOP window of arrivals for every selected item;
        eligibility masks queried after this call include the round's own
        arrivals (a packet can be served in the window it arrived)."""
        items = self._items(item_mask)
        if self._round_open[items].any():
            raise RuntimeError("begin_round called twice without end_round")
        self._arrived[0, items] = 0.0
        self._served[0, items] = 0.0
        self._served_per_client[0, items] = 0.0
        self._generate_window(items)
        self._round_open[items] = True

    def end_round(self, item_mask=None) -> tuple[np.ndarray, ...]:
        """Close the selected items' rounds.  Returns the round's arrived,
        served and left-queued bytes, each ``(batch,)``, and the bytes
        served per client, ``(batch, n_clients)``; rows of items
        ``item_mask`` excludes read 0.  The round's delays stay in
        :meth:`departures`, stamped with its round index."""
        items = self._items(item_mask)
        if not self._round_open[items].all():
            raise RuntimeError("end_round called without begin_round")
        self._round_open[items] = False
        self.round_index[items] += 1
        selected = np.zeros(self.n_items, dtype=bool)
        selected[items] = True
        return (
            np.where(selected, self._arrived[0], 0.0),
            np.where(selected, self._served[0], 0.0),
            np.where(selected, self._queue_bytes(), 0.0),
            np.where(selected[:, None], self._served_per_client[0], 0.0),
        )

    def _queue_bytes(self) -> np.ndarray:
        """Aggregate backlog of each item over every client and class (one
        contiguous ``n_clients * 4`` row sum per item)."""
        return np.maximum(self._bytes.reshape(self.n_items, -1).sum(axis=1), 0.0)

    def departures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(item, round, delay_s, category)`` of every packet departed so
        far, in departure order; ``round`` is the item's
        :attr:`round_index` when the packet left."""
        self._departures = [tuple(np.concatenate(parts) for parts in zip(*self._departures))]
        return self._departures[0]

    # ------------------------------------------------------------------
    # Event-driven protocol
    # ------------------------------------------------------------------
    def advance_arrivals_to(self, t_s: float) -> None:
        """Generate arrival windows until every item's arrival clock covers
        ``t_s``."""
        behind = np.flatnonzero(self._t_s < t_s)
        while behind.size:
            self._generate_window(behind)
            behind = np.flatnonzero(self._t_s < t_s)

    def summary(self, duration_s: float | None = None) -> list[TrafficSummary]:
        """Whole-run aggregate per item (the event-driven MAC attaches
        item 0's to its :class:`~repro.sim.network.SimulationResult`)."""
        item_of, __, delays_s, categories = self.departures()
        return [
            TrafficSummary(
                duration_s=float(self._t_s[b]) if duration_s is None else duration_s,
                arrived_bytes=float(self._arrived[1, b]),
                served_bytes=float(self._served[1, b]),
                queue_bytes=queued,
                delays_s=delays_s[item_of == b],
                delay_categories=categories[item_of == b],
                served_per_client=self._served_per_client[1, b].copy(),
            )
            for b, queued in enumerate(self._queue_bytes().tolist())
        ]

    # ------------------------------------------------------------------
    # Shared service + query surface
    # ------------------------------------------------------------------
    def backlog_mask(self, arrival_cutoff_s: float | None = None) -> np.ndarray:
        """Per-(item, client, class) backlog verdicts, ``(batch, n_clients,
        4)`` bool.

        ``arrival_cutoff_s`` restricts the verdicts to packets that arrived
        before it -- the event-driven MAC passes its decision time so a
        burst is only planned around packets that exist *now*, matching the
        arrival cutoff its service step applies later.  FIFO queues carry
        nondecreasing timestamps, so each queue's head decides.
        """
        has = self._counts > 0
        if arrival_cutoff_s is not None:
            queued = np.flatnonzero(has)
            head_t = self._t_arrival[self._row[queued], self._head[queued]]
            has[queued] = head_t < arrival_cutoff_s
        return has.reshape(self.n_items, self.n_clients, _N_CLASSES)

    def eligibility(
        self, members_mask, arrival_cutoff_s=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(primary-class, any-class) backlog masks of the members in the
        ``(batch, n_clients)`` bool ``members_mask``, each ``(batch,
        n_clients)`` -- the two candidate filters of
        :func:`repro.core.selection.pick_in_visit_order`.

        The primary class is the one that wins the AP's internal EDCA
        contention among an item's members; non-members are never eligible.
        ``arrival_cutoff_s`` as in :meth:`backlog_mask`.
        """
        has = self.backlog_mask(arrival_cutoff_s) & np.asarray(
            members_mask, dtype=bool
        )[:, :, None]
        primary = _primary_class(has)
        primary_mask = has[np.arange(self.n_items), :, primary] & (primary >= 0)[:, None]
        return primary_mask, has.any(axis=2)

    def serve_burst(
        self,
        items,
        clients,
        sinrs,
        payload_s,
        t_depart_s: float | None = None,
        arrival_cutoff_s: float | None = None,
    ) -> np.ndarray:
        """Serve MU-MIMO streams: per-stream SINR -> MCS -> A-MPDU byte
        budget -> :meth:`drain`, one stream per entry of ``items``/
        ``clients``/``sinrs`` (linear SINRs) with ``payload_s`` seconds of
        data airtime each (scalar or per stream).  Returns the bytes each
        stream delivered.
        """
        sinrs = np.asarray(sinrs, dtype=float)
        with np.errstate(divide="ignore"):  # sinr == 0 -> -inf dB -> 0 bytes
            sinr_db = 10.0 * np.log10(sinrs)
        budgets = _AMPDU.served_byte_budget(
            sinr_db, self.bandwidth_hz, np.asarray(payload_s, dtype=float)
        )
        return self.drain(items, clients, budgets, t_depart_s, arrival_cutoff_s)

    def drain(
        self,
        items,
        clients,
        budget_bytes,
        t_depart_s: float | None = None,
        arrival_cutoff_s: float | None = None,
    ) -> np.ndarray:
        """Drain up to ``budget_bytes`` from each (item, client) stream's
        queues; returns the bytes each stream delivered.

        Each (item, client) stream may appear once per call (the engines
        serve a client at most once per TXOP or round); departures are
        logged in stream order.  They are stamped at ``t_depart_s``
        (default: the end of the item's current arrival window);
        ``arrival_cutoff_s`` excludes packets that arrived at or after it --
        a burst can only aggregate what was queued when it was assembled
        (the event-driven MAC passes its TXOP start; the round engine serves
        the whole window).
        """
        items = np.asarray(items, dtype=int)
        clients = np.asarray(clients, dtype=int)
        budgets = np.broadcast_to(np.asarray(budget_bytes, dtype=float), items.shape)
        depart_s = (
            self._t_s[items]
            if t_depart_s is None
            else np.full(items.size, float(t_depart_s))
        )
        streams = items * self.n_clients + clients
        if np.bincount(streams).max(initial=0) > 1:
            raise ValueError("drain serves each (item, client) stream at most once per call")
        served = np.zeros(items.size)
        live = np.flatnonzero(budgets > 0)
        if live.size:
            stream_of, delays_s, categories = self._drain_streams(
                live, streams, budgets, served, depart_s, arrival_cutoff_s
            )
            item_of = items[stream_of]
            self._departures.append(
                (item_of, self.round_index[item_of], delays_s, categories)
            )
        np.add.at(self._served, (slice(None), items), served)
        self._served_per_client[:, items, clients] += served  # distinct streams
        return served

    def _drain_streams(self, live, streams, budgets, served, depart_s, cutoff_s):
        """Drain the ``live`` streams and fill their ``served`` entries;
        returns ``(stream, delay_s, category)`` of every departure, in
        stream and drain order."""
        n_live = live.size
        queues = (streams[live, None] * _N_CLASSES + np.arange(_N_CLASSES)).ravel()
        budget = budgets[live]
        # A class can touch at most its head, one partly drained packet and
        # budget / (its smallest packet) packets in between (plus one for
        # rounding), so gathering that many per class covers every take.
        bound = 3 + np.floor(np.repeat(budget, _N_CLASSES) / self._min_bytes[queues])
        gathered = np.minimum(self._counts[queues], bound).astype(int)
        segment = np.repeat(np.arange(queues.size), gathered)
        cap = self._t_arrival.shape[1]
        queue = queues[segment]
        ring = np.repeat(self._row[queues], gathered)
        slot = (self._head[queue] + _rank_in_runs(segment)) % cap
        t_arrival = self._t_arrival[ring, slot]
        left = self._left[ring, slot]
        if cutoff_s is not None:
            # FIFO order: everything behind a late packet arrived later still.
            arrived = t_arrival < cutoff_s
            segment, queue, ring, slot = (
                segment[arrived], queue[arrived], ring[arrived], slot[arrived]
            )
            t_arrival, left = t_arrival[arrived], left[arrived]

        # One row per stream: its budget, then its packets' bytes left in
        # class-priority and FIFO order.  A left fold along the rows replays
        # the packet-by-packet loop exactly; the budget left never grows
        # along a row, so a packet is reached while the one before left
        # budget.
        row = segment // _N_CLASSES
        col = _rank_in_runs(row) + 1
        fold = np.zeros((n_live, col.max(initial=0) + 1))
        fold[:, 0] = budget
        fold[row, col] = left
        budget_left = np.subtract.accumulate(fold, axis=1)
        before = budget_left[row, col - 1]
        reached = before > 0
        full = reached & (budget_left[row, col] >= 0)
        partial = reached & ~full
        take = np.where(full, left, before)[reached]
        np.add.at(served, live[row[reached]], take)

        np.subtract.at(self._bytes, queue[reached], take)
        self._left[ring[partial], slot[partial]] = left[partial] - before[partial]
        popped = np.bincount(segment[full], minlength=queues.size)
        self._counts[queues] -= popped
        self._head[queues] = (self._head[queues] + popped) % cap
        # Snap a queue's float total to the truth when it empties so
        # ulp-scale drift never accumulates across rounds.
        self._bytes[queues[(popped > 0) & (self._counts[queues] == 0)]] = 0.0
        stream = live[row[full]]
        return stream, depart_s[stream] - t_arrival[full], segment[full] % _N_CLASSES


__all__ = [
    "AmpduConfig",
    "TrafficState",
    "TrafficSummary",
]
