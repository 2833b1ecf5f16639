"""Per-client downlink byte queues with EDCA access categories.

The round engines and the discrete-event MAC both drain these queues: a
packet arrives with a timestamp and an :class:`~repro.mac.edca.AccessCategory`,
waits in its client's per-class FIFO, and departs when an A-MPDU burst
serves its last byte.  Service is *fluid at packet boundaries*: a burst may
drain part of a packet (the MPDU continues in the next TXOP), but a packet's
delay is only recorded once its final byte leaves, so delays are
last-byte-out minus arrival.

Every engine shares this class unchanged -- the round engine holds one
:class:`ClientQueues` per batch item and feeds it only that item's floats,
which is what keeps an item's finite-load series independent of its
batch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..mac.edca import AccessCategory


class Packet:
    """One queued downlink packet (an MPDU-to-be).

    A ``__slots__`` class rather than a dataclass: finite-load sweeps
    create one per arrival, millions per large run.
    """

    __slots__ = ("client", "bytes_total", "t_arrival_s", "category", "bytes_left")

    def __init__(
        self,
        client: int,
        bytes_total: float,
        t_arrival_s: float,
        category: AccessCategory = AccessCategory.BEST_EFFORT,
    ):
        if bytes_total <= 0:
            raise ValueError("packets must carry at least one byte")
        self.client = client
        self.bytes_total = bytes_total
        self.t_arrival_s = t_arrival_s
        self.category = category
        self.bytes_left = float(bytes_total)

    def __repr__(self) -> str:
        return (
            f"Packet(client={self.client}, bytes_total={self.bytes_total}, "
            f"t_arrival_s={self.t_arrival_s}, category={self.category!r}, "
            f"bytes_left={self.bytes_left})"
        )


class ClientQueues:
    """Per-client, per-access-category FIFO byte queues.

    Backlog totals are tracked incrementally as an ``(n_clients, 4)`` float
    array so eligibility masks (the round engines query one per AP per
    round) are O(clients), not O(packets).
    """

    def __init__(self, n_clients: int):
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.n_clients = n_clients
        self._queues: list[dict[AccessCategory, deque[Packet]]] = [
            {ac: deque() for ac in AccessCategory} for _ in range(n_clients)
        ]
        # Integer packet counts drive eligibility (exact by construction);
        # float byte totals back the occupancy metrics only, so incremental
        # float error can never strand a queued packet.
        self._counts = np.zeros((n_clients, len(AccessCategory)), dtype=int)
        self._bytes = np.zeros((n_clients, len(AccessCategory)))

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Append ``packet`` to its client's class queue."""
        if not 0 <= packet.client < self.n_clients:
            raise ValueError(f"client {packet.client} out of range")
        self._queues[packet.client][packet.category].append(packet)
        self._counts[packet.client, packet.category] += 1
        self._bytes[packet.client, packet.category] += packet.bytes_left

    # ------------------------------------------------------------------
    # Backlog queries (the eligibility surface of both engines)
    # ------------------------------------------------------------------
    def _client_indices(self, clients) -> np.ndarray:
        if clients is None:
            return np.arange(self.n_clients)
        return np.asarray(clients, dtype=int)

    def _head_arrived(self, client: int, category: AccessCategory, cutoff_s: float) -> bool:
        """Whether ``client`` holds a packet of ``category`` that arrived
        before ``cutoff_s``.  FIFO queues carry nondecreasing timestamps, so
        the head packet decides in O(1)."""
        queue = self._queues[client][category]
        return bool(queue) and queue[0].t_arrival_s < cutoff_s

    def backlog_mask(
        self,
        clients=None,
        category: AccessCategory | None = None,
        arrival_cutoff_s: float | None = None,
    ) -> np.ndarray:
        """Boolean per-client backlog verdicts (the masked-eligibility array
        the batched engine feeds straight into DRR/tag selection).

        ``arrival_cutoff_s`` restricts the verdict to packets that arrived
        before it -- the event-driven MAC passes its decision time so a
        burst is only planned around packets that exist *now*, matching the
        arrival cutoff its service step applies later.
        """
        if arrival_cutoff_s is not None:
            cats = list(AccessCategory) if category is None else [category]
            return np.asarray(
                [
                    any(self._head_arrived(int(c), ac, arrival_cutoff_s) for ac in cats)
                    for c in self._client_indices(clients)
                ],
                dtype=bool,
            )
        rows = self._counts if clients is None else self._counts[np.asarray(clients, dtype=int)]
        if category is None:
            return rows.any(axis=1)
        return rows[:, category] > 0

    def primary_class(
        self, clients=None, arrival_cutoff_s: float | None = None
    ) -> AccessCategory | None:
        """Highest-priority class with backlog among ``clients`` -- the class
        that would win the AP's internal EDCA contention (802.11e), with
        lower classes filling leftover streams.  ``arrival_cutoff_s`` as in
        :meth:`backlog_mask`."""
        if arrival_cutoff_s is not None:
            indices = self._client_indices(clients)
            for ac in AccessCategory:
                if any(self._head_arrived(int(c), ac, arrival_cutoff_s) for c in indices):
                    return ac
            return None
        rows = self._counts if clients is None else self._counts[np.asarray(clients, dtype=int)]
        for ac in AccessCategory:
            if rows[:, ac].any():
                return ac
        return None

    def total_bytes(self) -> float:
        """Aggregate backlog over every client and class."""
        return float(max(0.0, self._bytes.sum()))

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def serve(
        self,
        client: int,
        budget_bytes: float,
        t_depart_s: float,
        arrival_cutoff_s: float | None = None,
    ) -> tuple[float, list[tuple[float, AccessCategory]]]:
        """Drain up to ``budget_bytes`` from ``client``'s queues.

        Classes are served in EDCA priority order (VOICE first), FIFO within
        a class.  ``arrival_cutoff_s`` excludes packets that arrived at or
        after it -- a burst can only aggregate what was queued when it was
        assembled (the event-driven MAC passes its TXOP start; the round
        engine serves the whole window).  Returns the bytes actually served
        and the ``(delay_s, category)`` samples of every packet whose final
        byte departed at ``t_depart_s``.
        """
        served = 0.0
        departures: list[tuple[float, AccessCategory]] = []
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
                    # FIFO + nondecreasing timestamps: everything behind the
                    # head arrived later still.
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
                # Snap the float total to the truth when the queue empties
                # so ulp-scale drift never accumulates across rounds.
                self._bytes[client, ac] = 0.0
            if remaining <= 0:
                break
        return served, departures
