"""The per-run traffic driver shared by every execution engine.

:class:`TrafficState` owns one topology's arrival stream, queues, and
latency accounting.  The event-driven engine holds one; the round engine
holds one *per batch item* and feeds it that item's floats in slot order,
which is the whole batch-invariance argument for finite-load series:
every state transition below is plain scalar arithmetic on one item's
inputs.

Clock convention: time is carved into fixed TXOP-sized windows
(``round_duration_s``).  ``begin_round`` draws one window of arrivals, the
engines serve streams against their post-precoding SINRs, and
``end_round`` stamps departures at the window's end and emits a
:class:`RoundTrafficMetrics`.  The discrete-event MAC instead calls
``advance_arrivals_to`` with its own clock and passes explicit departure
times (plus an arrival cutoff at the TXOP start) to ``serve_burst``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ampdu import AmpduConfig
from .models import TrafficModel
from .queues import ClientQueues, Packet


@dataclass(frozen=True)
class RoundTrafficMetrics:
    """Queueing outcome of one evaluation round (whole network)."""

    duration_s: float
    arrived_bytes: float
    served_bytes: float
    queue_bytes: float  # backlog left after this round's service
    delays_s: np.ndarray  # departed-packet delays, seconds
    delay_categories: np.ndarray  # AccessCategory value per delay sample
    served_per_client: np.ndarray


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


class TrafficState:
    """Arrivals + queues + latency accounting for one topology run."""

    def __init__(
        self,
        model: TrafficModel,
        n_clients: int,
        rng: np.random.Generator,
        *,
        round_duration_s: float,
        bandwidth_hz: float,
        ampdu: AmpduConfig | None = None,
    ):
        if model.is_full_buffer:
            raise ValueError(
                "full-buffer traffic needs no TrafficState; run the engine "
                "without a traffic model instead"
            )
        if round_duration_s <= 0:
            raise ValueError("round_duration_s must be positive")
        self.model = model
        self.queues = ClientQueues(n_clients)
        self.ampdu = ampdu or AmpduConfig()
        self.n_clients = n_clients
        self.round_duration_s = float(round_duration_s)
        self.bandwidth_hz = float(bandwidth_hz)
        self._rng = rng
        self._model_state = model.init_state(rng, n_clients)
        self._t_s = 0.0  # end of the last generated arrival window
        self._total_arrived = 0.0
        self._total_served = 0.0
        self._delays: list[float] = []
        self._delay_categories: list[int] = []
        self._served_per_client = np.zeros(n_clients)
        self._round_open = False
        self._reset_round()

    # ------------------------------------------------------------------
    def _reset_round(self) -> None:
        self._round_arrived = 0.0
        self._round_served = 0.0
        self._round_delays: list[float] = []
        self._round_categories: list[int] = []
        self._round_served_per_client = np.zeros(self.n_clients)

    def _generate_window(self) -> None:
        packets = self.model.arrivals(
            self._model_state, self._rng, self.n_clients, self._t_s,
            self.round_duration_s,
        )
        for packet in packets:
            self.queues.enqueue(packet)
            self._round_arrived += packet.bytes_total
            self._total_arrived += packet.bytes_total
        self._t_s += self.round_duration_s

    # ------------------------------------------------------------------
    # Round-engine protocol
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Draw one TXOP window of arrivals; eligibility masks queried after
        this call include the round's own arrivals (a packet can be served
        in the window it arrived)."""
        if self._round_open:
            raise RuntimeError("begin_round called twice without end_round")
        self._reset_round()
        self._generate_window()
        self._round_open = True

    def end_round(self) -> RoundTrafficMetrics:
        """Close the round and return its queueing metrics."""
        if not self._round_open:
            raise RuntimeError("end_round called without begin_round")
        self._round_open = False
        return RoundTrafficMetrics(
            duration_s=self.round_duration_s,
            arrived_bytes=self._round_arrived,
            served_bytes=self._round_served,
            queue_bytes=self.queues.total_bytes(),
            delays_s=np.asarray(self._round_delays),
            delay_categories=np.asarray(self._round_categories, dtype=int),
            served_per_client=self._round_served_per_client.copy(),
        )

    # ------------------------------------------------------------------
    # Event-driven protocol
    # ------------------------------------------------------------------
    def advance_arrivals_to(self, t_s: float) -> None:
        """Generate arrival windows until the arrival clock covers ``t_s``."""
        while self._t_s < t_s:
            self._generate_window()

    # ------------------------------------------------------------------
    # Shared service + query surface
    # ------------------------------------------------------------------
    def backlog_mask(self, clients, category=None, arrival_cutoff_s=None) -> np.ndarray:
        """Per-client eligibility verdicts over ``clients``; the optional
        cutoff restricts to packets that have arrived by it (the
        event-driven MAC's decision time)."""
        return self.queues.backlog_mask(clients, category, arrival_cutoff_s)

    def primary_class(self, clients, arrival_cutoff_s=None):
        """The EDCA class that wins internal contention for these clients."""
        return self.queues.primary_class(clients, arrival_cutoff_s)

    def eligibility(
        self, members, arrival_cutoff_s=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(primary-class, any-class) backlog masks of ``members`` on the
        global client axis, each ``(n_clients,)`` bool -- the two candidate
        filters of :func:`repro.core.selection.pick_in_visit_order`.

        The primary class is the one that wins the AP's internal EDCA
        contention among ``members``; non-members are never eligible.
        ``arrival_cutoff_s`` as in :meth:`backlog_mask`.
        """
        members = np.asarray(members, dtype=int)
        primary_mask = np.zeros(self.n_clients, dtype=bool)
        any_mask = np.zeros(self.n_clients, dtype=bool)
        any_mask[members] = self.backlog_mask(
            members, arrival_cutoff_s=arrival_cutoff_s
        )
        primary = self.primary_class(members, arrival_cutoff_s)
        if primary is not None:
            primary_mask[members] = self.backlog_mask(
                members, primary, arrival_cutoff_s
            )
        return primary_mask, any_mask

    def serve_burst(
        self,
        clients: np.ndarray,
        sinrs: np.ndarray,
        payload_s: float,
        t_depart_s: float | None = None,
        arrival_cutoff_s: float | None = None,
    ) -> float:
        """Serve one MU-MIMO burst: per-stream SINR -> MCS -> A-MPDU byte
        budget -> queue drain, one stream per entry of ``clients``/``sinrs``
        (linear SINRs).  Returns the bytes actually delivered.

        The SINR-to-budget arithmetic runs once, vectorized over the burst;
        both execution backends call this with the same float arrays in the
        same stream order, which keeps their queue trajectories
        bit-identical.
        """
        sinrs = np.asarray(sinrs, dtype=float)
        with np.errstate(divide="ignore"):  # sinr == 0 -> -inf dB -> 0 bytes
            sinr_db = 10.0 * np.log10(sinrs)
        budgets = self.ampdu.served_byte_budget(
            sinr_db, self.bandwidth_hz, payload_s
        )
        if t_depart_s is None:
            t_depart_s = self._t_s  # end of the current round's window
        total = 0.0
        for client, budget in zip(clients, budgets):
            client = int(client)
            served, departures = self.queues.serve(
                client, float(budget), t_depart_s, arrival_cutoff_s
            )
            total += served
            self._round_served += served
            self._total_served += served
            self._round_served_per_client[client] += served
            self._served_per_client[client] += served
            for delay, category in departures:
                self._round_delays.append(delay)
                self._round_categories.append(int(category))
                self._delays.append(delay)
                self._delay_categories.append(int(category))
        return total

    def summary(self, duration_s: float | None = None) -> TrafficSummary:
        """Whole-run aggregate (the event-driven MAC attaches this to its
        :class:`~repro.sim.network.SimulationResult`)."""
        return TrafficSummary(
            duration_s=self._t_s if duration_s is None else duration_s,
            arrived_bytes=self._total_arrived,
            served_bytes=self._total_served,
            queue_bytes=self.queues.total_bytes(),
            delays_s=np.asarray(self._delays),
            delay_categories=np.asarray(self._delay_categories, dtype=int),
            served_per_client=self._served_per_client.copy(),
        )


__all__ = [
    "AmpduConfig",
    "ClientQueues",
    "Packet",
    "RoundTrafficMetrics",
    "TrafficState",
    "TrafficSummary",
]
