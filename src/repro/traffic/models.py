"""Arrival processes feeding the downlink queues.

A traffic model is a frozen parameter bundle; all mutable state (per-client
ON/OFF flags, CBR credit) lives in an explicit state object so one model
instance can drive every item of a vectorized batch.  Arrival draws consume
the caller-supplied generator in a fixed per-model order -- the same in
every engine -- so an item's finite-load results never depend on its batch.

One window of arrivals is four equal-length arrays (see
:meth:`TrafficModel.arrivals`): client ids, packet bytes, arrival times and
:class:`~repro.mac.edca.AccessCategory` values, client-major and
time-sorted within each client.

Rates are *per client*, in Mb/s.  Registered factories (the ``traffic``
registry, mirroring the precoder/scenario registries):

``full_buffer``
    Infinite backlog -- the library's historical default, bit-identical to
    running without a traffic model at all.
``poisson``
    Per-client Poisson packet arrivals, timestamps uniform in each round.
``on_off``
    Two-state bursty source: exponential-ish ON/OFF dwell times, Poisson
    arrivals at the peak rate while ON (mean rate = ``rate_mbps``).
``cbr``
    Deterministic constant-bit-rate source (voice/video), mapped onto an
    EDCA access category (default VOICE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.registry import TRAFFIC, register_traffic
from ..mac.edca import AccessCategory


def access_category(value) -> AccessCategory:
    """Coerce a category given as enum, index, or name (JSON-friendly)."""
    if isinstance(value, AccessCategory):
        return value
    if isinstance(value, int):
        return AccessCategory(value)
    try:
        return AccessCategory[str(value).upper()]
    except KeyError:
        names = ", ".join(ac.name.lower() for ac in AccessCategory)
        raise ValueError(
            f"unknown access category {value!r}; expected one of: {names}"
        ) from None


#: ``(clients, bytes, t_arrival_s, categories)`` of one arrival window.
Arrivals = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class TrafficModel:
    """Base class: stateless parameters + explicit per-run state."""

    #: Full-buffer sentinels short-circuit the engines back onto the
    #: saturation path (no queues, no latency accounting).
    is_full_buffer = False

    def init_state(self, rng: np.random.Generator, n_clients: int):
        """Fresh mutable state for one run (None when the model has none)."""
        return None

    def arrivals(
        self,
        state,
        rng: np.random.Generator,
        n_clients: int,
        t0_s: float,
        dt_s: float,
    ) -> Arrivals:
        """Packets arriving in ``[t0_s, t0_s + dt_s)``.

        Returns ``(clients, bytes, t_arrival_s, categories)``: equal-length
        arrays of client ids (``0 <= client < n_clients``), positive packet
        sizes, arrival times and access-category values, client-major with
        nondecreasing times per (client, category) queue.
        :class:`~repro.traffic.TrafficState` rejects anything else with a
        ``ValueError`` naming the model.
        """
        raise NotImplementedError


def _fixed_size(model, clients: np.ndarray, t_arrival_s: np.ndarray) -> Arrivals:
    """Arrival arrays of ``model.packet_bytes``-sized ``model.category``
    packets."""
    n = len(clients)
    return (
        clients,
        np.full(n, float(model.packet_bytes)),
        t_arrival_s,
        np.full(n, int(model.category)),
    )


@dataclass(frozen=True)
class FullBufferTraffic(TrafficModel):
    """Infinite backlog for every client (the saturation default)."""

    is_full_buffer = True

    def arrivals(self, state, rng, n_clients, t0_s, dt_s) -> Arrivals:
        raise RuntimeError("full-buffer traffic generates no discrete arrivals")


@dataclass(frozen=True)
class PoissonTraffic(TrafficModel):
    """Independent per-client Poisson packet arrivals."""

    rate_mbps: float
    packet_bytes: float = 1500.0
    category: AccessCategory = AccessCategory.BEST_EFFORT

    def __post_init__(self):
        if self.rate_mbps < 0:
            raise ValueError("rate_mbps must be >= 0")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        object.__setattr__(self, "category", access_category(self.category))

    def arrivals(self, state, rng, n_clients, t0_s, dt_s) -> Arrivals:
        lam = self.rate_mbps * 1e6 * dt_s / (8.0 * self.packet_bytes)
        clients = np.repeat(np.arange(n_clients), rng.poisson(lam, n_clients))
        # One offset draw for the whole window is the same numbers as one
        # draw per client in client order; sort each client's share.
        offsets = rng.uniform(0.0, dt_s, clients.size)
        return _fixed_size(self, clients, t0_s + offsets[np.lexsort((offsets, clients))])


@dataclass(frozen=True)
class OnOffTraffic(TrafficModel):
    """Markov-modulated bursty source (mean rate ``rate_mbps``).

    Each client flips between ON and OFF with per-round probabilities
    ``dt / mean_dwell``; while ON it emits Poisson arrivals at
    ``rate_mbps / duty_cycle`` so the long-run average is ``rate_mbps``.
    """

    rate_mbps: float
    duty_cycle: float = 0.25
    mean_burst_s: float = 0.05
    packet_bytes: float = 1500.0
    category: AccessCategory = AccessCategory.BEST_EFFORT

    def __post_init__(self):
        if self.rate_mbps < 0:
            raise ValueError("rate_mbps must be >= 0")
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must be in (0, 1]")
        if self.mean_burst_s <= 0:
            raise ValueError("mean_burst_s must be positive")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        object.__setattr__(self, "category", access_category(self.category))

    def init_state(self, rng, n_clients) -> np.ndarray:
        return rng.uniform(size=n_clients) < self.duty_cycle

    def arrivals(self, state, rng, n_clients, t0_s, dt_s) -> Arrivals:
        peak_mbps = self.rate_mbps / self.duty_cycle
        lam = peak_mbps * 1e6 * dt_s / (8.0 * self.packet_bytes)
        mean_off_s = self.mean_burst_s * (1.0 - self.duty_cycle) / self.duty_cycle
        p_on_off = min(1.0, dt_s / self.mean_burst_s)
        p_off_on = 1.0 if mean_off_s <= 0 else min(1.0, dt_s / mean_off_s)
        counts = np.zeros(n_clients, dtype=int)
        offsets = []
        # The flip, count and offset draws interleave per client, so this
        # loop fixes the generator's draw order.
        for client in range(n_clients):
            flip = rng.uniform()
            if state[client]:
                counts[client] = rng.poisson(lam)
                if counts[client]:
                    offsets.append(np.sort(rng.uniform(0.0, dt_s, counts[client])))
                if flip < p_on_off:
                    state[client] = False
            elif flip < p_off_on:
                state[client] = True
        clients = np.repeat(np.arange(n_clients), counts)
        return _fixed_size(self, clients, t0_s + np.concatenate([np.zeros(0), *offsets]))


@dataclass(frozen=True)
class CbrTraffic(TrafficModel):
    """Deterministic constant-bit-rate source (voice/video framing).

    Emits fixed-size packets at exactly ``rate_mbps`` using a per-client
    byte-credit accumulator, evenly spacing each round's packets.  Draws no
    randomness at all.
    """

    rate_mbps: float
    packet_bytes: float = 200.0
    category: AccessCategory = AccessCategory.VOICE

    def __post_init__(self):
        if self.rate_mbps < 0:
            raise ValueError("rate_mbps must be >= 0")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        object.__setattr__(self, "category", access_category(self.category))

    def init_state(self, rng, n_clients) -> np.ndarray:
        return np.zeros(n_clients)

    def arrivals(self, state, rng, n_clients, t0_s, dt_s) -> Arrivals:
        state += self.rate_mbps * 1e6 * dt_s / 8.0
        counts = (state // self.packet_bytes).astype(int)
        state -= counts * self.packet_bytes
        clients = np.repeat(np.arange(n_clients), counts)
        # Packet i of a client's window sits at the centre of slot i.
        first = np.cumsum(counts) - counts
        index = np.arange(clients.size) - first[clients]
        spacing = dt_s / counts[clients]
        return _fixed_size(self, clients, t0_s + (index + 0.5) * spacing)


# ----------------------------------------------------------------------
# Registered factories (name -> model); every factory takes the per-client
# offered rate first so experiments can sweep loads uniformly.
# ----------------------------------------------------------------------
@register_traffic("full_buffer")
def full_buffer(rate_mbps: float = 0.0, **_unused) -> FullBufferTraffic:
    """Saturation: the rate is ignored, queues are infinitely backlogged."""
    return FullBufferTraffic()


@register_traffic("poisson")
def poisson(rate_mbps: float, **kwargs) -> PoissonTraffic:
    return PoissonTraffic(rate_mbps=rate_mbps, **kwargs)


@register_traffic("on_off")
def on_off(rate_mbps: float, **kwargs) -> OnOffTraffic:
    return OnOffTraffic(rate_mbps=rate_mbps, **kwargs)


@register_traffic("cbr")
def cbr(rate_mbps: float, **kwargs) -> CbrTraffic:
    return CbrTraffic(rate_mbps=rate_mbps, **kwargs)


def resolve_traffic(traffic, rate_mbps: float = 0.0, **kwargs) -> TrafficModel:
    """Coerce a traffic argument into a :class:`TrafficModel`.

    Accepts a model instance (returned unchanged; extra arguments are then
    rejected) or a registered name plus factory keyword arguments.
    """
    if isinstance(traffic, TrafficModel):
        if rate_mbps or kwargs:
            raise ValueError(
                "rate/keyword overrides only apply when resolving a traffic "
                "model by registered name, not a model instance"
            )
        return traffic
    model = TRAFFIC.get(traffic)(rate_mbps=rate_mbps, **kwargs)
    if not isinstance(model, TrafficModel):
        raise TypeError(
            f"traffic factory {traffic!r} returned {type(model).__name__}, "
            "not a TrafficModel"
        )
    return model


def traffic_names() -> list[str]:
    """All registered traffic-model names."""
    return TRAFFIC.names()
