"""Finite-load traffic & queueing: arrivals, A-MPDU aggregation, latency.

The round engines and the discrete-event MAC are full-buffer by default;
this package opens the finite-load axis.  A registered arrival process
(``full_buffer``, ``poisson``, ``on_off``, ``cbr`` -- see
:func:`register_traffic <repro.api.registry.register_traffic>`) returns
each window's arrivals as arrays, one :class:`TrafficState` per engine
keeps every batch item's per-client byte queues (carved into 802.11e
access categories) as stacked FIFO rings, an 802.11ac A-MPDU model
converts each stream's post-precoding SINR into served bytes, and the
engines report per-packet delay, jitter, and queue occupancy alongside the
usual capacity series.

Quick use::

    from repro.sim import MacMode, RoundBasedEvaluatorBatch

    [result] = RoundBasedEvaluatorBatch(
        [scenario], MacMode.MIDAS, seeds=[0], traffic="poisson",
        traffic_kwargs={"rate_mbps": 10.0},
    ).run(40)
    result.mean_delay_s, result.throughput_mbps

or declaratively, ``RunSpec("latency_vs_load", traffic="poisson")``.
"""

from .ampdu import VHT_MAX_AMPDU_BYTES, AmpduConfig
from .models import (
    Arrivals,
    CbrTraffic,
    FullBufferTraffic,
    OnOffTraffic,
    PoissonTraffic,
    TrafficModel,
    access_category,
    resolve_traffic,
    traffic_names,
)
from .state import TrafficState, TrafficSummary

__all__ = [
    "AmpduConfig",
    "VHT_MAX_AMPDU_BYTES",
    "Arrivals",
    "CbrTraffic",
    "FullBufferTraffic",
    "OnOffTraffic",
    "PoissonTraffic",
    "TrafficModel",
    "access_category",
    "resolve_traffic",
    "traffic_names",
    "TrafficState",
    "TrafficSummary",
]
