"""Aggregation helpers over multiple simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import SimulationResult


@dataclass(frozen=True)
class RunSummary:
    """Summary statistics across a batch of simulation results."""

    network_capacities_bps_hz: np.ndarray
    mean_concurrent_streams: np.ndarray
    collision_fractions: np.ndarray


def summarize(results: list[SimulationResult]) -> RunSummary:
    """Collect the headline series from a batch of runs.

    Raises :class:`ValueError` on an empty result list -- summarizing
    nothing would otherwise surface later as NaN medians plus a
    ``RuntimeWarning`` deep inside numpy.
    """
    if not results:
        raise ValueError(
            "summarize() needs at least one SimulationResult; got an empty "
            "list (did every run get filtered out?)"
        )
    return RunSummary(
        network_capacities_bps_hz=np.asarray(
            [r.network_capacity_bps_hz for r in results]
        ),
        mean_concurrent_streams=np.asarray([r.mean_concurrent_streams for r in results]),
        collision_fractions=np.asarray([r.collision_fraction for r in results]),
    )


def jain_fairness(per_client_throughput: np.ndarray) -> float:
    """Jain's fairness index of a per-client throughput vector.

    Raises :class:`ValueError` on an empty vector or all-zero throughput:
    the index is 0/0 there, and silently reporting a number (or NaN plus a
    ``RuntimeWarning``) hides that the run delivered nothing.
    """
    x = np.asarray(per_client_throughput, dtype=float)
    if x.size == 0:
        raise ValueError("jain_fairness() needs at least one client throughput")
    if np.all(x == 0):
        raise ValueError(
            "jain_fairness() is undefined for all-zero throughput (0/0); "
            "the run delivered no bytes, check it before asking for fairness"
        )
    return float((x.sum() ** 2) / (x.size * np.sum(x**2)))
