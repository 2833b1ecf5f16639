"""Latency analysis: delay CDFs and throughput-delay curves.

Companions to :mod:`repro.analysis.cdf` for the finite-load results the
traffic subsystem produces: per-packet delay samples (from
:attr:`repro.sim.batch.RoundBasedResult.delay_samples_s`, one item's slice
of its run's packed :class:`~repro.sim.batch.RoundLog` delays, or a
``latency_vs_load`` run) and offered-load sweeps.
"""

from __future__ import annotations

import numpy as np

from .cdf import EmpiricalCdf


def _as_delay_samples(delays) -> np.ndarray:
    """Accept raw samples or anything exposing ``delay_samples_s``."""
    samples = getattr(delays, "delay_samples_s", delays)
    return np.asarray(samples, dtype=float).ravel()


def _require_samples(samples: np.ndarray) -> np.ndarray:
    """Shared empty-run guard: an empty delay distribution has no summary."""
    if samples.size == 0:
        raise ValueError(
            "no departed packets: the run produced no delay samples "
            "(overloaded or too short)"
        )
    return samples


def delay_cdf(delays) -> EmpiricalCdf:
    """Empirical CDF of packet delays.

    ``delays`` is a sample array or a finite-load result object (anything
    with a ``delay_samples_s`` attribute).  Raises :class:`ValueError` when
    no packet ever departed -- an empty delay distribution has no CDF.
    """
    return EmpiricalCdf(_require_samples(_as_delay_samples(delays)))


def delay_percentiles(delays, qs=(0.5, 0.9, 0.95, 0.99)) -> np.ndarray:
    """Delay quantiles at ``qs``.

    Raises :class:`ValueError` when no packet ever departed, exactly like
    :func:`delay_cdf` (use :meth:`RoundBasedResult.delay_quantile` if an
    ``inf`` sentinel is preferred over an exception).
    """
    samples = _require_samples(_as_delay_samples(delays))
    return np.quantile(samples, np.asarray(tuple(qs), dtype=float))


def throughput_delay_curve(
    result, system: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offered, throughput, delay) curve for one system of a
    ``latency_vs_load`` result.

    ``result`` is the experiment's :class:`~repro.api.result.RunResult`;
    ``system`` is ``"cas"`` or ``"midas"``.  Per-topology series are
    reduced across the topology axis by their median.
    Returns offered load (Mb/s), delivered throughput (Mb/s), and mean
    delay (ms) -- the arrays a throughput-delay plot needs.
    """
    offered = np.asarray(result.params["offered_loads_mbps"], dtype=float)
    throughput = np.asarray(result.series[f"{system}_throughput_mbps"], dtype=float)
    delay = np.asarray(result.series[f"{system}_delay_ms"], dtype=float)
    if throughput.ndim != 2 or throughput.shape[1] != offered.size:
        raise ValueError(
            "expected (n_topologies, n_loads) series matching the offered "
            f"loads; got {throughput.shape} vs {offered.size} loads"
        )
    return offered, np.median(throughput, axis=0), np.median(delay, axis=0)


def saturation_load_mbps(
    result, system: str, delay_budget_ms: float = 10.0
) -> float:
    """Largest offered load whose median delay stays within the budget.

    The knee summary for one system of a ``latency_vs_load`` result:
    ``-inf`` if even the lightest load misses the budget.
    """
    offered, __, delay = throughput_delay_curve(result, system)
    within = offered[delay <= delay_budget_ms]
    return float(within.max()) if within.size else float("-inf")
