"""Shared experiment plumbing: gates, capacities, sweeps.

Every helper here works on a batch of topology draws; a single topology is
a batch of one.  The result type and precoder dispatch live in
:mod:`repro.api` (:class:`~repro.api.result.ExperimentResult`,
:func:`~repro.api.precoders.capacity_for_batch` over the precoder
registry) and are re-exported for the experiment modules.
"""

from __future__ import annotations

import itertools

import numpy as np

from .. import xp as xpmod
from ..api.precoders import capacity_for_batch  # noqa: F401  (re-export)
from ..api.registry import MOBILITY
from ..api.result import ExperimentResult  # noqa: F401  (re-export)
from ..api.scenarios import resolve_environment
from ..core.batch import power_balanced_precoder as batch_power_balanced
from ..mobility import resolve_mobility
from ..phy.capacity import stream_sinrs, sum_capacity_bps_hz
from ..topology.deployment import AntennaMode


def accept_three_ap_overhearing(topo_seeds, params: dict) -> np.ndarray:
    """The acceptance gate of figs 12 and 15: ``(len(topo_seeds),)`` bool.

    Builds the CAS-only three-AP scenario batch and applies the paper's
    mutual overhearing rule via the batched carrier-sense gate.  CAS-only
    synthesis builds only the client generators, so the expensive,
    rejection-sampled DAS layouts are drawn for accepted seeds only, by
    the experiment's ``build_batch``.
    """
    from ..sim.batch import RoundBasedEvaluatorBatch
    from ..topology.scenarios import three_ap_scenario

    seeds = list(topo_seeds)
    cas = three_ap_scenario(
        resolve_environment(params["environment"]),
        seeds=seeds,
        modes=(AntennaMode.CAS,),
    )[AntennaMode.CAS]
    return RoundBasedEvaluatorBatch.mutual_overhear_mask(cas, seeds)


def greedy_siso_snrs_batch(snr_db: np.ndarray) -> np.ndarray:
    """Fig 7's greedy client-antenna mapping over ``(batch, n_clients,
    n_antennas)`` link SNRs (dB).

    Each round takes the strongest remaining (client, antenna) pair per
    item (flat argmax, first-index tie-breaking) and excludes both from
    later rounds; returns ``(batch, min(n_clients, n_antennas))`` SNRs in
    the order they were taken.
    """
    snr = np.array(snr_db, dtype=float)
    if snr.ndim != 3:
        raise ValueError(f"expected (batch, n_clients, n_antennas), got {snr.shape}")
    n_items, n_clients, n_antennas = snr.shape
    n = min(n_clients, n_antennas)
    values = np.empty((n_items, n))
    items = np.arange(n_items)
    for i in range(n):
        flat = np.argmax(snr.reshape(n_items, -1), axis=1)
        j, k = np.unravel_index(flat, (n_clients, n_antennas))
        values[:, i] = snr[items, j, k]
        snr[items, j, :] = -np.inf
        snr[items, :, k] = -np.inf
    return values


def batched_selection_capacities(subchannels, radio) -> list[float]:
    """Power-balanced capacities for a list of per-selection subchannels.

    ``subchannels`` holds one ``(n_chosen, n_available)`` channel slice per
    selection (or ``None``/empty for "no clients chosen", worth 0.0).
    Same-shape slices are stacked and solved through the batched
    power-balancing precoder in one call; results scatter back in order.
    """
    capacities = [0.0] * len(subchannels)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, h_sub in enumerate(subchannels):
        if h_sub is None or h_sub.shape[0] == 0:
            continue
        groups.setdefault(h_sub.shape, []).append(index)
    xp = xpmod.active()
    for shape, indices in groups.items():
        # Gather host-side, ship one stacked solve per shape group to the
        # active namespace (identity transfer on the default NumPy/float64).
        stack = xp.asarray(
            np.stack([subchannels[i] for i in indices]), dtype=xp.complex_dtype
        )
        result = batch_power_balanced(
            stack, radio.per_antenna_power_mw, radio.noise_mw
        )
        sums = xpmod.to_numpy(
            sum_capacity_bps_hz(stream_sinrs(stack, result.v, radio.noise_mw))
        )
        for slot, index in enumerate(indices):
            capacities[index] = float(sums[slot])
    return capacities


MODE_LABEL = {AntennaMode.CAS: "cas", AntennaMode.DAS: "das"}


def require_moving(experiment: str, mobility: str) -> None:
    """Fail early on mobility models a speed sweep cannot use: the static
    sentinel, and models not constructible from a bare speed."""
    factory = MOBILITY.get(mobility)  # unknown names list what is registered
    if getattr(factory, "is_static", False):
        raise ValueError(
            f"{experiment} sweeps client speed; pick a moving mobility "
            "model (e.g. 'gauss_markov'), not 'static'"
        )
    try:
        resolve_mobility(mobility, speed_mps=1.0)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{experiment} sweeps client speed, so its mobility model "
            f"must accept a speed_mps argument (e.g. 'gauss_markov', "
            f"'random_waypoint'); {mobility!r} does not: {exc}"
        ) from None


def sweep_on_batch_axis(seeds, evaluate, **axes) -> list[dict[str, np.ndarray]]:
    """Evaluate a parameter sweep with its points on the batch axis.

    ``axes`` names each swept parameter with its values.  Items are the
    product of ``seeds`` with every axis (seed-major, last axis fastest),
    so each seed repeats once per sweep point.  ``evaluate(item_seeds,
    item_points)`` gets the per-item seeds and point tuples and returns one
    ``{series_key: value}`` dict per item.  Returns one outcome per seed:
    each key maps to its values in item order, ``(n_points,)`` for a key
    every point reports.
    """
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"{name} is empty; give at least one value to sweep")
    seeds = list(seeds)
    points = list(itertools.product(*axes.values()))
    metrics = evaluate(
        [seed for seed in seeds for _ in points], points * len(seeds)
    )
    outcomes = []
    for i in range(len(seeds)):
        rows: dict[str, list] = {}
        for item in metrics[i * len(points) : (i + 1) * len(points)]:
            for key, value in item.items():
                rows.setdefault(key, []).append(value)
        outcomes.append(
            {key: np.asarray(values, dtype=float) for key, values in rows.items()}
        )
    return outcomes
