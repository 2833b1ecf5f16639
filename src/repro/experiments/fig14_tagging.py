"""Fig 14: the effect of virtual packet tagging on client selection.

Paper protocol (§5.3.2): a MIDAS AP with two of four antennas available at
the MAC and four backlogged clients.  Tagged selection picks the two
clients whose preference lists match the available antennas; the baseline
picks two clients at random.  Tagging lifts median capacity ~50%.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..core.tagging import tag_mask
from ..topology.deployment import AntennaMode
from ..topology.scenarios import single_ap_scenario
from .common import ExperimentResult, batched_selection_capacities


def tagged_selection(tags: np.ndarray, available: np.ndarray, rssi: np.ndarray) -> list[int]:
    """One client per available antenna, among clients tagged to it (``tags``
    is one item's ``(n_clients, n_antennas)`` :func:`tag_mask`); ties on the
    (all-equal) fairness counters resolve toward the stronger link."""
    chosen: list[int] = []
    for antenna in available:
        candidates = [c for c in np.flatnonzero(tags[:, antenna]) if c not in chosen]
        if not candidates:
            continue
        best = max(candidates, key=lambda c: rssi[c, int(antenna)])
        chosen.append(int(best))
    return chosen


def _subchannel(h: np.ndarray, antennas: np.ndarray, clients: list[int]):
    """The (clients x available-antennas) slice one selection precodes over,
    or ``None`` for an empty selection (capacity 0)."""
    if not clients:
        return None
    return h[np.ix_(np.asarray(clients, dtype=int), antennas)]


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    n_antennas = params["n_antennas"]
    n_available = params["n_available"]
    scenario = single_ap_scenario(
        env, AntennaMode.DAS, n_antennas=n_antennas, n_clients=n_antennas, seeds=topo_seeds
    )
    batch = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds)
    h = batch.channel_matrices()
    rssi = batch.client_rx_power_dbm()
    tags = tag_mask(rssi, params["tag_width"])
    # Selections stay per item (tiny integer logic over each item's own
    # generator stream); the power-balanced capacities batch by shape.
    subchannels = []
    for index, seed in enumerate(topo_seeds):
        rng = rng_mod.make_rng(seed)
        available = rng.choice(n_antennas, size=n_available, replace=False)
        with_tags = tagged_selection(tags[index], available, rssi[index])
        random_clients = list(rng.choice(n_antennas, size=n_available, replace=False))
        subchannels.append(_subchannel(h[index], available, with_tags))
        subchannels.append(_subchannel(h[index], available, random_clients))
    capacities = batched_selection_capacities(subchannels, scenario.radio)
    return [
        {"tagged": capacities[2 * i], "random": capacities[2 * i + 1]}
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig14",
        description="Virtual packet tagging vs random client pick (b/s/Hz)",
        series={
            "tagged": np.asarray([o["tagged"] for o in outcomes]),
            "random": np.asarray([o["random"] for o in outcomes]),
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "n_available": params["n_available"],
            "tag_width": params["tag_width"],
        },
    )


@register_experiment
class Fig14Experiment:
    name = "fig14"
    description = "Virtual packet tagging vs random selection (Fig 14)"
    defaults = {
        "n_topologies": 60,
        "environment": "office_b",
        "n_antennas": 4,
        "n_available": 2,
        "tag_width": 2,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
