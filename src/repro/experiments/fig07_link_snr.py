"""Fig 7: link-layer SISO SNR distribution, CAS vs DAS.

Paper setup: fixed CAS antenna positions, DAS antennas and clients random
over 60 topologies, four antennas per AP; each client greedily maps to the
strongest remaining antenna.  DAS shows a ~5 dB median link gain.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, greedy_siso_snrs_batch


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    n = params["n_antennas"]
    pair = paired_scenarios(
        env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
    )
    per_mode = {}
    for mode, scenario in pair.items():
        batch = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds)
        per_mode[mode.value] = greedy_siso_snrs_batch(batch.snr_db_map())
    return [
        {"cas": per_mode["cas"][i], "das": per_mode["das"][i]}
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    snrs: dict[str, list[float]] = {"cas": [], "das": []}
    for outcome in outcomes:
        snrs["cas"].extend(outcome["cas"])
        snrs["das"].extend(outcome["das"])
    return ExperimentResult(
        name="fig07",
        description="Link-layer SISO SNR across clients (dB)",
        series={
            "cas_snr_db": np.asarray(snrs["cas"]),
            "das_snr_db": np.asarray(snrs["das"]),
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "n_antennas": params["n_antennas"],
        },
    )


@register_experiment
class Fig07Experiment:
    name = "fig07"
    description = "Link-layer SISO SNR, CAS vs DAS (Fig 7)"
    defaults = {"n_topologies": 60, "environment": "office_b", "n_antennas": 4}
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
