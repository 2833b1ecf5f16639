"""Fig 10: the power-balanced precoder's uplift on CAS and DAS separately.

Paper: on identical deployments, swapping the naive baseline for the
power-balanced precoder lifts CAS median capacity ~12% and DAS ~30% --
evidence that DAS's topology imbalance is what the precoder exploits.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, capacity_for_batch

_SERIES = ("cas_naive", "cas_balanced", "das_naive", "das_balanced")


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    n = params["n_antennas"]
    pair = paired_scenarios(
        env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
    )
    series = {}
    for mode, scenario in pair.items():
        h = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds).channel_matrices()
        for precoder in ("naive", "balanced"):
            series[f"{mode.value}_{precoder}"] = capacity_for_batch(scenario, h, precoder)
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig10",
        description="Impact of power-balanced precoding (b/s/Hz), 4x4",
        series={k: np.asarray([o[k] for o in outcomes]) for k in _SERIES},
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "n_antennas": params["n_antennas"],
        },
    )


@register_experiment
class Fig10Experiment:
    name = "fig10"
    description = "Precoding impact on CAS and DAS separately (Fig 10)"
    defaults = {"n_topologies": 60, "environment": "office_b", "n_antennas": 4}
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
