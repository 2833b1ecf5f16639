"""Fig 10: the power-balanced precoder's uplift on CAS and DAS separately.

Paper: on identical deployments, swapping the naive baseline for the
power-balanced precoder lifts CAS median capacity ~12% and DAS ~30% --
evidence that DAS's topology imbalance is what the precoder exploits.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, capacity_columns


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    n = params["n_antennas"]
    pair = paired_scenarios(
        env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
    )
    return capacity_columns(
        pair,
        topo_seeds,
        [
            (mode, precoder, f"{mode.value}_{precoder}")
            for mode in pair
            for precoder in ("naive", "balanced")
        ],
    )


def _finalize(columns, params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig10",
        description="Impact of power-balanced precoding (b/s/Hz), 4x4",
        series=dict(columns),
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
