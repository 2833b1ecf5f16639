"""Fig 3: capacity drop from naive per-antenna power scaling, CAS vs DAS.

Paper setup: one four-antenna AP, four single-antenna clients, trace-based;
the CDF of ``C(total-power ZFBF) - C(naive globally-scaled ZFBF)`` is far
heavier for DAS than CAS -- the motivating observation for power-balanced
precoding.
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
            for precoder in ("total_power", "naive")
        ],
    )


def _finalize(columns, params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig03",
        description="Capacity drop of naive power scaling (b/s/Hz), 4x4 MU-MIMO",
        series={
            f"{mode}_drop": np.maximum(
                0.0, columns[f"{mode}_total_power"] - columns[f"{mode}_naive"]
            )
            for mode in ("cas", "das")
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "n_antennas": params["n_antennas"],
        },
    )


@register_experiment
class Fig03Experiment:
    name = "fig03"
    description = "Capacity drop of naive power scaling, CAS vs DAS (Fig 3)"
    defaults = {"n_topologies": 60, "environment": "office_b", "n_antennas": 4}
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
