"""Figs 8 & 9: MU-MIMO capacity CDFs, CAS (baseline precoder) vs MIDAS
(DAS + power-balanced precoding), 2x2 and 4x4, Offices A and B.

Paper: MIDAS gains 40-67% (two antennas) rising to 45-80% (four) in median
capacity over the conventional CAS system.

The registered specs expose a ``precoder`` parameter (default
``"balanced"``) so any registered precoder can play the MIDAS role, e.g.
``RunSpec("fig09", precoder="wmmse")``.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, capacity_columns


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    columns: dict[str, np.ndarray] = {}
    for n in params["antenna_counts"]:
        pair = paired_scenarios(
            env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
        )
        columns.update(
            capacity_columns(
                pair,
                topo_seeds,
                [
                    (AntennaMode.CAS, "naive", f"cas_{n}x{n}"),
                    (AntennaMode.DAS, params["precoder"], f"midas_{n}x{n}"),
                ],
            )
        )
    return columns


def _finalize(columns, params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    return ExperimentResult(
        name=f"fig08_09[{env.name}]",
        description=f"MU-MIMO capacity (b/s/Hz), {env.name}",
        series=dict(columns),
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "environment": env.name,
            "antenna_counts": tuple(params["antenna_counts"]),
        },
    )


@register_experiment
class Fig08Experiment:
    name = "fig08"
    description = "MU-MIMO capacity CDFs, Office A (Fig 8)"
    defaults = {
        "n_topologies": 60,
        "environment": "office_a",
        "antenna_counts": [2, 4],
        "precoder": "balanced",
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)


@register_experiment
class Fig09Experiment:
    name = "fig09"
    description = "MU-MIMO capacity CDFs, Office B (Fig 9)"
    defaults = {
        "n_topologies": 60,
        "environment": "office_b",
        "antenna_counts": [2, 4],
        "precoder": "balanced",
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
