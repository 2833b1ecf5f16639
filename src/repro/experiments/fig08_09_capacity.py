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
from ..channel.batch import ChannelBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, capacity_for_batch


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    series: dict[str, np.ndarray] = {}
    for n in params["antenna_counts"]:
        pair = paired_scenarios(
            env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
        )
        for mode, key, precoder in (
            (AntennaMode.CAS, f"cas_{n}x{n}", "naive"),
            (AntennaMode.DAS, f"midas_{n}x{n}", params["precoder"]),
        ):
            scenario = pair[mode]
            h = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds).channel_matrices()
            series[key] = capacity_for_batch(scenario, h, precoder)
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    series: dict[str, np.ndarray] = {}
    for n in params["antenna_counts"]:
        for stack in ("cas", "midas"):
            key = f"{stack}_{n}x{n}"
            series[key] = np.asarray([o[key] for o in outcomes])
    return ExperimentResult(
        name=f"fig08_09[{env.name}]",
        description=f"MU-MIMO capacity (b/s/Hz), {env.name}",
        series=series,
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
