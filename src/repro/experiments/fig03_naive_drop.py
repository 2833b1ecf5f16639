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
from ..channel.batch import ChannelBatch
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, capacity_for_batch


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    n = params["n_antennas"]
    pair = paired_scenarios(
        env, [(0.0, 0.0)], antennas_per_ap=n, clients_per_ap=n, seeds=topo_seeds
    )
    drops = {}
    for mode, scenario in pair.items():
        h = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds).channel_matrices()
        reference = capacity_for_batch(scenario, h, "total_power")
        naive = capacity_for_batch(scenario, h, "naive")
        drops[mode.value] = np.maximum(0.0, reference - naive)
    return [
        {"cas": drops["cas"][i], "das": drops["das"][i]}
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig03",
        description="Capacity drop of naive power scaling (b/s/Hz), 4x4 MU-MIMO",
        series={
            "cas_drop": np.asarray([o["cas"] for o in outcomes]),
            "das_drop": np.asarray([o["das"] for o in outcomes]),
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
