"""Fig 16: large-scale trace-driven simulation, 8 APs in 60 x 60 m.

Paper setup (§5.5): eight 4x4-capable APs; no CAS AP overhears more than
three others; DAS antennas stay inside the original coverage area with >= 5 m
separation; CSI is measured and fed back into the simulation.  DAS
outperforms CAS by more than 150%.

The indoor channel model stands in for the paper's measured CSI: each
topology's channel is synthesized from its seed, and both stacks run through
the round-based evaluator on the same per-topology seeds.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import eight_ap_placed, eight_ap_scenario
from .common import ExperimentResult


def _accept_batch(topo_seeds, params: dict) -> np.ndarray:
    return eight_ap_placed(
        resolve_environment(params["environment"]),
        seeds=list(topo_seeds),
        region_m=params["region_m"],
    )


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    seeds = list(topo_seeds)
    placed, pair = eight_ap_scenario(env, seeds=seeds, region_m=params["region_m"])
    if not placed.all():
        raise ValueError(
            f"fig16: AP placement fails for seeds "
            f"{[seed for seed, ok in zip(seeds, placed) if not ok]}; "
            f"build only seeds its accept_batch accepts"
        )
    rounds = params["rounds_per_topology"]
    cas_results = RoundBasedEvaluatorBatch(
        pair[AntennaMode.CAS], MacMode.CAS, seeds=seeds
    ).run(rounds)
    das_results = RoundBasedEvaluatorBatch(
        pair[AntennaMode.DAS], MacMode.MIDAS, seeds=seeds
    ).run(rounds)
    return {
        "cas": np.asarray([r.mean_capacity_bps_hz for r in cas_results]),
        "midas": np.asarray([r.mean_capacity_bps_hz for r in das_results]),
    }


def _finalize(columns, params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig16",
        description="8-AP 60x60 m network capacity (b/s/Hz)",
        series={key: columns[key] for key in ("cas", "midas")},
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "rounds_per_topology": params["rounds_per_topology"],
            "region_m": params["region_m"],
        },
    )


@register_experiment
class Fig16Experiment:
    name = "fig16"
    description = "Large-scale 8-AP trace-driven simulation (Fig 16)"
    defaults = {
        "n_topologies": 20,
        "environment": "office_b",
        "rounds_per_topology": 16,
        "region_m": 60.0,
    }
    accept_batch = staticmethod(_accept_batch)
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
