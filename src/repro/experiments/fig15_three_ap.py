"""Fig 15: end-to-end 3-AP evaluation, CAS vs MIDAS.

Paper setup (§5.4): three mutually-overhearing APs, four clients each,
4x4-capable; CAS runs CSMA + the baseline precoder, MIDAS the DAS-aware MAC
+ power-balanced precoding.  CDF over 60 topologies; MIDAS gains ~200%.

The evaluation uses the paper's quasi-static round protocol (their WARP MAC
was open-loop, §4).  Pass ``dynamic=True`` for the closed-loop
discrete-event MAC instead (an extension the paper could not measure).
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..config import SimConfig
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..sim.network import NetworkSimulation
from ..topology.deployment import AntennaMode
from ..topology.scenarios import three_ap_scenario
from .common import ExperimentResult, accept_three_ap_overhearing


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    seeds = list(topo_seeds)
    pair = three_ap_scenario(env, seeds=seeds)
    cas, das = pair[AntennaMode.CAS], pair[AntennaMode.DAS]
    if params["dynamic"]:
        # The closed-loop discrete-event MAC is event-serial by nature: the
        # gate is batched, each accepted topology then simulates on its own.
        sim_cfg = SimConfig(duration_s=params["duration_s"])
        runs = [
            (
                NetworkSimulation(cas.take([item]), MacMode.CAS, sim_cfg, seed=seed).run(),
                NetworkSimulation(das.take([item]), MacMode.MIDAS, sim_cfg, seed=seed).run(),
            )
            for item, seed in enumerate(seeds)
        ]
        capacities = [(c.network_capacity_bps_hz, m.network_capacity_bps_hz) for c, m in runs]
        streams = [(c.mean_concurrent_streams, m.mean_concurrent_streams) for c, m in runs]
    else:
        rounds = params["rounds_per_topology"]
        runs = list(
            zip(
                RoundBasedEvaluatorBatch(cas, MacMode.CAS, seeds=seeds).run(rounds),
                RoundBasedEvaluatorBatch(das, MacMode.MIDAS, seeds=seeds).run(rounds),
            )
        )
        capacities = [(c.mean_capacity_bps_hz, m.mean_capacity_bps_hz) for c, m in runs]
        streams = [(c.mean_streams, m.mean_streams) for c, m in runs]
    capacities, streams = np.asarray(capacities), np.asarray(streams)
    return {
        "cas": capacities[:, 0],
        "midas": capacities[:, 1],
        "stream_ratio": streams[:, 1] / np.maximum(streams[:, 0], 1e-9),
    }

def _finalize(columns, params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig15" + ("_dynamic" if params["dynamic"] else ""),
        description="3-AP end-to-end network capacity (b/s/Hz)",
        series={key: columns[key] for key in ("cas", "midas", "stream_ratio")},
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "dynamic": params["dynamic"],
            "rounds_per_topology": params["rounds_per_topology"],
        },
    )


@register_experiment
class Fig15Experiment:
    name = "fig15"
    description = "End-to-end 3-AP network capacity (Fig 15)"
    defaults = {
        "n_topologies": 60,
        "environment": "office_b",
        "rounds_per_topology": 24,
        "dynamic": False,
        "duration_s": 0.1,
    }
    accept_batch = staticmethod(accept_three_ap_overhearing)
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
