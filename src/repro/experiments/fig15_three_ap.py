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


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    seeds = list(topo_seeds)
    pair = three_ap_scenario(env, seeds=seeds)
    cas, das = pair[AntennaMode.CAS], pair[AntennaMode.DAS]
    if params["dynamic"]:
        # The closed-loop discrete-event MAC is event-serial by nature: the
        # gate is batched, each accepted topology then simulates on its own.
        sim_cfg = SimConfig(duration_s=params["duration_s"])
        outcomes = []
        for item, seed in enumerate(seeds):
            cas_run = NetworkSimulation(
                cas.take([item]), MacMode.CAS, sim_cfg, seed=seed
            ).run()
            midas_run = NetworkSimulation(
                das.take([item]), MacMode.MIDAS, sim_cfg, seed=seed
            ).run()
            outcomes.append(
                {
                    "cas": cas_run.network_capacity_bps_hz,
                    "midas": midas_run.network_capacity_bps_hz,
                    "streams": midas_run.mean_concurrent_streams
                    / max(cas_run.mean_concurrent_streams, 1e-9),
                }
            )
        return outcomes
    rounds = params["rounds_per_topology"]
    cas_results = RoundBasedEvaluatorBatch(cas, MacMode.CAS, seeds=seeds).run(rounds)
    das_results = RoundBasedEvaluatorBatch(das, MacMode.MIDAS, seeds=seeds).run(rounds)
    return [
        {
            "cas": cas_res.mean_capacity_bps_hz,
            "midas": midas_res.mean_capacity_bps_hz,
            "streams": midas_res.mean_streams / max(cas_res.mean_streams, 1e-9),
        }
        for cas_res, midas_res in zip(cas_results, das_results)
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig15" + ("_dynamic" if params["dynamic"] else ""),
        description="3-AP end-to-end network capacity (b/s/Hz)",
        series={
            "cas": np.asarray([o["cas"] for o in outcomes]),
            "midas": np.asarray([o["midas"] for o in outcomes]),
            "stream_ratio": np.asarray([o["streams"] for o in outcomes]),
        },
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
