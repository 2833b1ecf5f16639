"""Fig 12: ratio of simultaneous transmissions, MIDAS/CAS, 3 APs.

Paper protocol (§5.3.1): three APs that can overhear each other; randomly
enable one to four transmissions at AP A, count how many AP B's antennas
can simultaneously support given their NAV and carrier-sensing states,
enable those too, then evaluate AP C.  The CAS reference supports four
(one AP active at a time).  Median improvement ~50%; only ~2/30 topologies
fall below 1.0.  Deployments obey the 60-degree sector rule.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch, count_streams_batch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import three_ap_scenario
from .common import ExperimentResult, accept_three_ap_overhearing


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    seeds = list(topo_seeds)
    pair = three_ap_scenario(env, seeds=seeds)
    das_batch = RoundBasedEvaluatorBatch(pair[AntennaMode.DAS], MacMode.MIDAS, seeds=seeds)
    rngs = [rng_mod.make_rng(seed) for seed in seeds]
    midas_streams = count_streams_batch(
        das_batch, rngs, params["rounds_per_topology"]
    )
    cas_streams = len(pair[AntennaMode.CAS].deployment.antennas_of(0))
    return {
        "midas": np.asarray(midas_streams, dtype=float),
        "cas": np.full(len(seeds), float(cas_streams)),
    }


def _finalize(columns, params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="fig12",
        description="Ratio of simultaneous streams (MIDAS/CAS), 3 APs",
        series={"stream_ratio": columns["midas"] / columns["cas"]},
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "rounds_per_topology": params["rounds_per_topology"],
        },
    )


@register_experiment
class Fig12Experiment:
    name = "fig12"
    description = "Simultaneous-stream ratio in a 3-AP network (Fig 12)"
    defaults = {
        "n_topologies": 30,
        "environment": "office_b",
        "rounds_per_topology": 12,
    }
    accept_batch = staticmethod(accept_three_ap_overhearing)
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
