"""Fig 11: MIDAS's closed-form precoder vs the numerical optimum.

Paper: per-topology capacities of the MIDAS precoder track the optimal
precoder (MATLAB toolbox) within ~99% in trace simulation; on the testbed
the slow optimizer sometimes *loses* because the channel moves while it
solves.  We reproduce both: the per-topology scatter on frozen channels,
and a "stale optimum" variant where the channel evolves for the solver's
latency before the precoder is applied.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..core.batch import power_balanced_precoder as batch_power_balanced
from ..core.optimal import optimal_power_allocation
from ..phy.capacity import stream_sinrs, sum_capacity_bps_hz
from ..topology.deployment import AntennaMode
from ..topology.scenarios import single_ap_scenario
from .common import ExperimentResult


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    n = params["n_antennas"]
    scenario = single_ap_scenario(
        env, AntennaMode.DAS, n_antennas=n, n_clients=n, seeds=topo_seeds
    )
    radio = scenario.radio
    p = radio.per_antenna_power_mw
    noise = radio.noise_mw
    batch = ChannelBatch(scenario.deployment, radio, topo_seeds)
    h = batch.channel_matrices()
    balanced = batch_power_balanced(h, p, noise)
    midas = sum_capacity_bps_hz(stream_sinrs(h, balanced.v, noise))
    # The numerical optimum stays per item (iterative convex solver); the
    # stale-capacity evaluation of its precoders is batched again.
    optima = [optimal_power_allocation(item, p, noise) for item in h]
    opt_v = np.stack([opt.v for opt in optima])
    batch.advance(params["solver_latency_s"])
    h_later = batch.channel_matrices()
    stale = sum_capacity_bps_hz(stream_sinrs(h_later, opt_v, noise))
    return [
        {
            "midas": midas[i],
            "optimal": optima[i].capacity_bps_hz,
            "optimal_stale": stale[i],
        }
        for i in range(len(topo_seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    midas_arr = np.asarray([o["midas"] for o in outcomes])
    optimal_arr = np.asarray([o["optimal"] for o in outcomes])
    return ExperimentResult(
        name="fig11",
        description="MIDAS vs optimal precoder, per-topology capacity (b/s/Hz)",
        series={
            "midas": midas_arr,
            "optimal": optimal_arr,
            "optimal_stale": np.asarray([o["optimal_stale"] for o in outcomes]),
            "efficiency": midas_arr / np.maximum(optimal_arr, 1e-12),
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "n_antennas": params["n_antennas"],
            "solver_latency_s": params["solver_latency_s"],
        },
    )


@register_experiment
class Fig11Experiment:
    name = "fig11"
    description = "MIDAS precoder vs numerical optimum (Fig 11)"
    defaults = {
        "n_topologies": 20,
        "environment": "office_b",
        "n_antennas": 4,
        "solver_latency_s": 2.0,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
