"""Capacity and re-sounding overhead on moving channels: Office B, CAS vs
MIDAS across client speeds.

The paper's Fig. 11 argument is that MIDAS's closed-form reverse
water-filling fits inside a channel coherence time, so it keeps working
when the channel moves while slower numerical optima fall behind.  The
paper evaluated that with frozen clients and emulated fading; this
extension moves the clients themselves.  A registered mobility model
(default pedestrian Gauss-Markov) drifts every client along a trajectory,
the large-scale channel follows the geometry, per-client Doppler follows
actual speed, and the AP re-sounds CSI only every ``resound_period_rounds``
rounds -- between soundings, precoders run on stale CSI and virtual packet
tags lag the clients' true anchor antennas, which is exactly the regime
Firouzabadi & Goldsmith analyze for DAS capacity under varying geometry.

Series (each ``(n_topologies, n_speeds)``):

* ``{cas,midas}_capacity_bps_hz`` -- mean per-round sum capacity,
* ``{cas,midas}_sounding_fraction`` -- fraction of airtime spent on the
  explicit re-sounding exchanges (``repro.phy.sounding`` airtime against
  the TXOP window).

The zero-speed column is the parked-but-stale baseline: clients do not
move (Gauss-Markov speed noise scales with the mean speed), yet CSI still
refreshes only at the re-sounding period, isolating the pure staleness
penalty from the geometric drift.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.registry import MOBILITY
from ..api.scenarios import resolve_environment
from ..mobility import resolve_mobility
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult

_SYSTEMS = (
    ("cas", AntennaMode.CAS, MacMode.CAS),
    ("midas", AntennaMode.DAS, MacMode.MIDAS),
)


def _require_moving(name: str) -> None:
    """Fail early (once per build) on models this experiment cannot sweep:
    the static sentinel, and models not constructible from a bare speed."""
    factory = MOBILITY.get(name)  # unknown names list what is registered
    if getattr(factory, "is_static", False):
        raise ValueError(
            "mobility_capacity sweeps client speed; pick a moving mobility "
            "model (e.g. 'gauss_markov'), not 'static'"
        )
    try:
        resolve_mobility(name, speed_mps=1.0)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"mobility_capacity sweeps client speed, so its mobility model "
            f"must accept a speed_mps argument (e.g. 'gauss_markov', "
            f"'random_waypoint'); {name!r} does not: {exc}"
        ) from None


def _pair(env, params: dict, seed: int):
    return paired_scenarios(
        env,
        [(0.0, 0.0)],
        antennas_per_ap=params["antennas_per_ap"],
        clients_per_ap=params["clients_per_ap"],
        seed=seed,
        name="mobility",
    )


def _metrics(result, txop_us: float) -> dict[str, float]:
    sounding_us = result.mean_sounding_us
    return {
        "capacity_bps_hz": result.mean_capacity_bps_hz,
        # Each round is one TXOP window; the explicit re-sounding exchanges
        # stretch it, so overhead = sounding / (sounding + TXOP airtime).
        "sounding_fraction": sounding_us / (sounding_us + txop_us),
    }


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    _require_moving(params["mobility"])
    seeds = list(topo_seeds)
    pairs = [_pair(env, params, seed) for seed in seeds]
    speeds = params["speeds_mps"]
    series: dict[str, np.ndarray] = {}
    for label, antenna_mode, mac_mode in _SYSTEMS:
        scenarios = [pair[antenna_mode] for pair in pairs]
        txop_us = scenarios[0].mac.txop_us
        for j, speed in enumerate(speeds):
            results = RoundBasedEvaluatorBatch(
                scenarios,
                mac_mode,
                seeds=seeds,
                mobility=params["mobility"],
                mobility_kwargs={"speed_mps": speed},
                resound_period_rounds=params["resound_period_rounds"],
            ).run(params["rounds_per_topology"])
            for i, result in enumerate(results):
                for metric, value in _metrics(result, txop_us).items():
                    key = f"{label}_{metric}"
                    series.setdefault(
                        key, np.empty((len(seeds), len(speeds)))
                    )[i, j] = value
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(seeds))
    ]


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    series = {
        key: np.stack([o[key] for o in outcomes]) for key in sorted(outcomes[0])
    }
    return ExperimentResult(
        name=f"mobility_capacity[{env.name}]",
        description=(
            "Capacity and re-sounding overhead vs client speed, single-cell "
            f"{env.name}, CAS vs MIDAS under CSI staleness"
        ),
        series=series,
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "environment": env.name,
            "mobility": params["mobility"],
            "speeds_mps": tuple(params["speeds_mps"]),
            "resound_period_rounds": params["resound_period_rounds"],
            "rounds_per_topology": params["rounds_per_topology"],
            "antennas_per_ap": params["antennas_per_ap"],
            "clients_per_ap": params["clients_per_ap"],
        },
    )


@register_experiment
class MobilityCapacityExperiment:
    name = "mobility_capacity"
    description = "Capacity vs client speed under CSI staleness, Office B DAS vs CAS"
    defaults = {
        "n_topologies": 30,
        "environment": "office_b",
        "antennas_per_ap": 4,
        "clients_per_ap": 4,
        "rounds_per_topology": 40,
        "speeds_mps": [0.0, 0.5, 1.0, 2.0, 4.0],
        "mobility": "gauss_markov",
        "resound_period_rounds": 4,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
