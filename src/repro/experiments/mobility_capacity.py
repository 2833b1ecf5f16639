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
from ..api.scenarios import resolve_environment
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, require_moving, sweep_on_batch_axis

_SYSTEMS = (
    ("cas", AntennaMode.CAS, MacMode.CAS),
    ("midas", AntennaMode.DAS, MacMode.MIDAS),
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
    require_moving("mobility_capacity", params["mobility"])

    def evaluate(item_seeds, item_points):
        # Each seed is synthesized once; its sweep points repeat its item.
        first_item: dict = {}
        items = [first_item.setdefault(seed, len(first_item)) for seed in item_seeds]
        pair = paired_scenarios(
            env,
            [(0.0, 0.0)],
            antennas_per_ap=params["antennas_per_ap"],
            clients_per_ap=params["clients_per_ap"],
            seeds=list(first_item),
        )
        metrics: list[dict] = [{} for _ in item_seeds]
        for label, antenna_mode, mac_mode in _SYSTEMS:
            scenario = pair[antenna_mode]
            results = RoundBasedEvaluatorBatch(
                scenario.take(items),
                mac_mode,
                seeds=item_seeds,
                mobility=params["mobility"],
                mobility_kwargs=[{"speed_mps": speed} for (speed,) in item_points],
                resound_period_rounds=params["resound_period_rounds"],
            ).run(params["rounds_per_topology"])
            txop_us = scenario.mac.txop_us
            for item, result in zip(metrics, results):
                for metric, value in _metrics(result, txop_us).items():
                    item[f"{label}_{metric}"] = value
        return metrics

    return sweep_on_batch_axis(topo_seeds, evaluate, speeds_mps=params["speeds_mps"])


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
