"""Roaming clients across a campus AP grid: handoff rate, outage, and
capacity per association policy.

The paper deploys MIDAS one AP at a time; this extension asks what happens
when a client walks *between* cells.  A small campus grid
(:func:`repro.topology.scenarios.campus_scenario`, DAS/MIDAS stack only)
puts clients near cell edges, a registered mobility model drifts them
across boundaries, and every re-sounding the association layer re-evaluates
the client->AP map under each registered policy:

* ``nearest_anchor`` -- the paper's implicit rule: stay with the deploy-time
  AP, so no handoffs ever happen (the zero-handoff baseline),
* ``strongest_rssi`` -- greedy instantaneous best-AP (ping-pongs at edges),
* ``hysteresis_handoff`` -- smoothed RSSI + dwell + margin, the 802.11-style
  roaming rule that trades a little capacity for handoff stability.

Series (each ``(n_topologies, n_speeds)``, per policy):

* ``{policy}_capacity_bps_hz`` -- mean per-round sum capacity,
* ``{policy}_handoffs`` -- total handoff events over the run,
* ``{policy}_outage_fraction`` -- fraction of handoffs whose client was
  still unserved at the next re-sounding (service gap across the move).

The spec-level ``association`` axis restricts the sweep to one policy;
``coordination`` selects the cross-cell scheduling mode for every policy.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..assoc import association_names
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import campus_scenario
from .common import ExperimentResult, require_moving, sweep_on_batch_axis


def _policies(params: dict) -> list[str]:
    """The policy sweep: every registered default, or just the spec's one."""
    chosen = params["association"]
    if chosen is None:
        return list(params["policies"])
    if chosen not in association_names():
        raise ValueError(
            f"unknown association policy {chosen!r}; "
            f"registered: {', '.join(association_names())}"
        )
    return [chosen]


def _policy_kwargs(policy: str, params: dict) -> dict | None:
    if policy == "hysteresis_handoff":
        return {
            "hysteresis_db": params["hysteresis_db"],
            "dwell_soundings": params["dwell_soundings"],
        }
    return None


def _metrics(result, handoffs: int, outages: int) -> dict[str, float]:
    return {
        "capacity_bps_hz": result.mean_capacity_bps_hz,
        "handoffs": float(handoffs),
        "outage_fraction": outages / max(1, handoffs),
    }


def _build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    require_moving("roaming_handoff", params["mobility"])

    def evaluate(item_seeds, item_points):
        # Each seed is synthesized once; its sweep points repeat its item.
        first_item: dict = {}
        items = [first_item.setdefault(seed, len(first_item)) for seed in item_seeds]
        scenario = campus_scenario(
            env,
            n_rows=params["n_rows"],
            n_cols=params["n_cols"],
            spacing_m=params["spacing_m"],
            antennas_per_ap=params["antennas_per_ap"],
            clients_per_ap=params["clients_per_ap"],
            seeds=list(first_item),
            modes=(AntennaMode.DAS,),
        )[AntennaMode.DAS]
        batch = RoundBasedEvaluatorBatch(
            scenario.take(items),
            MacMode.MIDAS,
            seeds=item_seeds,
            mobility=params["mobility"],
            mobility_kwargs=[{"speed_mps": speed} for __, speed in item_points],
            resound_period_rounds=params["resound_period_rounds"],
            association=[policy for policy, __ in item_points],
            association_kwargs=[
                _policy_kwargs(policy, params) for policy, __ in item_points
            ],
            coordination=params["coordination"],
        )
        results = batch.run(params["rounds_per_topology"])
        handoffs = batch.association.handoff_count.tolist()
        outages = batch.association.outage_count.tolist()
        return [
            {
                f"{policy}_{metric}": value
                for metric, value in _metrics(result, *counts).items()
            }
            for (policy, __), result, counts in zip(
                item_points, results, zip(handoffs, outages)
            )
        ]

    return sweep_on_batch_axis(
        topo_seeds,
        evaluate,
        policies=_policies(params),
        speeds_mps=params["speeds_mps"],
    )


def _finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    series = {
        key: np.stack([o[key] for o in outcomes]) for key in sorted(outcomes[0])
    }
    return ExperimentResult(
        name=f"roaming_handoff[{env.name}]",
        description=(
            "Handoff count, outage-during-handoff, and capacity vs client "
            f"speed per association policy, {params['n_rows']}x"
            f"{params['n_cols']} campus grid, {env.name}, MIDAS"
        ),
        series=series,
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "environment": env.name,
            "mobility": params["mobility"],
            "speeds_mps": tuple(params["speeds_mps"]),
            "policies": tuple(_policies(params)),
            "coordination": params["coordination"],
            "resound_period_rounds": params["resound_period_rounds"],
            "rounds_per_topology": params["rounds_per_topology"],
            "n_rows": params["n_rows"],
            "n_cols": params["n_cols"],
            "spacing_m": params["spacing_m"],
            "antennas_per_ap": params["antennas_per_ap"],
            "clients_per_ap": params["clients_per_ap"],
            "hysteresis_db": params["hysteresis_db"],
            "dwell_soundings": params["dwell_soundings"],
        },
    )


@register_experiment
class RoamingHandoffExperiment:
    name = "roaming_handoff"
    description = (
        "Handoffs, outage, and capacity vs speed per association policy "
        "on a campus AP grid"
    )
    defaults = {
        "n_topologies": 8,
        "environment": "office_b",
        "n_rows": 2,
        "n_cols": 2,
        "spacing_m": 20.0,
        "antennas_per_ap": 4,
        "clients_per_ap": 3,
        "rounds_per_topology": 30,
        "speeds_mps": [0.5, 2.0, 6.0],
        "mobility": "gauss_markov",
        "resound_period_rounds": 2,
        "policies": ["nearest_anchor", "strongest_rssi", "hysteresis_handoff"],
        "association": None,
        "coordination": "independent",
        "hysteresis_db": 4.0,
        "dwell_soundings": 2,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
