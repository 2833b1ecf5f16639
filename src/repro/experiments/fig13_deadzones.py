"""Fig 13: deadzone maps and deadspot reduction, MIDAS vs CAS.

Paper protocol (§5.3.3): deploy one AP in CAS and MIDAS modes (DAS antennas
random around the AP), survey the coverage area on a 0.5 m grid, flag
deadspots, repeat over 10 deployments.  DAS removes ~91% of deadspots.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..channel.pathloss import coverage_range_m
from ..topology import geometry
from ..topology.scenarios import paired_scenarios
from .common import ExperimentResult, removal_fraction


@lru_cache(maxsize=8)
def _survey_points(environment_name: str, grid_step_m: float) -> np.ndarray:
    """The fixed survey grid clipped to the coverage disk (deterministic;
    memoized on the registry name since every topology shares it)."""
    coverage = coverage_range_m(resolve_environment(environment_name).radio)
    grid = geometry.grid_points(
        (-coverage, coverage), (-coverage, coverage), grid_step_m
    )
    return grid[geometry.points_within(grid, (0.0, 0.0), coverage)]


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    survey_points = _survey_points(params["environment"], float(params["grid_step_m"]))
    masks = {}
    for mode, scenario in paired_scenarios(env, [(0.0, 0.0)], seeds=topo_seeds).items():
        batch = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds)
        snr = batch.snr_db_map(survey_points)  # (batch, n_points, n_antennas)
        best = snr.max(axis=-1)
        masks[mode.value] = best - params["fade_margin_db"] < scenario.mac.decode_snr_db
    return masks


def _finalize(columns, params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    survey_points = _survey_points(params["environment"], float(params["grid_step_m"]))
    cas_counts = columns["cas"].sum(axis=1)
    das_counts = columns["das"].sum(axis=1)
    return ExperimentResult(
        name="fig13",
        description="Deadspot counts per deployment (0.5 m grid)",
        series={
            "cas_deadspots": cas_counts.astype(float),
            "das_deadspots": das_counts.astype(float),
            "reduction": removal_fraction(cas_counts, das_counts),
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "grid_step_m": params["grid_step_m"],
            "coverage_m": coverage_range_m(env.radio),
            "fade_margin_db": params["fade_margin_db"],
        },
        notes={
            "example_maps": {
                "points": survey_points,
                "cas_mask": columns["cas"][0],
                "das_mask": columns["das"][0],
            }
        },
    )


@register_experiment
class Fig13Experiment:
    name = "fig13"
    description = "Deadzone survey and deadspot reduction (Fig 13)"
    defaults = {
        "n_topologies": 10,
        "environment": "office_b",
        "grid_step_m": 0.5,
        "fade_margin_db": 6.0,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
