"""§5.3.4: hidden-terminal spots, MIDAS vs CAS (in-text statistic).

Paper protocol: two APs placed so they cannot overhear each other but close
enough that their coverage overlaps; DAS antennas at 50-75% of the CAS
transmission range; survey on a 1 m grid over 10 deployments.  A spot is a
*hidden-terminal spot* when it decodes its serving AP, the other AP's
transmission lands there with non-trivial interference, and the other AP
cannot sense the serving transmission (so it will not defer).  DAS removes
~94% of such spots.
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch
from ..channel.pathloss import coverage_range_m
from ..sim.batch import CarrierSenseBatch
from ..topology import geometry
from ..topology.deployment import AntennaMode
from ..topology.scenarios import hidden_terminal_scenario
from .common import ExperimentResult, removal_fraction


def hidden_spot_count_batch(
    scenario,
    channels,
    sense: CarrierSenseBatch,
    grid_points: np.ndarray,
    interference_inr_db: float = 3.0,
) -> np.ndarray:
    """Count hidden-terminal spots on the grid: per-item counts ``(batch,)``.

    A spot is hidden when it decodes its serving AP, the other AP's
    downlink lands there above ``interference_inr_db``, and no antenna of
    the other AP senses any antenna of the serving one.  ``scenario`` is
    the batch (its shared ownership structure and constants);
    ``channels`` is the matching :class:`~repro.channel.batch.ChannelBatch`.
    """
    deployment = scenario.deployment
    snr = channels.snr_db_map(grid_points)  # (batch, points, antennas)
    rx_dbm = channels.rx_power_dbm(grid_points)
    noise_dbm = units.mw_to_dbm(scenario.radio.noise_mw)
    decodable = sense.decodable_mask()
    busy_single = sense.single_tx_busy()

    counts = np.zeros(sense.n_items, dtype=int)
    items = range(sense.n_items)
    for ap_serving in (0, 1):
        ap_other = 1 - ap_serving
        serving_ants = deployment.antennas_of(ap_serving)
        other_ants = deployment.antennas_of(ap_other)

        best_serving = snr[:, :, serving_ants].max(axis=2)
        interference_dbm = units.mw_to_dbm(
            np.maximum(
                units.dbm_to_mw(rx_dbm[:, :, other_ants]).sum(axis=2), 1e-300
            )
        )
        covered = best_serving >= scenario.mac.decode_snr_db
        interfered = interference_dbm >= noise_dbm + interference_inr_db
        other_senses = (
            (decodable | busy_single)[np.ix_(items, other_ants, serving_ants)]
        ).any(axis=(1, 2))
        spots = np.count_nonzero(covered & interfered, axis=1)
        counts += np.where(other_senses, 0, spots)
    return counts


def _cas_sense(env, seeds):
    """The CAS scenario batch of ``seeds``, its channels and carrier sense."""
    scenario = hidden_terminal_scenario(env, seeds=seeds, modes=(AntennaMode.CAS,))[
        AntennaMode.CAS
    ]
    channels = ChannelBatch(scenario.deployment, scenario.radio, seeds)
    return scenario, channels, CarrierSenseBatch(
        channels.antenna_cross_power_dbm(), scenario.mac
    )


def _accept_batch(topo_seeds, params: dict) -> np.ndarray:
    """The paper's premise: the two CAS APs must NOT overhear each other.

    CAS-only synthesis: the DAS layouts (independent spawned lanes) are
    drawn by ``build_batch`` for accepted topologies only.
    """
    seeds = list(topo_seeds)
    scenario, __, sense = _cas_sense(resolve_environment(params["environment"]), seeds)
    decodable = sense.decodable_mask()
    a_ants = scenario.deployment.antennas_of(0)
    b_ants = scenario.deployment.antennas_of(1)
    items = range(len(seeds))
    overhears = (
        decodable[np.ix_(items, a_ants, b_ants)].any(axis=(1, 2))
        | decodable[np.ix_(items, b_ants, a_ants)].any(axis=(1, 2))
    )
    return ~overhears


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])
    coverage = coverage_range_m(env.radio)
    seeds = list(topo_seeds)
    inr_db = params["interference_inr_db"]
    cas_scenario, cas_channels, cas_sense = _cas_sense(env, seeds)
    # The corridor geometry (AP span) is deterministic per environment, so
    # one survey grid serves the whole batch.
    span = float(cas_scenario.deployment.ap_positions[0, 1, 0])
    grid = geometry.grid_points(
        (-coverage, span + coverage), (-coverage, coverage), params["grid_step_m"]
    )
    cas_counts = hidden_spot_count_batch(
        cas_scenario, cas_channels, cas_sense, grid, inr_db
    )
    das_scenario = hidden_terminal_scenario(env, seeds=seeds, modes=(AntennaMode.DAS,))[
        AntennaMode.DAS
    ]
    das_channels = ChannelBatch(das_scenario.deployment, das_scenario.radio, seeds)
    das_sense = CarrierSenseBatch(
        das_channels.antenna_cross_power_dbm(), das_scenario.mac
    )
    das_counts = hidden_spot_count_batch(
        das_scenario, das_channels, das_sense, grid, inr_db
    )
    return {"cas": cas_counts, "das": das_counts}


def _finalize(columns, params: dict) -> ExperimentResult:
    cas_counts, das_counts = columns["cas"], columns["das"]
    return ExperimentResult(
        name="hidden_terminals",
        description="Hidden-terminal spots per deployment (1 m grid)",
        series={
            "cas_spots": cas_counts.astype(float),
            "das_spots": das_counts.astype(float),
            "removal": removal_fraction(cas_counts, das_counts),
        },
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "grid_step_m": params["grid_step_m"],
            "interference_inr_db": params["interference_inr_db"],
        },
    )


@register_experiment
class HiddenTerminalsExperiment:
    name = "hidden_terminals"
    description = "Hidden-terminal spot removal, two-AP corridor (§5.3.4)"
    defaults = {
        "n_topologies": 10,
        "environment": "office_b",
        "grid_step_m": 1.0,
        "interference_inr_db": 3.0,
    }
    accept_batch = staticmethod(_accept_batch)
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
