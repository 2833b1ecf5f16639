"""Ablations over MIDAS design choices (§3.2.4, §3.2.3, §7 discussions).

* **Tag width** -- the paper argues one tag under-utilizes antennas and
  tagging all antennas picks far clients; two is the medium-density sweet
  spot.  ``ablation_tag_width`` measures capacity against tag width.
* **DAS radius** -- §7 recommends placing antennas at 50-75% of the CAS
  coverage range; ``ablation_das_radius`` sweeps the ring.
* **Precoder zoo** -- naive / power-balanced / convex-optimal / WMMSE /
  full numerical optimum on identical DAS channels
  (``ablation_precoders``).
* **CSI error** -- robustness of the precoders to sounding error
  (``ablation_csi_error``).
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from ..api.experiments import register_experiment
from ..api.precoders import precoder_matrix_batch
from ..api.scenarios import resolve_environment
from ..channel.batch import ChannelBatch, apply_csi_error
from ..channel.pathloss import coverage_range_m
from ..core.batch import power_balanced_precoder as batch_power_balanced
from ..core.tagging import tag_mask
from ..phy.capacity import stream_sinrs, sum_capacity_bps_hz
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios, single_ap_scenario
from .common import ExperimentResult, batched_selection_capacities
from .fig14_tagging import _subchannel, tagged_selection


def _series_from(outcomes: list[dict], keys) -> dict[str, np.ndarray]:
    return {k: np.asarray([o[k] for o in outcomes]) for k in keys}


# ----------------------------------------------------------------------
# Tag width
# ----------------------------------------------------------------------
def _tag_width_build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    scenario = single_ap_scenario(env, AntennaMode.DAS, seeds=topo_seeds)
    batch = ChannelBatch(scenario.deployment, scenario.radio, topo_seeds)
    h = batch.channel_matrices()
    rssi = batch.client_rx_power_dbm()
    widths = list(params["widths"])
    tags = [tag_mask(rssi, width) for width in widths]
    subchannels = []
    for index, seed in enumerate(topo_seeds):
        rng = rng_mod.make_rng(seed)
        available = rng.choice(4, size=params["n_available"], replace=False)
        for width_tags in tags:
            clients = tagged_selection(width_tags[index], available, rssi[index])
            subchannels.append(_subchannel(h[index], available, clients))
    capacities = batched_selection_capacities(subchannels, scenario.radio)
    stride = len(widths)
    return [
        {
            f"width_{width}": capacities[index * stride + offset]
            for offset, width in enumerate(widths)
        }
        for index in range(len(topo_seeds))
    ]


def _tag_width_finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="ablation_tag_width",
        description="Tagged-selection capacity vs tag width (b/s/Hz)",
        series=_series_from(outcomes, [f"width_{w}" for w in params["widths"]]),
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "widths": tuple(params["widths"]),
        },
    )


@register_experiment
class TagWidthAblation:
    name = "ablation_tag_width"
    description = "Tagged-selection capacity vs tag width"
    defaults = {
        "n_topologies": 40,
        "environment": "office_b",
        "widths": [1, 2, 3, 4],
        "n_available": 2,
    }
    build_batch = staticmethod(_tag_width_build_batch)
    finalize = staticmethod(_tag_width_finalize)


# ----------------------------------------------------------------------
# DAS placement radius
# ----------------------------------------------------------------------
def _ring_key(low: float, high: float) -> str:
    return f"ring_{int(low * 100)}_{int(high * 100)}"


def _das_radius_build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    coverage = coverage_range_m(env.radio)
    series = {}
    for low, high in params["fractions"]:
        scenario = paired_scenarios(
            env,
            [(0.0, 0.0)],
            seeds=topo_seeds,
            das_radius_min_m=low * coverage,
            das_radius_max_m=high * coverage,
            modes=(AntennaMode.DAS,),
        )[AntennaMode.DAS]
        radio = scenario.radio
        h = ChannelBatch(scenario.deployment, radio, topo_seeds).channel_matrices()
        v = batch_power_balanced(h, radio.per_antenna_power_mw, radio.noise_mw).v
        series[_ring_key(low, high)] = sum_capacity_bps_hz(
            stream_sinrs(h, v, radio.noise_mw)
        )
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(topo_seeds))
    ]


def _das_radius_finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    keys = [_ring_key(low, high) for low, high in params["fractions"]]
    return ExperimentResult(
        name="ablation_das_radius",
        description="MIDAS capacity vs DAS ring radius (b/s/Hz)",
        series=_series_from(outcomes, keys),
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "fractions": tuple(tuple(f) for f in params["fractions"]),
        },
    )


@register_experiment
class DasRadiusAblation:
    name = "ablation_das_radius"
    description = "MIDAS capacity vs DAS placement ring"
    defaults = {
        "n_topologies": 40,
        "environment": "office_b",
        "fractions": [[0.2, 0.4], [0.5, 0.75], [0.8, 1.0]],
    }
    build_batch = staticmethod(_das_radius_build_batch)
    finalize = staticmethod(_das_radius_finalize)


# ----------------------------------------------------------------------
# Precoder zoo
# ----------------------------------------------------------------------
def _precoder_names(params: dict) -> list[str]:
    names = ["naive", "balanced", "optimal_zf", "wmmse"]
    if params["include_full_optimal"]:
        names.append("full_optimal")
    return names


def _precoders_build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    scenario = single_ap_scenario(env, AntennaMode.DAS, seeds=topo_seeds)
    radio = scenario.radio
    p = radio.per_antenna_power_mw
    noise = radio.noise_mw
    h = ChannelBatch(scenario.deployment, radio, topo_seeds).channel_matrices()
    series = {
        name: sum_capacity_bps_hz(
            stream_sinrs(h, precoder_matrix_batch(name, h, p, noise), noise)
        )
        for name in _precoder_names(params)
    }
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(topo_seeds))
    ]


def _precoders_finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    return ExperimentResult(
        name="ablation_precoders",
        description="Precoder zoo on identical DAS channels (b/s/Hz)",
        series=_series_from(outcomes, _precoder_names(params)),
        params={"n_topologies": params["n_topologies"], "seed": params["seed"]},
    )


@register_experiment
class PrecoderAblation:
    name = "ablation_precoders"
    description = "Precoder zoo on identical DAS channels"
    defaults = {
        "n_topologies": 12,
        "environment": "office_b",
        "include_full_optimal": True,
    }
    build_batch = staticmethod(_precoders_build_batch)
    finalize = staticmethod(_precoders_finalize)


# ----------------------------------------------------------------------
# CSI error
# ----------------------------------------------------------------------
def _csi_error_build_batch(topo_seeds, params: dict) -> list[dict]:
    env = resolve_environment(params["environment"])
    scenario = single_ap_scenario(env, AntennaMode.DAS, seeds=topo_seeds)
    radio = scenario.radio
    p = radio.per_antenna_power_mw
    noise = radio.noise_mw
    h = ChannelBatch(scenario.deployment, radio, topo_seeds).channel_matrices()
    # CSI noise draws walk each item's own generator in error_stds order, so
    # an item's draws never depend on its batch; the precoding/capacity
    # math batches.
    error_stds = list(params["error_stds"])
    estimates = {err: [] for err in error_stds}
    for index, seed in enumerate(topo_seeds):
        rng = rng_mod.make_rng(seed)
        for err in error_stds:
            estimates[err].append(apply_csi_error(h[index], err, rng))
    series = {}
    for err in error_stds:
        h_est = np.stack(estimates[err])
        v = batch_power_balanced(h_est, p, noise).v
        series[f"err_{err:g}"] = sum_capacity_bps_hz(stream_sinrs(h, v, noise))
    return [
        {key: values[i] for key, values in series.items()}
        for i in range(len(topo_seeds))
    ]


def _csi_error_finalize(outcomes: list[dict], params: dict) -> ExperimentResult:
    keys = [f"err_{e:g}" for e in params["error_stds"]]
    return ExperimentResult(
        name="ablation_csi_error",
        description="Power-balanced capacity vs CSI error (b/s/Hz)",
        series=_series_from(outcomes, keys),
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "error_stds": tuple(params["error_stds"]),
        },
    )


@register_experiment
class CsiErrorAblation:
    name = "ablation_csi_error"
    description = "Power-balanced capacity vs CSI sounding error"
    defaults = {
        "n_topologies": 30,
        "environment": "office_b",
        "error_stds": [0.0, 0.05, 0.1, 0.2],
    }
    build_batch = staticmethod(_csi_error_build_batch)
    finalize = staticmethod(_csi_error_finalize)
