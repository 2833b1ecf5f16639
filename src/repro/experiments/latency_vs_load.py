"""Throughput-delay curves under finite load: Office B, DAS vs CAS.

The paper evaluates MIDAS under saturation only (its WARP MAC was
open-loop); this extension loads the same Office-B single-cell deployment
with a registered arrival process (default per-client Poisson) swept across
offered loads, and measures what the paper could not: queueing delay,
jitter, and queue depth as the cell approaches saturation.  The expected
shape is the classic hockey stick -- delay flat while the offered load fits
inside the MU-MIMO capacity region, then diverging at the knee -- with the
MIDAS knee sitting at a higher load than CAS's because distributed antennas
raise per-stream SINRs (Bellalta et al. observe the same qualitative shift
for aggregation-heavy MU-MIMO WLANs).

Series (each ``(n_topologies, n_loads)``): ``{cas,midas}_throughput_mbps``,
``{cas,midas}_delay_ms``, ``{cas,midas}_p95_delay_ms``,
``{cas,midas}_queue_kbytes``.  Delay entries are ``inf`` where nothing
departed (hard overload) -- finite in practice at the default loads.
"""

from __future__ import annotations

import numpy as np

from ..api.experiments import register_experiment
from ..api.scenarios import resolve_environment
from ..sim.batch import MacMode, RoundBasedEvaluatorBatch
from ..topology.deployment import AntennaMode
from ..topology.scenarios import paired_scenarios
from ..traffic import resolve_traffic
from .common import ExperimentResult, sweep_on_batch_axis

_SYSTEMS = (
    ("cas", AntennaMode.CAS, MacMode.CAS),
    ("midas", AntennaMode.DAS, MacMode.MIDAS),
)


def _traffic_kwargs(params: dict, offered_mbps: float) -> dict:
    """Per-client traffic-factory arguments for one offered cell load."""
    model = resolve_traffic(params["traffic"], rate_mbps=1.0)
    if model.is_full_buffer:
        raise ValueError(
            "latency_vs_load measures finite-load queueing; pick a "
            "finite-rate traffic model (e.g. 'poisson'), not 'full_buffer'"
        )
    return {
        "rate_mbps": offered_mbps / params["clients_per_ap"],
        "packet_bytes": params["packet_bytes"],
    }


def _metrics(results) -> dict[str, list[float]]:
    return {
        "throughput_mbps": [r.throughput_mbps for r in results],
        "delay_ms": [r.mean_delay_s * 1e3 for r in results],
        "p95_delay_ms": [r.delay_quantile(0.95) * 1e3 for r in results],
        "queue_kbytes": [r.mean_queue_bytes / 1e3 for r in results],
    }


def _build_batch(topo_seeds, params: dict) -> dict[str, np.ndarray]:
    env = resolve_environment(params["environment"])

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
        traffic_kwargs = [_traffic_kwargs(params, load) for (load,) in item_points]
        columns = {}
        for label, antenna_mode, mac_mode in _SYSTEMS:
            results = RoundBasedEvaluatorBatch(
                pair[antenna_mode].take(items),
                mac_mode,
                seeds=item_seeds,
                traffic=params["traffic"],
                traffic_kwargs=traffic_kwargs,
            ).run(params["rounds_per_topology"])
            for metric, values in _metrics(results).items():
                columns[f"{label}_{metric}"] = values
        return columns

    return sweep_on_batch_axis(
        topo_seeds, evaluate, offered_loads_mbps=params["offered_loads_mbps"]
    )


def _finalize(columns, params: dict) -> ExperimentResult:
    env = resolve_environment(params["environment"])
    return ExperimentResult(
        name=f"latency_vs_load[{env.name}]",
        description=(
            "Throughput-delay curves vs offered load, single-cell "
            f"{env.name}, CAS vs MIDAS"
        ),
        series=dict(sorted(columns.items())),
        params={
            "n_topologies": params["n_topologies"],
            "seed": params["seed"],
            "environment": env.name,
            "traffic": params["traffic"],
            "offered_loads_mbps": tuple(params["offered_loads_mbps"]),
            "rounds_per_topology": params["rounds_per_topology"],
            "packet_bytes": params["packet_bytes"],
            "antennas_per_ap": params["antennas_per_ap"],
            "clients_per_ap": params["clients_per_ap"],
        },
    )


@register_experiment
class LatencyVsLoadExperiment:
    name = "latency_vs_load"
    description = "Finite-load throughput-delay curves, Office B DAS vs CAS"
    defaults = {
        "n_topologies": 30,
        "environment": "office_b",
        "antennas_per_ap": 4,
        "clients_per_ap": 4,
        "rounds_per_topology": 40,
        "offered_loads_mbps": [10.0, 20.0, 40.0, 80.0, 160.0],
        "traffic": "poisson",
        "packet_bytes": 1500.0,
    }
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)
