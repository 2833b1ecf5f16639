"""Finite-load latency: what delay does a loaded MIDAS cell deliver?

The paper evaluates under saturation; this example loads the same Office-B
cell with per-client Poisson traffic swept across offered loads (the
``latency_vs_load`` experiment) and prints throughput-delay curves for CAS
vs MIDAS, the saturation knee under a 10 ms delay budget, and a voice-class
CBR run showing EDCA prioritization in the round engine.

Run:  python examples/loaded_cell_latency.py [n_topologies]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import RunSpec, Runner
from repro.analysis import saturation_load_mbps, throughput_delay_curve
from repro.sim import MacMode, RoundBasedEvaluatorBatch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


def main(n_topologies: int = 8) -> None:
    loads = [10.0, 20.0, 40.0, 80.0, 160.0]
    print(f"Office B single cell, {n_topologies} topologies, Poisson downlink\n")

    result = Runner(backend="vectorized").run(
        RunSpec(
            "latency_vs_load",
            n_topologies=n_topologies,
            seed=0,
            params={"offered_loads_mbps": loads, "rounds_per_topology": 30},
        )
    )

    print("-- throughput-delay curves (medians over topologies) --")
    print(f"{'offered':>10} | {'CAS Mb/s':>9} {'CAS ms':>8} | {'MIDAS Mb/s':>10} {'MIDAS ms':>8}")
    __, cas_thr, cas_delay = throughput_delay_curve(result, "cas")
    __, midas_thr, midas_delay = throughput_delay_curve(result, "midas")
    for i, offered in enumerate(loads):
        print(
            f"{offered:>10.0f} | {cas_thr[i]:>9.1f} {cas_delay[i]:>8.2f} | "
            f"{midas_thr[i]:>10.1f} {midas_delay[i]:>8.2f}"
        )
    budget = 10.0
    print(
        f"\nsaturation knee (median delay <= {budget:.0f} ms): "
        f"CAS {saturation_load_mbps(result, 'cas', budget):.0f} Mb/s, "
        f"MIDAS {saturation_load_mbps(result, 'midas', budget):.0f} Mb/s\n"
    )

    # -- EDCA classes: voice CBR rides VOICE and sees low jitter ----------
    # One topology is a batch of one for the round engine.
    scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[1])
    [voice] = RoundBasedEvaluatorBatch(
        scenario,
        MacMode.MIDAS,
        seeds=[1],
        traffic="cbr",
        traffic_kwargs={"rate_mbps": 0.5, "packet_bytes": 200.0, "category": "voice"},
    ).run(50)
    print("-- 0.5 Mb/s voice CBR per client (EDCA VOICE class) --")
    print(
        f"mean delay {voice.mean_delay_s * 1e3:.2f} ms, "
        f"p95 {voice.delay_quantile(0.95) * 1e3:.2f} ms, "
        f"jitter {voice.delay_jitter_s * 1e3:.2f} ms, "
        f"goodput {voice.throughput_mbps:.2f} Mb/s"
    )
    assert np.all(voice.delay_samples_s > 0)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
