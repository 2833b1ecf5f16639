"""Quickstart: the declarative ``RunSpec`` -> ``Runner`` -> ``RunResult`` API.

Three stops:

1. run a registered experiment (Fig 10, precoding impact) from one spec,
2. swap the precoder by registry name (``RunSpec(precoder=...)``) and cache
   results on disk keyed by spec hash,
3. drop below the session API to inspect a single channel with the
   low-level library surface, like the paper's §3.1 walkthrough (every
   kernel is batched; one channel is a batch of one).

Run:  python examples/quickstart.py [seed]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AntennaMode,
    ChannelBatch,
    Runner,
    RunSpec,
    office_b,
    power_balanced_precoder,
    single_ap_scenario,
    stream_sinrs,
    sum_capacity_bps_hz,
)


def main(seed: int = 7) -> None:
    # -- 1. one spec, one result -------------------------------------------
    runner = Runner()
    result = runner.run(RunSpec("fig10", n_topologies=12, seed=seed))
    print(result.summary())
    print(
        "power-balanced uplift: "
        f"CAS {result.gain('cas_balanced', 'cas_naive'):+.0%}, "
        f"DAS {result.gain('das_balanced', 'das_naive'):+.0%} "
        "(paper: ~+12% / ~+30%)\n"
    )

    # -- 2. pluggable precoders + cached, serializable results -------------
    with tempfile.TemporaryDirectory() as tmp:
        cached = Runner(cache_dir=Path(tmp) / "cache")
        for precoder in ("balanced", "wmmse"):
            spec = RunSpec("fig09", n_topologies=6, seed=seed, precoder=precoder)
            capacity = cached.run(spec)  # second identical run would be a cache hit
            print(
                f"fig09 with precoder={precoder!r}: "
                f"median 4x4 MIDAS capacity {capacity.median('midas_4x4'):.2f} b/s/Hz"
            )
        saved = capacity.save(Path(tmp) / "fig09.json")
        print(f"results round-trip through JSON/npz (wrote {saved.name})\n")

    # -- 3. the low-level library is still right there ---------------------
    scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[seed])
    channel = ChannelBatch(scenario.deployment, scenario.radio, seeds=[seed])
    h = channel.channel_matrices()  # (1, n_clients, n_antennas)
    balanced = power_balanced_precoder(
        h, scenario.radio.per_antenna_power_mw, scenario.radio.noise_mw
    )
    sinrs = stream_sinrs(h, balanced.v, scenario.radio.noise_mw)[0]
    sinrs_db = 10 * np.log10(sinrs)
    print(f"one single-AP office_b {scenario.mode.value} channel, power-balanced by hand:")
    print(
        f"  capacity {sum_capacity_bps_hz(sinrs):.2f} "
        f"b/s/Hz, converged in {int(balanced.rounds[0])} round(s)"
    )
    print("  per-client SINR (dB):", np.round(sinrs_db, 1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
