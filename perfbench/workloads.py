"""The benchmark's workloads: one registered experiment each, pinned sizes.

Every workload runs through ``repro.Runner(backend="vectorized", jobs=1)``
with no cache.  ``n_topologies`` is the size one timed ``Runner.run``
evaluates; ``warmup_topologies`` is the smaller run each fresh interpreter
makes at :data:`REFERENCE_SEED` before timing starts.  That warm-up is also
the run the correctness gate compares against ``reference.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of the warm-up run whose per-series medians ``reference.json`` pins.
REFERENCE_SEED = 2014


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    n_topologies: int
    warmup_topologies: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="office_capacity",
            experiment="fig09",
            n_topologies=1024,
            warmup_topologies=64,
            why=(
                "fig09 Office B 2x2 and 4x4 capacity CDF: one-shot sweep of few "
                "huge stacks, dominated by topology and channel synthesis; no "
                "MAC, sim or traffic"
            ),
        ),
        Workload(
            name="loaded_cell",
            experiment="latency_vs_load",
            n_topologies=8,
            warmup_topologies=1,
            why=(
                "latency_vs_load Poisson traffic at 5 loads: round engine under "
                "finite load, many tiny precoder stacks, traffic queues busy"
            ),
        ),
        Workload(
            name="three_ap_network",
            experiment="fig15",
            n_topologies=128,
            warmup_topologies=4,
            why=(
                "fig15 3-AP quasi-static rounds: rejection sampling through the "
                "overhear gate plus cross-AP carrier sense and scoring"
            ),
        ),
        Workload(
            name="campus_roaming",
            experiment="roaming_handoff",
            n_topologies=2,
            warmup_topologies=1,
            why=(
                "roaming_handoff 2x2 campus, gauss_markov, 3 policies x 3 speeds: "
                "the only workload running assoc, mobility and Doppler evolution"
            ),
        ),
    )
}
