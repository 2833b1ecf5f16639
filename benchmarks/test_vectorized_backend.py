"""Stacking speed-up benchmarks: whole-sweep stacks vs one seed per call.

Each benchmark times the same sweep twice through ``build_batch``: once
at ``batch_size=1`` (one seed per call, the unstacked reference) and once
at the default stack size.  Opt-in like every benchmark
(``python -m pytest benchmarks/``):

* ``test_vectorized_speedup_100_topologies`` -- the capacity-sweep claim:
  stacking runs a 100-topology fig10 sweep (naive and power-balanced
  precoding on paired CAS/DAS deployments) at >= 3x one seed per call,
  bit-identically.
* ``test_vectorized_fig15_speedup_100_topologies`` -- the round-engine
  claim: the batched quasi-static network evaluator runs a 100-topology
  fig15 sweep (3-AP CAS vs MIDAS, 24 rounds each, overhearing-gated
  rejection sampling) stacked at >= 3x one seed per call, bit-identically.
* ``test_vectorized_latency_smoke`` (``-m benchsmoke``) -- the finite-load
  claim: a 100-topology ``latency_vs_load`` sweep (Poisson arrivals, two
  offered loads, per-round A-MPDU service and delay accounting at both
  stack sizes) runs >= 3x faster stacked, bit-identically.  The queueing
  layer itself is deliberately shared scalar code, so this guards against
  it ever growing into the bottleneck that erases the batching win.
* ``test_vectorized_mobility_smoke`` (``-m benchsmoke``) -- the
  moving-channel claim: a 100-topology ``mobility_capacity`` sweep
  (pedestrian Gauss-Markov trajectories, per-client Doppler, stale-CSI
  precoding with periodic re-sounding and tag re-derivation at both
  stack sizes) runs >= 3x faster stacked, bit-identically.  Mobility adds
  per-item python work (trajectory steps, per-item shadowing resampling)
  at both stack sizes; this guards the batching win against that overhead.
* ``test_vectorized_smoke`` / ``test_vectorized_fig15_smoke``
  (``-m benchsmoke``) -- seconds-scale versions for CI: assert
  bit-identity and always write the timing JSON artifact.

Timings go to ``$VECTORIZED_BENCH_JSON`` (default
``vectorized_timings.json``, the fig15 run appends ``-fig15``) so CI can
upload them as artifacts.  The JSON keeps its historical keys:
``loop_seconds`` is the one-seed-per-call time, ``vectorized_seconds`` the
stacked time.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunSpec, Runner


def _best_of(runner: Runner, spec: RunSpec, repeats: int) -> tuple[float, dict]:
    """Fastest wall-clock of ``repeats`` runs plus the last result's series."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner.run(spec)
        best = min(best, time.perf_counter() - start)
    return best, result.series


def _run_benchmark(
    experiment: str,
    n_topologies: int,
    repeats: int,
    suffix: str = "",
    params: dict | None = None,
) -> dict:
    spec = RunSpec(experiment, n_topologies=n_topologies, seed=0, params=params or {})
    loop_s, loop_series = _best_of(Runner(batch_size=1), spec, repeats)
    vec_s, vec_series = _best_of(Runner(), spec, repeats)
    for key in loop_series:
        assert np.array_equal(loop_series[key], vec_series[key]), (
            f"stack sizes diverged on series {key!r}"
        )
    timings = {
        "experiment": experiment,
        "n_topologies": n_topologies,
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "speedup": loop_s / vec_s,
        "bit_identical": True,
    }
    out = Path(os.environ.get("VECTORIZED_BENCH_JSON", "vectorized_timings.json"))
    if suffix:
        out = out.with_name(out.stem + suffix + out.suffix)
    out.write_text(json.dumps(timings, indent=2) + "\n")
    print(
        f"\n{experiment} x{n_topologies}: one seed per call {loop_s:.3f}s, "
        f"stacked {vec_s:.3f}s, speedup {timings['speedup']:.2f}x -> {out}"
    )
    return timings


def test_vectorized_speedup_100_topologies():
    timings = _run_benchmark("fig10", n_topologies=100, repeats=3)
    assert timings["speedup"] >= 3.0, (
        f"stacked capacity sweep only {timings['speedup']:.2f}x faster"
    )


def test_vectorized_fig15_speedup_100_topologies():
    # The round-based network engine: 100 three-AP topologies at the
    # registered default of 24 rounds each, including the CAS overhearing
    # gate's rejection sampling (which the stacked scheduler overdraws).
    timings = _run_benchmark("fig15", n_topologies=100, repeats=1, suffix="-fig15")
    assert timings["speedup"] >= 3.0, (
        f"vectorized round engine only {timings['speedup']:.2f}x faster"
    )


#: The finite-load smoke sweep: two offered loads bracketing the CAS knee,
#: 30 TXOP rounds per topology -- big enough that the stacked round engine
#: amortizes, small enough to stay seconds-scale on CI.
_LATENCY_PARAMS = {"offered_loads_mbps": [20.0, 80.0], "rounds_per_topology": 30}


@pytest.mark.benchsmoke
def test_vectorized_latency_smoke():
    # The finite-load sweep must keep the batching win even though queue
    # accounting is shared scalar code: >= 3x, bit-identical delay series.
    timings = _run_benchmark(
        "latency_vs_load",
        n_topologies=100,
        repeats=1,
        suffix="-latency",
        params=_LATENCY_PARAMS,
    )
    assert timings["bit_identical"]
    assert timings["speedup"] >= 3.0, (
        f"vectorized finite-load sweep only {timings['speedup']:.2f}x faster"
    )


#: The moving-channel smoke sweep: two pedestrian speeds, 30 rounds per
#: topology with re-sounding every 4th round -- big enough to amortize the
#: stacked round engine, seconds-scale on CI.
_MOBILITY_PARAMS = {"speeds_mps": [1.0, 3.0], "rounds_per_topology": 30}


@pytest.mark.benchsmoke
def test_vectorized_mobility_smoke():
    # The mobility sweep must keep the batching win even though trajectory
    # stepping and large-scale re-evaluation are per-item python code:
    # >= 3x, bit-identical capacity and sounding-overhead series.
    timings = _run_benchmark(
        "mobility_capacity",
        n_topologies=100,
        repeats=1,
        suffix="-mobility",
        params=_MOBILITY_PARAMS,
    )
    assert timings["bit_identical"]
    assert timings["speedup"] >= 3.0, (
        f"vectorized mobility sweep only {timings['speedup']:.2f}x faster"
    )


@pytest.mark.benchsmoke
def test_vectorized_smoke():
    timings = _run_benchmark("fig10", n_topologies=12, repeats=2)
    # The bit-identity assertion inside _run_benchmark is the smoke test's
    # real job; millisecond-scale timings on shared CI runners are too
    # noisy to gate on, so the speedup is only recorded in the artifact.
    # The >= 3x claim is the opt-in 100-topology benchmark's to enforce.
    assert timings["bit_identical"]


@pytest.mark.benchsmoke
def test_vectorized_fig15_smoke():
    timings = _run_benchmark("fig15", n_topologies=6, repeats=1, suffix="-fig15")
    assert timings["bit_identical"]
