"""Telemetry is observation only: byte-identical outputs, zero RNG impact.

The contract the whole :mod:`repro.obs` layer rests on: instrumentation
never draws randomness and never changes engine control flow, so every
series an engine produces is ``array_equal`` with telemetry on or off --
on every engine: the batched round engine behind ``roaming_handoff`` (at
one seed per call and stacked, which differ only in stack size), and the
event-driven ``NetworkSimulation`` -- the one per-topology engine, run on
batches of one -- both behind ``fig15`` and driven directly with mobility,
association and finite load -- and every RNG the run creates ends in
exactly the same state.  Plus the acceptance checks of the traced path itself: a traced
run's JSONL is schema-valid, names every documented counter, and its
per-phase span totals account for the engine wall-clock.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro import rng as rng_mod
from repro.api import Runner, RunSpec
from repro.obs import CORE_COUNTERS

#: Small-but-real configurations, one per engine family.  roaming_handoff
#: exercises the batched round engine (a batch of one per call at
#: ``batch_size=1``) with mobility, association, and handoff accounting; fig15
#: additionally drives the event-driven carrier-sense engine
#: (NetworkSimulation) for CAS.
_CASES = [
    ("roaming_handoff", {"rounds_per_topology": 8}),
    ("fig15", {"dynamic": True, "duration_s": 0.02}),
]

#: Stack sizes: one seed per ``build_batch`` call, and the default stack.
_BATCH_SIZES = {"batch_size=1": 1, "stacked": None}


def _run(experiment, params, stacking, telemetry=None):
    spec = RunSpec(experiment, n_topologies=2, seed=7, params=params)
    runner = Runner(batch_size=_BATCH_SIZES[stacking], telemetry=telemetry)
    return runner.run(spec)


class _RngLedger:
    """Every generator a run creates, so final states can be compared.

    ``make_rng`` and ``spawn`` are the only constructors in the codebase
    (everything else receives generators from them), so tracking both sees
    every stream a run consumes.
    """

    def __init__(self, monkeypatch):
        self.generators: list[np.random.Generator] = []
        orig_make, orig_spawn = rng_mod.make_rng, rng_mod.spawn

        def make_rng(seed):
            generator = orig_make(seed)
            if generator not in self.generators:
                self.generators.append(generator)
            return generator

        def spawn(rng, count):
            children = orig_spawn(rng, count)
            self.generators.extend(children)
            return children

        monkeypatch.setattr(rng_mod, "make_rng", make_rng)
        monkeypatch.setattr(rng_mod, "spawn", spawn)

    def final_states(self) -> list[dict]:
        return [g.bit_generator.state for g in self.generators]


@pytest.mark.parametrize("experiment,params", _CASES)
@pytest.mark.parametrize("stacking", _BATCH_SIZES)
def test_series_byte_identical_with_telemetry_on_or_off(
    experiment, params, stacking, monkeypatch
):
    ledger_off = _RngLedger(monkeypatch)
    baseline = _run(experiment, params, stacking)
    states_off = ledger_off.final_states()

    monkeypatch.undo()
    ledger_on = _RngLedger(monkeypatch)
    telemetry = obs.Telemetry()
    traced = _run(experiment, params, stacking, telemetry=telemetry)
    states_on = ledger_on.final_states()

    assert set(baseline.series) == set(traced.series)
    for name in baseline.series:
        assert np.array_equal(
            np.asarray(baseline.series[name]), np.asarray(traced.series[name])
        ), f"series {name!r} diverged under telemetry ({stacking})"

    # Zero extra RNG draws: the same generators exist and every one ends
    # in exactly the same state.
    assert len(states_off) == len(states_on)
    for index, (off, on) in enumerate(zip(states_off, states_on)):
        assert off == on, f"generator {index} consumed differently under telemetry"

    # The traced run actually recorded the engines at work.
    assert telemetry.spans_entered == telemetry.spans_exited > 0
    counters = telemetry.counters
    assert counters["rng.generators_spawned"] > 0
    if experiment == "fig15":
        # dynamic=True drives the event-driven NetworkSimulation engine.
        assert counters["engine.txops"] > 0
    else:
        assert counters["engine.rounds"] > 0


def _scalar_engine_series(config: str) -> dict[str, np.ndarray]:
    """Run the per-topology ``NetworkSimulation`` directly; its outputs."""
    from repro.config import SimConfig
    from repro.sim import MacMode, NetworkSimulation
    from repro.topology.deployment import AntennaMode
    from repro.topology.scenarios import campus_scenario, office_b, paired_scenarios

    env = office_b()
    sim = SimConfig(duration_s=0.03)
    if config == "roaming":
        scenario = campus_scenario(
            env, n_rows=2, n_cols=2, spacing_m=20.0, antennas_per_ap=4,
            clients_per_ap=3, seeds=[7], modes=(AntennaMode.DAS,),
        )[AntennaMode.DAS]
        engine = NetworkSimulation(
            scenario, MacMode.MIDAS, sim, seed=7, mobility="gauss_markov",
            mobility_kwargs={"speed_mps": 2.0}, resound_interval_s=0.01,
            association="hysteresis_handoff",
        )
    else:
        scenario = paired_scenarios(env, [(0.0, 0.0)], seeds=[7])[
            AntennaMode.DAS
        ]
        engine = NetworkSimulation(
            scenario, MacMode.MIDAS, sim, seed=7, traffic="poisson",
            traffic_kwargs={"rate_mbps": 15.0},
        )
    result = engine.run()
    series = {
        "per_client_bits_per_hz": result.per_client_bits_per_hz,
        "counts": np.array([result.txop_count, result.stream_count]),
        "mean_concurrent_streams": np.array([result.mean_concurrent_streams]),
        "collision_fraction": np.array([result.collision_fraction]),
    }
    if result.traffic is not None:
        series["served_per_client"] = result.traffic.served_per_client
        series["queue_bytes"] = np.array([result.traffic.queue_bytes])
        series["delays_s"] = result.traffic.delays_s
    return series


@pytest.mark.parametrize("config", ["roaming", "finite_load"])
def test_scalar_engine_byte_identical_with_telemetry_on_or_off(config, monkeypatch):
    ledger_off = _RngLedger(monkeypatch)
    baseline = _scalar_engine_series(config)
    states_off = ledger_off.final_states()

    monkeypatch.undo()
    ledger_on = _RngLedger(monkeypatch)
    telemetry = obs.Telemetry()
    with obs.use(telemetry):
        traced = _scalar_engine_series(config)
    states_on = ledger_on.final_states()

    assert set(baseline) == set(traced)
    for name in baseline:
        assert np.array_equal(baseline[name], traced[name]), name
    assert len(states_off) == len(states_on) > 0
    for index, (off, on) in enumerate(zip(states_off, states_on)):
        assert off == on, f"generator {index} consumed differently under telemetry"
    assert telemetry.counters["engine.txops"] > 0


@pytest.mark.parametrize(
    "experiment,params",
    [("roaming_handoff", {"rounds_per_topology": 8}),
     ("latency_vs_load", {"rounds_per_topology": 20}),
     ("fig15", {"rounds_per_topology": 3})],
)
def test_precoder_counters_agree_across_backends(experiment, params):
    # precode.rounds / precode.unconverged count the same MIDAS solves at
    # every stack size; the test above covers their output-byte neutrality.
    # Rejection-sampled sweeps (fig15) evaluate their accepted seeds only,
    # so no surplus draw reaches an engine at any stack size.
    counts = {}
    series = {}
    for stacking in _BATCH_SIZES:
        telemetry = obs.Telemetry()
        series[stacking] = _run(experiment, params, stacking, telemetry=telemetry).series
        counters = telemetry.counters
        counts[stacking] = (counters["precode.rounds"], counters["precode.unconverged"])
    assert counts["batch_size=1"] == counts["stacked"]
    assert counts["stacked"][0] > 0
    for name in series["stacked"]:
        assert np.array_equal(
            np.asarray(series["batch_size=1"][name]), np.asarray(series["stacked"][name])
        )


def test_fig15_sweep_runs_one_engine_per_mode():
    """fig15 at 128 topologies gates 3,084 draws in five rounds, then
    builds the 128 accepted seeds in one call: one round engine per MAC
    mode, never one per gate round."""
    telemetry = obs.Telemetry()
    Runner(telemetry=telemetry).run(RunSpec("fig15", n_topologies=128, seed=1))
    totals = telemetry.span_totals()
    assert totals["engine.run"]["count"] == 2
    assert totals["runner.gate"]["count"] == totals["runner.build"]["count"] == 1
    assert telemetry.counters["api.sweep.seeds_drawn"] == 3084
    assert telemetry.counters["api.sweep.accepted"] == 128
    assert telemetry.counters["engine.rounds"] == 2 * 128 * 24


def test_result_telemetry_summary_only_when_enabled():
    baseline = _run("roaming_handoff", {"rounds_per_topology": 4}, "stacked")
    assert baseline.telemetry is None
    telemetry = obs.Telemetry()
    traced = _run(
        "roaming_handoff", {"rounds_per_topology": 4}, "stacked", telemetry=telemetry
    )
    assert traced.telemetry is not None
    assert traced.telemetry.counter("engine.rounds") > 0
    assert traced.telemetry.span_total_us("engine.run") > 0.0
    # Serialization is telemetry-blind: the JSON payload has no telemetry.
    payload = json.loads(traced.to_json())
    assert "telemetry" not in payload


def test_telemetry_never_enters_cache_keys(tmp_path):
    spec = RunSpec("roaming_handoff", n_topologies=1, seed=3,
                   params={"rounds_per_topology": 4})
    plain = Runner(cache_dir=tmp_path)
    traced = Runner(cache_dir=tmp_path, telemetry=obs.Telemetry())
    defn_params_plain = plain._cache_path(spec, _resolved(spec))
    defn_params_traced = traced._cache_path(spec, _resolved(spec))
    assert defn_params_plain == defn_params_traced


def _resolved(spec):
    from repro.api.experiments import get_experiment_def
    from repro.api.runner import resolve_params

    return resolve_params(get_experiment_def(spec.experiment), spec)


#: Top-level engine phases (assoc_update is nested inside sounding, so it
#: is deliberately excluded from the sum -- it would double-count).
_PHASES = ("schedule", "sounding", "precode", "score", "traffic",
           "channel_advance")


def test_traced_roaming_handoff_jsonl_valid_and_phases_account(tmp_path):
    """The acceptance check: a traced run exports a schema-valid JSONL
    naming every documented counter, and per-phase span sums land within
    10% of the engine wall-clock."""
    telemetry = obs.Telemetry()
    runner = Runner(telemetry=telemetry)
    runner.run(RunSpec("roaming_handoff", n_topologies=2, seed=0))

    path = telemetry.write_jsonl(tmp_path / "trace.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    meta = lines[0]
    assert meta["type"] == "meta"
    assert meta["schema"] == obs.TRACE_SCHEMA_VERSION
    assert meta["dropped_events"] == 0
    for record in lines[1:]:
        assert record["type"] in ("span", "gauge", "counter")
        if record["type"] == "span":
            assert record["dur_us"] >= 0.0 and record["depth"] >= 0

    counter_names = {l["name"] for l in lines if l["type"] == "counter"}
    assert set(CORE_COUNTERS) <= counter_names

    totals = telemetry.span_totals()
    engine_us = totals["engine.run"]["total_us"]
    phase_us = sum(
        totals[name]["total_us"] for name in _PHASES if name in totals
    )
    assert engine_us > 0.0
    # Nested phases can never exceed their parent; and they must explain
    # at least 90% of where the engine's time went.
    assert phase_us <= engine_us * 1.001
    assert phase_us >= 0.90 * engine_us, (
        f"phases account for only {100.0 * phase_us / engine_us:.1f}% "
        f"of engine.run"
    )
