"""Purity and coverage of the outside-in layer wrappers.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench/test_layers.py -q

Each workload runs at its warm-up size, once untraced and once traced with
the same seed.  The wrappers must fire on their heavy workload, leave every
series ``array_equal``, keep each layer's self time within its total, and
restore every patched binding afterwards.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).with_name("run.py")
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 3

#: Import-time bindings the wrappers must replace (module, attribute).
BINDINGS = (
    ("repro.sim.batch", "batch_power_balanced_precoder"),
    ("repro.sim.batch", "batch_naive_precoder"),
    ("repro.experiments.common", "batch_power_balanced"),
    ("repro.experiments.fig08_09_capacity", "paired_scenarios"),
    ("repro.experiments.latency_vs_load", "paired_scenarios"),
    ("repro.experiments.roaming_handoff", "campus_scenario"),
    ("repro.topology.scenarios", "three_ap_scenario"),
)


def _binding(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


@pytest.fixture(scope="module")
def runs():
    """Untraced series, traced series and tracer per workload."""
    out = {}
    for workload in WORKLOADS.values():
        spec = bench.make_spec(workload, SEED, workload.warmup_topologies)
        plain = bench.make_runner().run(spec).series
        tracer = layers.Tracer()
        with layers.traced(tracer, workload.experiment, spec.n_topologies):
            patched = {b: _binding(*b) for b in BINDINGS}
            traced = bench.make_runner().run(spec).series
        out[workload.name] = (plain, traced, tracer, patched)
    return out


def test_wrapped_series_are_identical(runs):
    for name, (plain, traced, __, ___) in runs.items():
        assert sorted(plain) == sorted(traced), name
        for key in plain:
            assert np.array_equal(plain[key], traced[key]), (name, key)


def test_every_wrapper_fires_on_its_heavy_workload(runs):
    for layer in layers.LAYERS:
        tracer = runs[layer.heavy][2]
        assert tracer.fired.get(layer.target, 0) > 0, (layer.target, layer.heavy)


def test_self_time_never_exceeds_total(runs):
    for name, (__, ___, tracer, ____) in runs.items():
        for layer, (calls, items, total_ns, self_ns) in tracer.stats.items():
            assert calls > 0, (name, layer)
            assert 0 <= self_ns <= total_ns, (name, layer)
        runner_total = tracer.total_s("api.runner")
        attributed = sum(tracer.self_s(layer) for layer in layers.SPAN_LAYERS)
        assert attributed == pytest.approx(runner_total, rel=1e-6), name


def test_import_time_bindings_are_patched_and_restored(runs):
    for __, ___, ____, patched in runs.values():
        for binding, during in patched.items():
            restored = _binding(*binding)
            assert during is not restored, binding
            assert during.__wrapped__ is restored, binding
