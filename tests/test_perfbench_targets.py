"""Every entry point the benchmark's layer tracer wraps still exists and
still takes what the tracer reads off it.

``perfbench/layers.py`` patches ``repro`` entry points by name when a
``--trace 1`` run starts; a target renamed or removed in ``src`` would
crash that run, and so would a batched call whose first argument no longer
has the batch size as its ``len()`` (what ``items=_first_arg_len`` counts).
These tests load the layer table and the import-time bindings of
``perfbench/test_layers.py`` by file path and resolve each target the way
its installer does, so such a break fails here first.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_LAYERS_PATH = _PERFBENCH / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers_table", _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bindings() -> tuple[tuple[str, str], ...]:
    """``BINDINGS`` of ``perfbench/test_layers.py``, read without running it."""
    tree = ast.parse((_PERFBENCH / "test_layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/test_layers.py defines no BINDINGS")


LAYERS = _load_layers()
TARGETS = sorted({layer.target for layer in LAYERS.LAYERS})


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        original = vars(getattr(module, cls_name))[method]
        if isinstance(original, classmethod):
            original = original.__func__
    else:
        original = getattr(module, attr)
    assert callable(original), target


@pytest.mark.parametrize(
    "binding,kernel",
    [
        ("batch_power_balanced_precoder", "power_balanced_precoder"),
        ("batch_naive_precoder", "naive_scaled_precoder"),
    ],
)
def test_round_engine_binds_the_precoders_at_import(binding, kernel):
    """The tracer swaps these import-time names in ``repro.sim.batch``."""
    from repro.core import batch as core
    from repro.sim import batch as sim

    assert getattr(sim, binding) is getattr(core, kernel)


def _module_level_targets() -> dict[int, str]:
    """``id(function) -> target`` for every module-level function target."""
    found = {}
    for target in TARGETS:
        module_name, attr = target.split(":")
        if "." not in attr:
            found[id(getattr(importlib.import_module(module_name), attr))] = target
    return found


@pytest.mark.parametrize("module_name,attr", _bindings())
def test_import_time_binding_is_a_wrapped_target(module_name, attr):
    """The tracer replaces every binding whose value *is* a wrapped
    module-level target; a binding that is gone, renamed or rebound to
    something else would fail perfbench's own binding test."""
    value = getattr(importlib.import_module(module_name), attr)
    assert id(value) in _module_level_targets(), (module_name, attr)


def _first_arg_cases():
    """One small call per ``items=_first_arg_len`` target: ``(first
    argument, batch size the call built)``."""
    from repro.channel.batch import ChannelBatch
    from repro.sim.batch import CarrierSenseBatch, RoundBasedEvaluatorBatch
    from repro.topology.deployment import AntennaMode
    from repro.topology.scenarios import office_b, three_ap_scenario

    seeds = [0, 1, 2]
    scenario = three_ap_scenario(office_b(), seeds=seeds, modes=(AntennaMode.CAS,))[
        AntennaMode.CAS
    ]
    channel = ChannelBatch(scenario.deployment, scenario.radio, seeds)
    cross = channel.antenna_cross_power_dbm()
    mask = RoundBasedEvaluatorBatch.mutual_overhear_mask(scenario, seeds)
    return {
        "repro.channel.batch:ChannelBatch.__init__": (scenario.deployment, channel.n_items),
        "repro.sim.batch:CarrierSenseBatch.__init__": (
            cross, CarrierSenseBatch(cross, scenario.mac).n_items
        ),
        "repro.sim.batch:RoundBasedEvaluatorBatch.mutual_overhear_mask": (scenario, len(mask)),
    }


def test_first_argument_length_is_the_batch_size():
    targets = {
        layer.target for layer in LAYERS.LAYERS if layer.items is LAYERS._first_arg_len
    }
    cases = _first_arg_cases()
    assert targets == set(cases)
    for target, (first, n_items) in cases.items():
        assert len(first) == n_items == 3, target


def test_traced_smoke_run_of_each_workload_experiment():
    """A tiny traced run of each benchmark workload's experiment completes
    with every layer's item counts read and every binding restored."""
    import repro

    for experiment, params in (
        ("fig09", {}),
        ("fig15", {"rounds_per_topology": 2}),
        ("latency_vs_load", {"offered_loads_mbps": [20.0], "rounds_per_topology": 2}),
        ("roaming_handoff", {"speeds_mps": [2.0], "rounds_per_topology": 2}),
    ):
        spec = repro.RunSpec(experiment, n_topologies=2, seed=3, params=params)
        plain = repro.Runner().run(spec).series
        tracer = LAYERS.Tracer()
        with LAYERS.traced(tracer, experiment, spec.n_topologies):
            traced = repro.Runner().run(spec).series
        assert tracer.calls("api.runner") == 1, experiment
        for key in plain:
            assert np.array_equal(plain[key], traced[key]), (experiment, key)
