"""Every entry point the benchmark's layer tracer wraps still exists.

``perfbench/layers.py`` patches ``repro`` entry points by name when a
``--trace 1`` run starts; a target renamed or removed in ``src`` would
crash that run.  These tests load the layer table by file path and resolve
each target the way its installer does, so a rename fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers_table", _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = sorted({layer.target for layer in _load_layers().LAYERS})


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
