"""Unit tests for the array-namespace dispatch layer (``repro.xp``)."""

from __future__ import annotations

import builtins
import importlib.util

import numpy as np
import pytest

import repro.xp as xpmod
from repro.xp import (
    BackendUnavailableError,
    NumpyNamespace,
    array_namespace,
    get_namespace,
    namespace_names,
    to_numpy,
)

TORCH_MISSING = importlib.util.find_spec("torch") is None


# ----------------------------------------------------------------------
# Resolution, caching, validation
# ----------------------------------------------------------------------
def test_default_namespace_is_exact_numpy_float64():
    ns = get_namespace()
    assert isinstance(ns, NumpyNamespace)
    assert (ns.name, ns.device, ns.dtype) == ("numpy", "cpu", "float64")
    assert ns.is_exact


def test_namespaces_are_cached_by_config():
    assert get_namespace("numpy") is get_namespace("numpy")
    assert get_namespace("numpy", dtype="float32") is not get_namespace("numpy")


def test_float32_config_is_not_exact_and_has_matching_dtypes():
    ns = get_namespace("numpy", dtype="float32")
    assert not ns.is_exact
    assert ns.float_dtype == np.float32
    assert ns.complex_dtype == np.complex64
    assert ns.config_dict() == {
        "namespace": "numpy",
        "device": "cpu",
        "dtype": "float32",
    }


def test_unknown_names_devices_and_dtypes_are_rejected():
    with pytest.raises(ValueError, match="unknown array namespace"):
        get_namespace("cupy")
    with pytest.raises(ValueError, match="device"):
        get_namespace("numpy", device="cuda")
    with pytest.raises(ValueError, match="dtype"):
        get_namespace("numpy", dtype="float16")
    assert namespace_names() == ("numpy", "torch")


def test_numpy_namespace_ops_are_numpys_own():
    # The bit-identity argument rests on this: dispatched ops are not
    # reimplementations, they are the very same function objects.
    ns = get_namespace()
    assert ns.sum is np.sum
    assert ns.where is np.where
    assert ns.linalg is np.linalg
    assert ns.pi == np.pi
    with pytest.raises(AttributeError):
        ns.definitely_not_a_numpy_function


# ----------------------------------------------------------------------
# Missing-torch behaviour (satellite: clean error, numpy keeps working)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not TORCH_MISSING, reason="torch is installed here")
def test_torch_namespace_raises_a_clean_error_naming_the_extra():
    with pytest.raises(BackendUnavailableError, match=r"repro-midas\[torch\]"):
        get_namespace("torch")
    # And the numpy namespace is unaffected by the failed resolution.
    assert get_namespace("numpy").is_exact


def test_simulated_missing_torch_error_names_the_extra(monkeypatch):
    # Runs even where torch *is* installed (the CI torch job): force the
    # import to fail and check the message still points at the extra.
    real_import = builtins.__import__

    def no_torch(name, *args, **kwargs):
        if name == "torch" or name.startswith("torch."):
            raise ImportError("No module named 'torch'")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_torch)
    monkeypatch.delitem(xpmod._CACHE, ("torch", "cpu", "float64"), raising=False)
    with pytest.raises(BackendUnavailableError) as err:
        get_namespace("torch")
    assert "repro-midas[torch]" in str(err.value)
    assert "'numpy' namespace works without it" in str(err.value)
    assert get_namespace("numpy") is get_namespace("numpy")


def test_is_torch_never_imports_torch():
    # _is_torch is called on every array_namespace/to_numpy hot path; it
    # must stay a string check on the type's module.
    assert not xpmod._is_torch(np.zeros(3))
    assert not xpmod._is_torch([1, 2, 3])
    assert not xpmod._is_torch(None)


# ----------------------------------------------------------------------
# Inference and transfer
# ----------------------------------------------------------------------
def test_array_namespace_infers_precision_from_inputs():
    assert array_namespace(np.zeros(3)) is get_namespace()
    assert array_namespace(np.zeros(3, dtype=np.float32)) is get_namespace(
        "numpy", dtype="float32"
    )
    assert array_namespace(np.zeros(3, dtype=np.complex64)) is get_namespace(
        "numpy", dtype="float32"
    )
    # Integer-only (or array-free) inputs fall back to the exact default.
    assert array_namespace(np.arange(3), 7) is get_namespace()


def test_to_numpy_is_the_identity_for_numpy_arrays():
    x = np.arange(5.0)
    assert to_numpy(x) is x or np.shares_memory(to_numpy(x), x)
    assert np.array_equal(to_numpy([1.0, 2.0]), [1.0, 2.0])


# ----------------------------------------------------------------------
# Active-namespace context
# ----------------------------------------------------------------------
def test_active_defaults_to_exact_and_use_scopes_an_override():
    assert xpmod.active() is get_namespace()
    f32 = get_namespace("numpy", dtype="float32")
    with xpmod.use(f32) as installed:
        assert installed is f32
        assert xpmod.active() is f32
        with xpmod.use(get_namespace()):
            assert xpmod.active() is get_namespace()  # nesting restores
        assert xpmod.active() is f32
    assert xpmod.active() is get_namespace()


def test_use_restores_the_previous_namespace_on_error():
    f32 = get_namespace("numpy", dtype="float32")
    with pytest.raises(RuntimeError):
        with xpmod.use(f32):
            raise RuntimeError("boom")
    assert xpmod.active() is get_namespace()


def test_use_rejects_non_namespace_arguments():
    with pytest.raises(TypeError, match="ArrayNamespace"):
        with xpmod.use("numpy"):
            pass


# ----------------------------------------------------------------------
# Torch namespace surface (runs only where torch is installed)
# ----------------------------------------------------------------------
@pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
def test_torch_namespace_surface_round_trips():
    import torch

    ns = get_namespace("torch")
    assert not ns.is_exact
    x = ns.asarray(np.arange(6.0).reshape(2, 3))
    assert isinstance(x, torch.Tensor)
    assert np.array_equal(to_numpy(ns.sum(x, axis=-1)), [3.0, 12.0])
    assert array_namespace(x) is ns
    idx = ns.asarray(np.array([[0], [2]]), dtype=ns.int_dtype)
    taken = ns.take_along_axis(x, idx, axis=1)
    assert np.array_equal(to_numpy(taken), [[0.0], [5.0]])
    assert to_numpy(ns.clip(x, 1.0, None)).min() == 1.0
