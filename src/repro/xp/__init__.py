"""Array-namespace dispatch: one numerical code path for NumPy and torch.

The hot numerical core -- the batched precoder zoo (:mod:`repro.core.batch`),
SINR/capacity scoring (:mod:`repro.phy.capacity`), the vectorized MCS mapping
(:mod:`repro.phy.mcs`), and the masked reductions of the batched simulation
engine (:mod:`repro.sim.batch`) -- is written against an *array namespace*
``xp`` instead of ``numpy`` directly.  A namespace is a thin object exposing
the NumPy-flavored call surface those modules use (``xp.where``,
``xp.linalg.svd``, ``xp.take_along_axis``, ...) plus a device/dtype
configuration:

* :class:`NumpyNamespace` delegates every operation **to numpy itself** --
  the function objects are literally NumPy's, so code running on the default
  namespace is bit-identical to code calling ``np.*`` directly.  This is the
  contract that keeps ``Runner(backend="vectorized")`` byte-stable and makes
  ``backend="array_api"`` on the NumPy namespace ``array_equal`` to it.
* :class:`~repro.xp._torch.TorchNamespace` adapts the same surface onto
  ``torch`` tensors (CPU or CUDA, float32 or float64).  Floating-point
  results then match the NumPy path only to documented tolerances (see
  ``tests/helpers/contracts.py`` and ``docs/api.md``).

Three pieces glue the namespaces into the runner:

* :func:`get_namespace` -- resolve a namespace by name with a device/dtype
  config; a missing optional dependency raises
  :class:`BackendUnavailableError` naming the extra to install.
* :func:`array_namespace` -- infer the namespace (and precision) governing a
  set of arrays, array-API style; library functions call this at entry so
  torch tensors stay on-device through the whole precode/score pipeline.
* :func:`use` / :func:`active` -- a context-local *active* namespace the
  ``Runner`` installs around ``build_batch`` calls so experiments pick the
  backend up without signature changes.

**The RNG contract.**  Randomness never moves off NumPy: every stochastic
term (topology placement, shadowing lattice nodes, fading innovations, CSI
noise) is drawn from the existing per-topology ``numpy.random.Generator``
trees and *transferred* to the target namespace afterwards (a plain
``xp.asarray`` at the assembly boundary).
The seed-derivation contract is therefore untouched: every backend consumes
the same generator streams in the same order, and differences between
namespaces come from float arithmetic only.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

import numpy as np

from ..obs import active as _obs_active

__all__ = [
    "ArrayNamespace",
    "BackendUnavailableError",
    "NumpyNamespace",
    "active",
    "array_namespace",
    "get_namespace",
    "namespace_names",
    "to_numpy",
    "use",
]

#: Supported real dtypes (the complex dtype is always the matching one).
_DTYPES = ("float32", "float64")

#: Namespace names :func:`get_namespace` accepts.
_NAMESPACES = ("numpy", "torch")


class BackendUnavailableError(ImportError):
    """An array namespace's optional dependency is not installed."""


class ArrayNamespace:
    """Base class: a NumPy-flavored op surface plus device/dtype config.

    Subclasses provide the operations; this base owns the configuration and
    the dtype vocabulary shared by all namespaces.  Instances are immutable
    and cached by :func:`get_namespace`, so identity comparison is safe.
    """

    #: Registry name ("numpy", "torch").
    name: str = ""

    def __init__(self, device: str = "cpu", dtype: str = "float64"):
        if dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {_DTYPES}, got {dtype!r}")
        self.device = device
        self.dtype = dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} device={self.device!r} dtype={self.dtype!r}>"
        )

    @property
    def is_exact(self) -> bool:
        """Whether results on this namespace are bit-identical to the
        default NumPy/float64 path (the ``array_equal`` guarantee)."""
        return self.name == "numpy" and self.dtype == "float64"

    def config_dict(self) -> dict:
        """JSON-safe identity of this namespace (cache-key material)."""
        return {"namespace": self.name, "device": self.device, "dtype": self.dtype}


class NumpyNamespace(ArrayNamespace):
    """The reference namespace: every operation *is* NumPy's.

    Attribute access falls through to the :mod:`numpy` module, so code
    written against ``xp`` executes the identical function objects the
    pre-dispatch code called -- bit-identity by construction.  Only the
    dtype vocabulary is namespace-local (``float32`` runs exist to exercise
    the tolerance tier without torch installed).
    """

    name = "numpy"

    def __init__(self, device: str = "cpu", dtype: str = "float64"):
        if device != "cpu":
            raise ValueError(
                f"the numpy namespace only supports device='cpu', got {device!r}"
            )
        super().__init__(device, dtype)
        self.float_dtype = np.float32 if dtype == "float32" else np.float64
        self.complex_dtype = np.complex64 if dtype == "float32" else np.complex128
        self.int_dtype = np.intp
        self.bool_dtype = np.bool_
        self.linalg = np.linalg

    def __getattr__(self, attr: str):
        # Everything not defined here is numpy itself (functions and
        # constants alike); AttributeError propagates for unknown names.
        return getattr(np, attr)

    def to_numpy(self, x) -> np.ndarray:
        """Identity view: the array already lives in NumPy."""
        return np.asarray(x)


#: Cached namespace instances keyed by (name, device, dtype).
_CACHE: dict[tuple[str, str, str], ArrayNamespace] = {}


def namespace_names() -> tuple[str, ...]:
    """Names :func:`get_namespace` accepts (installed or not)."""
    return _NAMESPACES


def get_namespace(
    name: str = "numpy", device: str = "cpu", dtype: str = "float64"
) -> ArrayNamespace:
    """Resolve an array namespace by name with a device/dtype config.

    ``"numpy"`` always works (CPU only).  ``"torch"`` requires the optional
    torch dependency and raises :class:`BackendUnavailableError` naming the
    missing extra when it is not installed -- the NumPy namespace keeps
    working regardless.
    """
    key = (name, device, dtype)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if name == "numpy":
        namespace: ArrayNamespace = NumpyNamespace(device, dtype)
    elif name == "torch":
        try:
            import torch  # noqa: F401
        except ImportError as exc:
            raise BackendUnavailableError(
                "array namespace 'torch' needs the optional torch dependency, "
                "which is not installed; install the extra with "
                "'pip install repro-midas[torch]' (or 'pip install torch'). "
                "The 'numpy' namespace works without it."
            ) from exc
        from ._torch import TorchNamespace

        namespace = TorchNamespace(device, dtype)
    else:
        raise ValueError(
            f"unknown array namespace {name!r}; choose from {_NAMESPACES}"
        )
    _CACHE[key] = namespace
    return namespace


def _is_torch(x) -> bool:
    """Torch-tensor check that never imports torch."""
    return type(x).__module__.partition(".")[0] == "torch"


def array_namespace(*arrays) -> ArrayNamespace:
    """The namespace governing ``arrays`` (array-API ``get-namespace``).

    A torch tensor anywhere selects the torch namespace on that tensor's
    device; otherwise NumPy.  Precision follows the first floating/complex
    array: float32/complex64 inputs select the float32 configuration, so a
    single-precision pipeline stays single-precision end to end.  With no
    floating inputs at all, the default float64 namespace is returned.
    """
    for x in arrays:
        if _is_torch(x):
            single = str(x.dtype) in ("torch.float32", "torch.complex64")
            return get_namespace(
                "torch",
                device=str(x.device),
                dtype="float32" if single else "float64",
            )
    for x in arrays:
        dtype = getattr(x, "dtype", None)
        if dtype is None:
            continue
        if dtype == np.float32 or dtype == np.complex64:
            return get_namespace("numpy", dtype="float32")
        if dtype == np.float64 or dtype == np.complex128:
            return get_namespace("numpy", dtype="float64")
    return get_namespace("numpy")


def to_numpy(x) -> np.ndarray:
    """Materialize any namespace's array as a NumPy array (host side).

    The identity for NumPy inputs (no copy); torch tensors are detached and
    moved to the host.  Scalars and nested lists pass through ``asarray``.

    This is the device-to-host compute boundary, so the active telemetry's
    ``xp.to_host.*`` counters account every call here (pure accounting --
    the returned array is byte-identical either way).
    """
    result = x.detach().cpu().numpy() if _is_torch(x) else np.asarray(x)
    telemetry = _obs_active()
    telemetry.count("xp.to_host.calls")
    telemetry.count("xp.to_host.bytes", result.nbytes)
    return result


# ----------------------------------------------------------------------
# Active-namespace context
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar[ArrayNamespace | None] = contextvars.ContextVar(
    "repro_xp_active", default=None
)


def active() -> ArrayNamespace:
    """The namespace the current context computes on.

    Defaults to NumPy/CPU/float64 -- the bit-exact reference configuration
    -- unless a :func:`use` block (installed by
    ``Runner(backend="array_api")`` around ``build_batch`` calls) says
    otherwise.
    """
    namespace = _ACTIVE.get()
    return namespace if namespace is not None else get_namespace()


@contextlib.contextmanager
def use(namespace: ArrayNamespace) -> Iterator[ArrayNamespace]:
    """Install ``namespace`` as the active one for the enclosed block."""
    if not isinstance(namespace, ArrayNamespace):
        raise TypeError(
            "use() expects an ArrayNamespace (from get_namespace); "
            f"got {type(namespace).__name__}"
        )
    token = _ACTIVE.set(namespace)
    try:
        yield namespace
    finally:
        _ACTIVE.reset(token)
