"""Torch adapter for the :mod:`repro.xp` namespace surface.

Maps the NumPy-flavored call surface the numerical core uses onto torch
tensors (CPU or CUDA).  Imported lazily by :func:`repro.xp.get_namespace`
only when the caller asks for the torch namespace, so the package never
requires torch to be installed.

The adapter is deliberately small: it implements exactly the operations the
refactored hot paths call, translating ``axis`` to ``dim`` and NumPy dtypes
to torch dtypes.  Anything outside that surface raises ``AttributeError``
immediately, which is the desired failure mode -- new namespace-generic
code must extend the adapter (and its tests) explicitly.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import torch

from . import ArrayNamespace


def _torch_dtype(namespace: "TorchNamespace", dtype):
    """Translate a NumPy/python dtype spec to a torch dtype."""
    if dtype is None or isinstance(dtype, torch.dtype):
        return dtype
    key = np.dtype(dtype)
    mapping = {
        np.dtype(np.float32): torch.float32,
        np.dtype(np.float64): torch.float64,
        np.dtype(np.complex64): torch.complex64,
        np.dtype(np.complex128): torch.complex128,
        np.dtype(np.bool_): torch.bool,
        np.dtype(np.int8): torch.int8,
        np.dtype(np.int16): torch.int16,
        np.dtype(np.int32): torch.int32,
        np.dtype(np.int64): torch.int64,
        np.dtype(np.intp): torch.int64,
    }
    try:
        return mapping[key]
    except KeyError:
        raise TypeError(f"no torch equivalent for dtype {dtype!r}") from None


class _TorchLinalg:
    """``xp.linalg`` surface: svd/norm with NumPy keyword spellings."""

    #: Raised by the batched ZFBF rank check regardless of namespace.
    LinAlgError = np.linalg.LinAlgError

    def svd(self, a, full_matrices: bool = True):
        return torch.linalg.svd(a, full_matrices=full_matrices)

    def svdvals(self, a):
        return torch.linalg.svdvals(a)

    def norm(self, a, ord=None, axis=None, keepdims: bool = False):
        return torch.linalg.norm(a, ord=ord, dim=axis, keepdim=keepdims)


class TorchNamespace(ArrayNamespace):
    """Torch implementation of the :mod:`repro.xp` op surface."""

    name = "torch"

    inf = math.inf
    nan = math.nan
    pi = math.pi
    newaxis = None

    def __init__(self, device: str = "cpu", dtype: str = "float64"):
        super().__init__(device, dtype)
        self._device = torch.device(device)
        self.float_dtype = torch.float32 if dtype == "float32" else torch.float64
        self.complex_dtype = (
            torch.complex64 if dtype == "float32" else torch.complex128
        )
        self.int_dtype = torch.int64
        self.bool_dtype = torch.bool
        self.linalg = _TorchLinalg()

    # -- conversion ----------------------------------------------------
    def asarray(self, x, dtype=None):
        return torch.as_tensor(
            x, dtype=_torch_dtype(self, dtype), device=self._device
        )

    def to_numpy(self, x) -> np.ndarray:
        if isinstance(x, torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def copy(self, x):
        return self.asarray(x).clone()

    # -- creation ------------------------------------------------------
    def _dtype_or_float(self, dtype):
        mapped = _torch_dtype(self, dtype)
        return self.float_dtype if mapped is None else mapped

    def zeros(self, shape, dtype=None):
        return torch.zeros(shape, dtype=self._dtype_or_float(dtype), device=self._device)

    def ones(self, shape, dtype=None):
        return torch.ones(shape, dtype=self._dtype_or_float(dtype), device=self._device)

    def full(self, shape, fill_value, dtype=None):
        return torch.full(
            tuple(shape) if not isinstance(shape, int) else (shape,),
            fill_value,
            dtype=_torch_dtype(self, dtype),
            device=self._device,
        )

    def zeros_like(self, x, dtype=None):
        return torch.zeros_like(self.asarray(x), dtype=_torch_dtype(self, dtype))

    def ones_like(self, x, dtype=None):
        return torch.ones_like(self.asarray(x), dtype=_torch_dtype(self, dtype))

    def arange(self, *args, dtype=None):
        return torch.arange(*args, dtype=_torch_dtype(self, dtype), device=self._device)

    def eye(self, n, dtype=None):
        return torch.eye(n, dtype=self._dtype_or_float(dtype), device=self._device)

    # -- elementwise ---------------------------------------------------
    def _pair(self, a, b):
        """Promote python scalars so binary torch ops accept the pair."""
        a_t = isinstance(a, torch.Tensor)
        b_t = isinstance(b, torch.Tensor)
        if a_t and not b_t:
            b = torch.as_tensor(b, dtype=a.dtype, device=a.device)
        elif b_t and not a_t:
            a = torch.as_tensor(a, dtype=b.dtype, device=b.device)
        elif not a_t and not b_t:
            a = self.asarray(a)
            b = torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return a, b

    def where(self, cond, a, b):
        a, b = self._pair(a, b)
        return torch.where(cond, a, b)

    def maximum(self, a, b):
        return torch.maximum(*self._pair(a, b))

    def minimum(self, a, b):
        return torch.minimum(*self._pair(a, b))

    def clip(self, x, a_min, a_max):
        # torch.clamp wants min/max to agree on scalar-vs-tensor; promote
        # python scalars when the other bound is a tensor.
        if isinstance(a_min, torch.Tensor) != isinstance(a_max, torch.Tensor):
            if a_min is not None and not isinstance(a_min, torch.Tensor):
                a_min = torch.as_tensor(a_min, dtype=x.dtype, device=x.device)
            if a_max is not None and not isinstance(a_max, torch.Tensor):
                a_max = torch.as_tensor(a_max, dtype=x.dtype, device=x.device)
        return torch.clamp(x, min=a_min, max=a_max)

    def sqrt(self, x):
        return torch.sqrt(self.asarray(x))

    def log2(self, x):
        return torch.log2(self.asarray(x))

    def exp(self, x):
        return torch.exp(self.asarray(x))

    def abs(self, x):
        return torch.abs(x)

    def conj(self, x):
        return torch.conj(x)

    def sign(self, x):
        return torch.sign(x)

    def isinf(self, x):
        return torch.isinf(x)

    def isfinite(self, x):
        return torch.isfinite(x)

    def isnan(self, x):
        return torch.isnan(x)

    # -- reductions ----------------------------------------------------
    def sum(self, x, axis=None):
        return torch.sum(x) if axis is None else torch.sum(x, dim=axis)

    def mean(self, x, axis=None):
        return torch.mean(x) if axis is None else torch.mean(x, dim=axis)

    def max(self, x, axis=None):
        return torch.amax(x) if axis is None else torch.amax(x, dim=axis)

    def min(self, x, axis=None):
        return torch.amin(x) if axis is None else torch.amin(x, dim=axis)

    def any(self, x, axis=None):
        return torch.any(x) if axis is None else torch.any(x, dim=axis)

    def all(self, x, axis=None):
        return torch.all(x) if axis is None else torch.all(x, dim=axis)

    def argmax(self, x, axis=None):
        return torch.argmax(x) if axis is None else torch.argmax(x, dim=axis)

    def argsort(self, x, axis=-1):
        return torch.argsort(x, dim=axis)

    def sort(self, x, axis=-1):
        return torch.sort(x, dim=axis).values

    # -- shaping and indexing ------------------------------------------
    def stack(self, arrays, axis=0):
        return torch.stack([self.asarray(a) for a in arrays], dim=axis)

    def concatenate(self, arrays, axis=0):
        return torch.cat([self.asarray(a) for a in arrays], dim=axis)

    def swapaxes(self, x, axis1, axis2):
        return torch.swapaxes(x, axis1, axis2)

    def broadcast_to(self, x, shape):
        return torch.broadcast_to(self.asarray(x), shape)

    def diagonal(self, x, axis1=0, axis2=1):
        return torch.diagonal(x, 0, dim1=axis1, dim2=axis2)

    def take_along_axis(self, x, indices, axis):
        # numpy broadcasts the non-axis dims of ``indices``; expand them
        # explicitly so older take_along_dim versions accept the call.
        shape = list(x.shape)
        shape[axis] = indices.shape[axis]
        return torch.take_along_dim(x, indices.expand(shape), dim=axis)

    def put_along_axis(self, x, indices, values, axis):
        # In-place like numpy.put_along_axis; values must broadcast to the
        # index shape (they do at every call site).
        x.scatter_(axis, indices, torch.broadcast_to(values, indices.shape))

    def searchsorted(self, sorted_sequence, values, side: str = "left"):
        a = self.asarray(sorted_sequence)
        v = self.asarray(values)
        common = torch.promote_types(a.dtype, v.dtype)
        return torch.searchsorted(
            a.to(common), v.to(common), right=(side == "right")
        )

    # -- misc ----------------------------------------------------------
    @contextlib.contextmanager
    def errstate(self, **kwargs):
        # Torch has no fp-error state to toggle; the NumPy call sites only
        # silence warnings, so a no-op context keeps one code path.
        yield
