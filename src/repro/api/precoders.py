"""The precoder zoo as a registry.

Every precoder solves a stack of channels with one signature::

    precoder(h, per_antenna_power_mw, noise_mw) -> v
    # h: (batch, n_clients, n_antennas) -> v: (batch, n_antennas, n_streams)

replacing the if/elif string dispatch that used to live in
``repro.experiments.common.capacity_for``.  Unknown names raise
:class:`~repro.api.registry.UnknownNameError` listing every registered
precoder.

The closed-form precoders register the :mod:`repro.core.batch` kernels
directly; the numerical comparators (convex-optimal ZF, WMMSE, the full
optimum) solve one matrix at a time and register as per-item maps over the
stack.  Either way an item's precoder never depends on the rest of its
stack, and :func:`precoder_matrix` solves one channel as a batch of one.
"""

from __future__ import annotations

import numpy as np

from ..core import batch as core_batch
from ..core.optimal import full_optimal_precoder, optimal_power_allocation
from ..core.wmmse import wmmse_precoder
from ..phy.capacity import stream_sinrs, sum_capacity_bps_hz
from .. import xp as xpmod
from .registry import PRECODERS, register_precoder


@register_precoder("naive")
def naive(h, p: float, noise: float):
    """The paper's baseline: ZFBF globally scaled to the per-antenna cap."""
    return core_batch.naive_scaled_precoder(h, p)


@register_precoder("balanced")
def balanced(h, p: float, noise: float):
    """MIDAS power-balanced precoding (§3.1)."""
    return core_batch.power_balanced_precoder(h, p, noise).v


@register_precoder("total_power")
def total_power(h, p: float, noise: float):
    """Equal-split ZFBF under a *total* power budget only (the Fig 3
    reference, ignoring the per-antenna repair)."""
    return core_batch.zfbf_equal_power(h, h.shape[-1] * p)


def _per_item(solver):
    """The stacked form of a one-matrix numerical ``solver``.

    Iterative solvers have no batched form: they run item by item on the
    host in float64, and the stacked result moves to the active
    :mod:`repro.xp` namespace afterwards.
    """

    def stacked(h, p: float, noise: float):
        xp = xpmod.active()
        v = np.stack([solver(item, p, noise).v for item in xpmod.to_numpy(h)])
        return xp.asarray(v, dtype=xp.complex_dtype)

    return stacked


register_precoder("optimal_zf")(_per_item(optimal_power_allocation))
register_precoder("wmmse")(_per_item(wmmse_precoder))
register_precoder("full_optimal")(_per_item(full_optimal_precoder))


def precoder_matrix_batch(
    name: str, h: np.ndarray, p: float, noise: float
) -> np.ndarray:
    """Stacked precoding matrices ``(batch, n_antennas, n_streams)`` of the
    registered precoder ``name``.

    This is a :mod:`repro.xp` compute boundary: the stack is transferred to
    the *active* namespace before the solve (the identity on the default
    NumPy/float64 configuration), so ``Runner(backend="array_api")`` runs
    the closed-form solvers on torch without any experiment changes.
    """
    solver = PRECODERS.get(name)  # raises UnknownNameError with the full list
    xp = xpmod.active()
    h = xp.asarray(h, dtype=xp.complex_dtype)
    if h.ndim < 3:
        raise ValueError(
            f"precoder_matrix_batch expects a stacked channel; got {tuple(h.shape)}"
        )
    return solver(h, p, noise)


def precoder_matrix(name: str, h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Precoding matrix ``(n_antennas, n_streams)`` of the registered
    precoder ``name`` for one channel ``(n_clients, n_antennas)``: the
    registry's solver on a batch of one."""
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError(f"precoder_matrix expects one channel; got {h.shape}")
    return precoder_matrix_batch(name, h[None], p, noise)[0]


def capacity_for(scenario, h: np.ndarray, precoder: str) -> float:
    """Sum capacity of one channel snapshot under a registered precoder."""
    radio = scenario.radio
    v = precoder_matrix(precoder, h, radio.per_antenna_power_mw, radio.noise_mw)
    return sum_capacity_bps_hz(stream_sinrs(h, v, radio.noise_mw))


def capacity_for_batch(scenario, h: np.ndarray, precoder: str) -> np.ndarray:
    """Per-item sum capacities ``(batch,)`` of a stacked channel snapshot.

    The precode + SINR + capacity chain runs on the active :mod:`repro.xp`
    namespace; the result always comes back as a host NumPy array, so
    experiment ``finalize`` hooks stay backend-agnostic.
    """
    radio = scenario.radio
    xp = xpmod.active()
    h = xp.asarray(h, dtype=xp.complex_dtype)
    v = precoder_matrix_batch(
        precoder, h, radio.per_antenna_power_mw, radio.noise_mw
    )
    return xpmod.to_numpy(sum_capacity_bps_hz(stream_sinrs(h, v, radio.noise_mw)))
