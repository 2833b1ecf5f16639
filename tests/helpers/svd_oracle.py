"""Scalar SVD water-filling reference (paper §7 comparator).

One channel at a time, with the unusable (zero-gain) modes removed before
the classic water-filling walk.  :func:`repro.core.batch.svd_waterfilling`
instead keeps every mode and gives the unusable ones an infinite floor;
the equivalence suite asserts both give the same precoder bit for bit.
"""

from __future__ import annotations

import numpy as np


def svd_waterfilling(h: np.ndarray, total_power_mw: float, noise_mw: float):
    """``(v, stream_powers_mw, singular_values)`` for one ``(n_rx, n_tx)``
    channel under a total power budget."""
    if total_power_mw <= 0 or noise_mw <= 0:
        raise ValueError("powers must be positive")
    h = np.asarray(h, dtype=complex)
    __, singular_values, vh = np.linalg.svd(h, full_matrices=False)
    gains = singular_values**2 / noise_mw  # per-stream SNR per unit power
    usable = gains > 0
    if not np.any(usable):
        raise ValueError("channel has no usable singular modes")

    # Water-filling: p_i = max(0, mu - 1/g_i) with sum p_i = total power.
    inv_gains = 1.0 / gains[usable]
    order = np.argsort(inv_gains)
    sorted_inv = inv_gains[order]
    n = len(sorted_inv)
    mu = 0.0
    active = n
    for k in range(n, 0, -1):
        candidate_mu = (total_power_mw + np.sum(sorted_inv[:k])) / k
        if candidate_mu > sorted_inv[k - 1]:
            mu = candidate_mu
            active = k
            break
    powers_sorted = np.clip(mu - sorted_inv, 0.0, None)
    powers_sorted[active:] = 0.0
    powers = np.zeros(gains.shape)
    usable_idx = np.flatnonzero(usable)
    powers[usable_idx[order]] = powers_sorted

    v = vh.conj().T * np.sqrt(powers)[None, :]
    return v, powers, singular_values
