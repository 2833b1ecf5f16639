"""Paper-equation references for the precoders (§3.1).

Each function is written straight from its equation with plain NumPy and
shares no code with :mod:`repro.core.batch`, so a kernel bug cannot hide
behind a matching bug here.  All take one channel ``(n_clients,
n_antennas)`` and one precoder ``(n_antennas, n_streams)``.
"""

from __future__ import annotations

import numpy as np


def row_powers(v) -> np.ndarray:
    """Per-antenna transmit power ``sum_j |v_kj|^2`` of each row ``k``: the
    left side of the per-antenna constraint (paper eq. 3)."""
    v = np.asarray(v)
    return np.array([sum(abs(x) ** 2 for x in row) for row in v])


def zf_interference_leakage(h, v) -> float:
    """Worst-case relative interference leakage of precoder ``V`` on ``H``.

    For an exact zero-forcing precoder (paper eq. 2b) the effective channel
    ``H @ V`` is diagonal; this returns ``max_offdiag |E| / min_diag |E|``,
    a unit-free measure that stays tiny under column scaling.
    """
    e = np.abs(np.asarray(h) @ np.asarray(v))
    diag = np.diag(e).copy()
    if np.any(diag <= 0):
        return float("inf")
    off = e - np.diag(diag)
    return float(off.max() / diag.min())


def equal_power_zfbf(h, total_power_mw: float) -> np.ndarray:
    """Conventional ZFBF under a total budget (paper eq. 2a): the
    pseudo-inverse's columns normalized to unit power, then the budget
    split equally across streams."""
    directions = np.linalg.pinv(np.asarray(h, dtype=complex))
    directions = directions / np.linalg.norm(directions, axis=0)
    return directions * np.sqrt(total_power_mw / directions.shape[1])
