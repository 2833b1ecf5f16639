"""Zero-forcing beamforming (ZFBF) primitives (paper §3.1.1).

ZFBF chooses the precoder as the pseudo-inverse of the channel, ``V = H†``,
so every stream is nulled at every other client (paper eq. 2b).  Power is
then split across streams independently of the directions -- which is what
makes ZFBF lightweight, and what breaks the *per-antenna* power constraint
that the rest of :mod:`repro.core` repairs.
"""

from __future__ import annotations

import numpy as np


def zfbf_directions(h: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Unit-norm ZFBF columns: the pseudo-inverse of ``H`` with each column
    (stream) normalized to unit transmit power.

    Parameters
    ----------
    h:
        Channel matrix ``(n_clients, n_antennas)`` with ``n_clients <=
        n_antennas`` (802.11ac MU-MIMO serves at most as many single-antenna
        clients as AP antennas).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("h must be 2-D (clients x antennas)")
    n_clients, n_antennas = h.shape
    if n_clients > n_antennas:
        raise ValueError(
            f"ZFBF needs n_clients <= n_antennas, got {n_clients} > {n_antennas}"
        )
    if n_clients == 0:
        raise ValueError("need at least one client")
    # One SVD serves the rank check and the pseudo-inverse, which is
    # numpy.linalg.pinv's own formula: conjugate, SVD, then V S^-1 U^T.
    u, singular_values, vh = np.linalg.svd(np.conj(h), full_matrices=False)
    if singular_values[-1] <= rcond * singular_values[0]:
        raise np.linalg.LinAlgError(
            "channel matrix is (numerically) rank deficient; zero-forcing "
            "cannot separate these clients"
        )
    v = vh.T @ ((1.0 / singular_values)[:, None] * u.T)
    norms = np.linalg.norm(v, axis=0)
    return v / norms[None, :]


def zfbf_equal_power(
    h: np.ndarray, total_power_mw: float, rcond: float = 1e-12
) -> np.ndarray:
    """Conventional ZFBF under a *total* power constraint (paper eq. 2a):
    pseudo-inverse directions with the budget split equally across streams.

    This is the paper's Step 1 + Step 2: the starting point that the
    power-balancing iteration then repairs for per-antenna feasibility.
    """
    if total_power_mw <= 0:
        raise ValueError("total_power_mw must be positive")
    directions = zfbf_directions(h, rcond=rcond)
    n_streams = directions.shape[1]
    per_stream = total_power_mw / n_streams
    return directions * np.sqrt(per_stream)


def zf_interference_leakage(h: np.ndarray, v: np.ndarray) -> float:
    """Worst-case relative interference leakage of precoder ``V`` on ``H``.

    For an exact zero-forcing precoder the effective channel ``H @ V`` is
    diagonal; this returns ``max_offdiag |E| / min_diag |E|``, a unit-free
    measure the tests assert stays tiny under column scaling.
    """
    e = np.abs(np.asarray(h) @ np.asarray(v))
    diag = np.diag(e).copy()
    if np.any(diag <= 0):
        return float("inf")
    off = e - np.diag(diag)
    return float(off.max() / diag.min())
