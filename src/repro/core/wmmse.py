"""WMMSE precoding under per-antenna power -- an *extension* comparator.

The paper notes that non-ZF precoders with per-antenna constraints are "too
computationally complex to realize" in an AP's real-time path [11, 32].  This
module implements the classic WMMSE iteration (Shi et al. 2011) specialized
to single-antenna clients, with the per-antenna constraint enforced by
Euclidean projection (row rescaling) after each precoder update.  The
projection makes the method a heuristic rather than a convergent algorithm,
so the iteration tracks and returns the best *feasible* iterate seen.

It serves the ablation bench as a "what if we paid for a heavyweight non-ZF
precoder" data point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.capacity import per_antenna_row_power, stream_sinrs, sum_capacity_bps_hz
from .batch import naive_scaled_precoder

#: Bisection steps when solving for the total-power multiplier inside each
#: precoder update.
_MU_BISECTIONS = 30


@dataclass(frozen=True)
class WmmseResult:
    """Best feasible WMMSE iterate and its capacity."""

    v: np.ndarray
    capacity_bps_hz: float
    iterations: int


def _project_per_antenna(v: np.ndarray, per_antenna_power_mw: float) -> np.ndarray:
    """Euclidean projection onto the per-antenna power ball: rescale only the
    rows that exceed the budget."""
    row_powers = per_antenna_row_power(v)
    scale = np.ones_like(row_powers)
    over = row_powers > per_antenna_power_mw
    scale[over] = np.sqrt(per_antenna_power_mw / row_powers[over])
    return v * scale[:, None]


def wmmse_precoder(
    h: np.ndarray,
    per_antenna_power_mw: float,
    noise_mw: float,
    *,
    iterations: int = 60,
) -> WmmseResult:
    """Run projected WMMSE and return the best feasible precoder found.

    Parameters
    ----------
    h:
        Channel ``(n_clients, n_antennas)``.
    per_antenna_power_mw, noise_mw:
        Constraint and noise floor.
    iterations:
        Outer WMMSE rounds.  Each precoder update solves for its
        total-power multiplier in ``_MU_BISECTIONS`` bisection steps.
    """
    if per_antenna_power_mw <= 0 or noise_mw <= 0:
        raise ValueError("powers must be positive")
    h = np.asarray(h, dtype=complex)
    n_clients, n_antennas = h.shape
    total_power = n_antennas * per_antenna_power_mw

    v = naive_scaled_precoder(h[None], per_antenna_power_mw)[0]
    best_v = v
    best_capacity = sum_capacity_bps_hz(stream_sinrs(h, v, noise_mw))

    eye = np.eye(n_antennas)
    for it in range(iterations):
        # Receiver update (scalar MMSE per single-antenna client).
        e = h @ v  # (clients, streams)
        rx_power = np.sum(np.abs(e) ** 2, axis=1) + noise_mw
        u = np.conj(np.diag(e)) / rx_power  # u_j
        # MSE weights.
        mse = 1.0 - np.real(u * np.diag(e))
        mse = np.clip(mse, 1e-9, None)
        w = 1.0 / mse
        # Precoder update: V(mu) = (A + mu I)^-1 B, mu via total-power bisection.
        a = np.zeros((n_antennas, n_antennas), dtype=complex)
        b = np.zeros((n_antennas, n_clients), dtype=complex)
        for j in range(n_clients):
            hj = h[j : j + 1, :]  # (1, T)
            a += w[j] * (np.abs(u[j]) ** 2) * (hj.conj().T @ hj)
            b[:, j] = w[j] * np.conj(u[j]) * hj.conj().ravel()

        def v_of_mu(mu: float) -> np.ndarray:
            return np.linalg.solve(a + mu * eye, b)

        lo, hi = 0.0, 1.0
        # Grow hi until the total power is under budget.
        for _ in range(60):
            if float(np.sum(np.abs(v_of_mu(hi)) ** 2)) <= total_power:
                break
            hi *= 4.0
        try:
            v_new = v_of_mu(lo + 1e-15)
        except np.linalg.LinAlgError:
            # A singular system at mu -> 0 (a collapsed MSE weight leaves A
            # rank deficient) means unbounded power: over budget.
            v_new = None
        if v_new is None or float(np.sum(np.abs(v_new) ** 2)) > total_power:
            for _ in range(_MU_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if float(np.sum(np.abs(v_of_mu(mid)) ** 2)) > total_power:
                    lo = mid
                else:
                    hi = mid
            v_new = v_of_mu(hi)

        v = _project_per_antenna(v_new, per_antenna_power_mw)
        capacity = sum_capacity_bps_hz(stream_sinrs(h, v, noise_mw))
        if capacity > best_capacity:
            best_capacity = capacity
            best_v = v

    return WmmseResult(v=best_v, capacity_bps_hz=best_capacity, iterations=iterations)
