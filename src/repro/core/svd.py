"""Single-user comparators from the paper's §7 discussion.

* :func:`su_beamforming_precoder` -- beamforming all antennas to one client.
  Under a per-antenna constraint the optimal single-stream beamformer is
  *equal-gain*: every antenna transmits at full power with the phase that
  aligns its contribution at the client.  §7 argues its logarithmic SNR gain
  (and network-wide silencing) make it the wrong default for MIDAS.
* :func:`repro.core.batch.svd_waterfilling` -- classic SVD precoding with
  water-filling for a multi-antenna client under a *total* power
  constraint.  §7 explains why SVD's power allocation does not fit DAS's
  per-antenna constraint; the returned allocation lets benches quantify
  that misfit.
"""

from __future__ import annotations

import numpy as np


def su_beamforming_precoder(h_row: np.ndarray, per_antenna_power_mw: float) -> np.ndarray:
    """Equal-gain transmit beamforming to a single single-antenna client.

    Returns a column vector ``(n_antennas, 1)`` with ``|v_k|^2 =
    per_antenna_power_mw`` and phases conjugate to the channel, so
    contributions add coherently: received amplitude ``sum_k sqrt(P) |h_k|``.
    """
    if per_antenna_power_mw <= 0:
        raise ValueError("per_antenna_power_mw must be positive")
    h_row = np.asarray(h_row, dtype=complex).ravel()
    if h_row.size == 0:
        raise ValueError("need at least one antenna")
    phases = np.exp(-1j * np.angle(h_row))
    return (np.sqrt(per_antenna_power_mw) * phases)[:, None]
