"""Small-scale fading: correlated Rayleigh/Rician with Gauss-Markov evolution.

Two effects the paper leans on are modelled here:

* **Spatial correlation.**  Antennas co-located within a wavelength or two
  produce correlated fades (:func:`repro.channel.batch.stacked_correlation`),
  which lowers the rank/conditioning of a CAS channel matrix.  Distributed antennas fade
  independently, giving DAS its "potentially higher rank channel matrix"
  (paper §2).
* **Temporal evolution.**  Block fading evolves between coherence blocks as
  a first-order Gauss-Markov process with coefficient ``J0(2*pi*fd*dt)``
  (:meth:`repro.channel.batch.ChannelBatch.advance`), which is what makes
  stale CSI (and the slow "optimal" precoder of Fig 11) lose to a fast
  closed form.
"""

from __future__ import annotations

import numpy as np


def _project_psd(matrix: np.ndarray) -> np.ndarray:
    """Clip a symmetric matrix (or a stack of them) to the PSD cone."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * eigvals[..., None, :]) @ np.conj(np.swapaxes(eigvecs, -1, -2))


def correlation_sqrt(correlation: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a correlation matrix (or a stack)."""
    eigvals, eigvecs = np.linalg.eigh(correlation)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)[..., None, :]) @ np.conj(
        np.swapaxes(eigvecs, -1, -2)
    )


def sample_fading(
    rng: np.random.Generator,
    n_rx: int,
    n_tx: int,
    rician_k: float = 0.0,
) -> np.ndarray:
    """I.i.d. unit-power complex fading matrix of shape ``(n_rx, n_tx)``.

    ``rician_k`` is the linear K-factor; 0 gives Rayleigh.  The line-of-sight
    component uses a random phase per entry, appropriate for distributed
    single-antenna links.
    """
    if rician_k < 0:
        raise ValueError("rician_k must be non-negative")
    scatter = (
        rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    ) / np.sqrt(2.0)
    if rician_k == 0.0:
        return scatter
    los_phase = rng.uniform(0.0, 2.0 * np.pi, (n_rx, n_tx))
    los = np.exp(1j * los_phase)
    return np.sqrt(rician_k / (1.0 + rician_k)) * los + np.sqrt(1.0 / (1.0 + rician_k)) * scatter
