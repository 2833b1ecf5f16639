"""MIDAS core: the paper's contribution.

PHY side: zero-forcing beamforming plus the power-balanced precoder built on
reverse water-filling (§3.1), with naive and numerically-optimal comparators.
The closed-form precoders (and the §7 SVD water-filling comparator) are the
stacked kernels of :mod:`repro.core.batch`:
they take ``(batch, n_clients, n_antennas)`` channels, and a single channel
is a batch of one (``h[None]``).

MAC side: virtual packet tagging (§3.2.4) and antenna-specific deficit
round-robin client selection (§3.2.5), one masked kernel both engines
schedule through; the full MAC machinery lives in :mod:`repro.mac`.
"""

from .batch import (
    naive_scaled_precoder,
    power_balanced_precoder,
    reverse_waterfill,
    svd_waterfilling,
    zfbf_directions,
    zfbf_equal_power,
)
from .optimal import full_optimal_precoder, optimal_power_allocation
from .selection import BatchDeficitRoundRobin, pick_in_visit_order
from .svd import su_beamforming_precoder
from .tagging import antenna_preferences, tag_mask
from .wmmse import wmmse_precoder

__all__ = [
    "naive_scaled_precoder",
    "full_optimal_precoder",
    "optimal_power_allocation",
    "power_balanced_precoder",
    "BatchDeficitRoundRobin",
    "pick_in_visit_order",
    "su_beamforming_precoder",
    "svd_waterfilling",
    "tag_mask",
    "antenna_preferences",
    "reverse_waterfill",
    "wmmse_precoder",
    "zfbf_directions",
    "zfbf_equal_power",
]
