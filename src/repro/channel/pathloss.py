"""Large-scale path loss: the log-distance model with a free-space anchor.

``PL(d) = PL(d0) + 10 * n * log10(d / d0)`` with ``PL(d0)`` the Friis
free-space loss at the reference distance.  Indoor offices use exponents
around 3.5 (enterprise, Office A) to 4.0 (crowded lab, Office B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import units
from ..config import MacConfig, RadioConfig


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path-loss model anchored at free space."""

    exponent: float
    reference_distance_m: float
    reference_loss_db: float

    @classmethod
    def from_radio(cls, radio: RadioConfig) -> "LogDistancePathLoss":
        """Build the model from a :class:`RadioConfig`."""
        ref_loss = units.free_space_path_loss_db(radio.reference_distance_m, radio.carrier_hz)
        return cls(
            exponent=radio.pathloss_exponent,
            reference_distance_m=radio.reference_distance_m,
            reference_loss_db=ref_loss,
        )

    def loss_db(self, distance_m) -> np.ndarray:
        """Path loss in dB; distances below the reference are clamped to it."""
        d = np.maximum(np.asarray(distance_m, dtype=float), self.reference_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )

    def distance_for_loss(self, loss_db: float) -> float:
        """Inverse model: distance at which the median loss equals ``loss_db``."""
        if loss_db < self.reference_loss_db:
            return self.reference_distance_m
        return self.reference_distance_m * 10.0 ** (
            (loss_db - self.reference_loss_db) / (10.0 * self.exponent)
        )


@lru_cache(maxsize=256)
def _range_for_budget(radio: RadioConfig, budget_db: float, sensing: bool = False) -> float:
    """Distance at which the *average* loss (log-distance + expected wall
    attenuation) reaches ``budget_db``; monotone, solved by bisection.

    ``sensing=True`` selects the cleaner elevated-path exponent used for
    antenna-to-antenna links.

    Memoized: every topology draw of a sweep asks for the same handful of
    (radio, budget) ranges, and ``RadioConfig`` is frozen/hashable, so the
    80-step bisection runs once per distinct query instead of per draw.
    """
    from .walls import mean_wall_loss_db  # local import avoids a cycle

    model = LogDistancePathLoss.from_radio(radio)
    if sensing:
        model = LogDistancePathLoss(
            exponent=radio.sensing_pathloss_exponent,
            reference_distance_m=model.reference_distance_m,
            reference_loss_db=model.reference_loss_db,
        )

    def total_loss(d: float) -> float:
        loss = float(model.loss_db(d))
        if radio.wall_loss_db > 0:
            loss += float(
                mean_wall_loss_db(
                    d, radio.wall_spacing_m, radio.wall_loss_db, radio.max_wall_count
                )
            )
        return loss

    if total_loss(radio.reference_distance_m) >= budget_db:
        return radio.reference_distance_m
    low, high = radio.reference_distance_m, radio.reference_distance_m
    while total_loss(high) < budget_db:
        high *= 2.0
        if high > 1e6:
            return high
    for _ in range(80):
        mid = 0.5 * (low + high)
        if total_loss(mid) < budget_db:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


@lru_cache(maxsize=256)
def coverage_range_m(radio: RadioConfig, min_snr_db: float = 5.0) -> float:
    """Distance at which the *median* SNR falls to ``min_snr_db``.

    This is the paper's "CAS AP transmission range": DAS antennas are placed
    at 50-75% of it (§7), and the deadzone survey covers this disk (§5.3.3).
    Memoized like :func:`_range_for_budget`: scenario factories ask for it
    once or twice per topology draw, always for the same environment.
    """
    noise_dbm = units.mw_to_dbm(radio.noise_mw)
    budget = radio.per_antenna_power_dbm - noise_dbm - min_snr_db
    return _range_for_budget(radio, budget)


def cs_range_m(radio: RadioConfig, mac: MacConfig) -> float:
    """Distance at which the median antenna-to-antenna received power falls
    to the carrier-sense threshold -- the "overhearing" radius used by
    Figs 12, 15, 16 (elevated sensing paths)."""
    budget = radio.per_antenna_power_dbm - mac.cs_threshold_dbm
    return _range_for_budget(radio, budget, sensing=True)
