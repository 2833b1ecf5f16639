"""The per-run mobility driver shared by every execution engine.

:class:`MobilityState` owns one topology's client trajectory: current
positions, the per-client speed over the last step, and the model's
mutable state.  The event-driven engine holds one; the round engine
holds one *per batch item*, which is the batch-invariance argument for
finite-speed series -- every position update is plain per-item arithmetic
on the item's own spawned generator.

The engines consume two things per round:

* :attr:`positions` -- drives re-evaluation of the large-scale channel
  (pathloss / walls / shadowing along the trajectory; the shadowing
  lattice cache makes spatially consistent resampling cheap), and
* :meth:`doppler_hz` -- the per-client Doppler ``v / wavelength`` that
  replaces the global :attr:`RadioConfig.doppler_hz` in the fading
  evolution, so fast clients decorrelate faster than parked ones.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from .models import MobilityModel, resolve_mobility


class MobilityState:
    """Trajectory state for one topology run."""

    def __init__(self, model: MobilityModel, deployment, rng: np.random.Generator):
        if model.is_static:
            raise ValueError(
                "static mobility needs no MobilityState; run the engine "
                "without a mobility model instead"
            )
        self.model = model
        self._rng = rng
        self._bounds = model.roaming_bounds(deployment)
        self.positions = np.array(deployment.client_positions, dtype=float, copy=True)
        self.speeds_mps = np.zeros(len(self.positions))
        self._model_state = model.init_state(rng, self.positions, self._bounds)
        self._time_s = 0.0

    @property
    def n_clients(self) -> int:
        return len(self.positions)

    @property
    def time_s(self) -> float:
        """Trajectory clock (seconds since the topology draw)."""
        return self._time_s

    def advance(self, dt_s: float) -> np.ndarray:
        """Move every client by ``dt_s`` seconds; returns the new positions."""
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if dt_s == 0:
            return self.positions
        self.positions, self.speeds_mps = self.model.step(
            self._model_state,
            self._rng,
            self.positions,
            dt_s,
            self._bounds,
            self._time_s,
        )
        self._time_s += dt_s
        return self.positions

    def doppler_hz(self, wavelength_m: float) -> np.ndarray:
        """Per-client Doppler spread ``v / wavelength`` over the last step."""
        if wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        return self.speeds_mps / wavelength_m


def build_mobility_state(
    mobility, mobility_kwargs, deployment, rng
) -> MobilityState | None:
    """Resolve an engine's ``mobility=`` argument into a per-run state.

    ``None`` and ``"static"`` both yield ``None`` -- the engines then take
    their historical frozen-topology path untouched (bit-identical to every
    pre-mobility release).  ``rng`` is a generator or a seed-tree node; a
    node's generator is built only for a moving model.
    """
    if mobility is None:
        return None
    model = resolve_mobility(mobility, **dict(mobility_kwargs or {}))
    if model.is_static:
        return None
    return MobilityState(model, deployment, rng_mod.make_rng(rng))
