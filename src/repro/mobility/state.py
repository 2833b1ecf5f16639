"""The mobility driver shared by every execution engine.

:class:`MobilityState` owns the client trajectories of a whole batch as
arrays: positions ``(batch, n_clients, 2)``, the per-client speed over the
last step ``(batch, n_clients)``, a per-item clock and per-item roaming
boxes.  Items are grouped by model (class and parameters, by equality),
and each group's model state is one dict of stacked arrays, so one round
moves every client of the batch in one ``step`` per group.  The round
engine holds one for its batch; the event-driven engine holds a batch of
one.  Every item draws from its own generator in its historical order, so
finite-speed series never depend on the batch an item runs in.

The engines consume two things per round:

* :attr:`MobilityState.positions` -- drives re-evaluation of the
  large-scale channel (pathloss / walls / shadowing along the trajectory;
  the shadowing lattice node store makes spatially consistent resampling
  cheap), and
* :meth:`MobilityState.doppler_hz` -- the per-client Doppler
  ``v / wavelength`` that replaces the global
  :attr:`RadioConfig.doppler_hz` in the fading evolution, so fast clients
  decorrelate faster than parked ones.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from .models import MobilityModel, resolve_mobility


def _group_by_model(models) -> list[tuple[MobilityModel, np.ndarray]]:
    """``(model, item indices)`` per distinct model, in first-item order."""
    groups: list[tuple[MobilityModel, list[int]]] = []
    for item, model in enumerate(models):
        for shared, items in groups:
            if type(shared) is type(model) and shared == model:
                items.append(item)
                break
        else:
            groups.append((model, [item]))
    return [(model, np.asarray(items)) for model, items in groups]


class MobilityState:
    """Trajectory state of a batch: one model per item (equal models share
    a group), the batched deployment the clients start from, and one
    generator or seed-tree node per item.  The deployment is read, never
    written: the state moves its own copy of the client positions."""

    def __init__(self, models, deployment, rngs):
        models = list(models)
        if not models or not len(models) == len(deployment) == len(rngs):
            raise ValueError("need one model, deployment item and generator per item")
        if any(model.is_static for model in models):
            raise ValueError(
                "static mobility needs no MobilityState; run the engine "
                "without a mobility model instead"
            )
        self._rngs = rng_mod.make_rngs(rngs)
        self.positions = np.array(deployment.client_positions)
        self.speeds_mps = np.zeros(self.positions.shape[:2])
        #: Per-item trajectory clock (seconds since the topology draw).
        self.time_s = np.zeros(len(models))
        #: Per-item roaming boxes: ``(lo, hi)`` corners, each ``(batch, 2)``.
        self.bounds = (np.empty((len(models), 2)), np.empty((len(models), 2)))
        #: ``(model, items, generators, bounds, state)`` per model group.
        self._groups = []
        for model, items in _group_by_model(models):
            lo, hi = (corner[items] for corner in model.roaming_bounds(deployment))
            self.bounds[0][items] = lo
            self.bounds[1][items] = hi
            rngs = [self._rngs[i] for i in items]
            state = model.init_state(rngs, self.positions[items], (lo, hi))
            self._groups.append((model, items, rngs, (lo, hi), state))

    @property
    def n_items(self) -> int:
        return len(self.positions)

    @property
    def n_clients(self) -> int:
        return self.positions.shape[1]

    def advance(self, dt_s: float, items=None) -> np.ndarray:
        """Move the clients of the selected items (default: all) by
        ``dt_s`` seconds; returns their positions ``(len(items),
        n_clients, 2)``.  Unselected items neither move nor draw."""
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if dt_s > 0:
            selected = None
            if items is not None:
                selected = np.zeros(self.n_items, dtype=bool)
                selected[items] = True
            for model, rows, rngs, bounds, group_state in self._groups:
                state = group_state
                local = None
                if selected is not None:
                    local = np.flatnonzero(selected[rows])
                    if local.size == 0:
                        continue
                    if local.size == len(rows):
                        local = None
                    else:
                        rows = rows[local]
                        rngs = [rngs[i] for i in local]
                        bounds = (bounds[0][local], bounds[1][local])
                        if state is not None:
                            state = {key: value[local] for key, value in state.items()}
                self.positions[rows], self.speeds_mps[rows] = model.step(
                    state, rngs, self.positions[rows], dt_s, bounds, self.time_s[rows]
                )
                if local is not None and state is not None:
                    for key, value in state.items():
                        group_state[key][local] = value
            self.time_s[slice(None) if items is None else items] += dt_s
        return self.positions if items is None else self.positions[items]

    def doppler_hz(self, wavelength_m: float) -> np.ndarray:
        """Per-client Doppler spread ``v / wavelength`` over the last step,
        ``(batch, n_clients)``."""
        if wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        return self.speeds_mps / wavelength_m


def build_mobility_state(
    mobility, mobility_kwargs, deployment, seeds
) -> MobilityState | None:
    """Resolve an engine's ``mobility=`` argument into a batch state.

    ``mobility_kwargs`` and ``seeds`` hold one entry per item of the
    batched ``deployment``.  ``None`` and ``"static"`` both yield ``None``
    -- the engines then take their historical frozen-topology path
    untouched (bit-identical to every pre-mobility release).  Each seed is a
    generator or a seed-tree node; a node's generator is built only for a
    moving model.
    """
    if mobility is None:
        return None
    models = [resolve_mobility(mobility, **dict(kwargs or {})) for kwargs in mobility_kwargs]
    static = [model.is_static for model in models]
    if all(static):
        return None
    if any(static):
        raise ValueError(
            "a batch cannot mix static and moving clients; run them as "
            "separate evaluators"
        )
    return MobilityState(models, deployment, seeds)
