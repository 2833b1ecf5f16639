"""Client mobility models: per-round position updates along a trajectory.

A mobility model is a frozen parameter bundle (mirroring
:mod:`repro.traffic.models`); all mutable state (headings, waypoints)
lives in an explicit state dict of ``(g, n_clients, ...)`` arrays, so one
model instance drives a whole group of batch items at once.  ``init_state``
and ``step`` take the group's ``(g, n_clients, 2)`` positions and one
generator per item; every item draws from its own generator, in
client-index order -- the same order in every engine -- so an item's
finite-speed results never depend on its batch or group.

Registered factories (the ``mobility`` registry, mirroring the traffic
registry):

``static``
    Frozen clients -- the library's historical default, bit-identical to
    running without a mobility model at all.
``random_waypoint``
    Classic random-waypoint: each client walks toward a uniformly drawn
    waypoint inside the roaming box at a per-leg uniform speed, then draws
    the next waypoint.
``gauss_markov``
    Pedestrian Gauss-Markov: speed and heading are first-order
    autoregressive processes around a mean walking speed, reflected at the
    roaming-box walls (the standard smooth-turn pedestrian model).
``trace``
    Trace playback: piecewise-linear interpolation of per-client
    ``[t_s, x, y]`` waypoint logs (vehicular/pedestrian measurement traces
    such as the ``wifi-vehicles`` datasets), clamped at both ends.

Speeds are in meters/second.  The engines convert each client's current
speed into its Doppler spread ``f_d = v / wavelength`` and feed it to the
channel layer, replacing the global :attr:`RadioConfig.doppler_hz` for
moving clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..api.registry import MOBILITY, register_mobility


class MobilityModel:
    """Base class: stateless parameters + explicit per-run state."""

    #: Static sentinels short-circuit the engines back onto the frozen
    #: topology path (no position updates, no CSI staleness machinery).
    is_static = False

    #: Padding added around the deployment's bounding box to form the
    #: roaming region clients may wander into.
    margin_m = 3.0

    def roaming_bounds(self, deployment) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` corners of each item's roaming box, each
        ``(batch, 2)``: the bounding box of every AP, antenna, and client,
        padded by ``margin_m``.  Purely deterministic in the deployment so
        both engines agree."""
        pts = np.concatenate(
            [
                deployment.ap_positions,
                deployment.antenna_positions,
                deployment.client_positions,
            ],
            axis=1,
        )
        return pts.min(axis=1) - self.margin_m, pts.max(axis=1) + self.margin_m

    def init_state(self, rngs, positions: np.ndarray, bounds):
        """Fresh mutable state for a group of ``g`` items: ``None`` when
        the model has none, else a dict of arrays with a leading ``g``
        axis.  ``rngs`` holds one generator per item, ``positions`` is
        ``(g, n_clients, 2)`` and ``bounds`` is ``(lo, hi)``, each
        ``(g, 2)``."""
        return None

    def step(
        self,
        state,
        rngs,
        positions: np.ndarray,
        dt_s: float,
        bounds,
        t_s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance every client of a group by ``dt_s > 0`` seconds from the
        per-item times ``t_s`` ``(g,)``, updating ``state`` in place or by
        key; ``positions`` is read-only.

        Returns ``(new_positions, speeds_mps)`` -- positions
        ``(g, n_clients, 2)`` and the per-client speed actually moved at
        over the interval ``(g, n_clients)``.
        """
        raise NotImplementedError


def _reflect(positions: np.ndarray, lo: np.ndarray, hi: np.ndarray, out_of_box) -> np.ndarray:
    """Mirror the ``out_of_box`` coordinates of ``(g, n, 2)`` positions
    back into each item's ``[lo, hi]`` box, ``(g, 1, 2)`` corners (billiard
    reflection).

    Coordinates already inside the box pass through bit-exactly (no float
    round-trip), so a parked client's position never drifts.
    """
    span = hi - lo
    # Fold into a [0, 2*span) sawtooth, then mirror the upper half.
    folded = np.mod(positions - lo, 2.0 * span)
    reflected = lo + np.where(folded > span, 2.0 * span - folded, folded)
    return np.where(out_of_box, reflected, positions)


@register_mobility("static")
@dataclass(frozen=True)
class StaticMobility(MobilityModel):
    """Frozen clients (the historical default)."""

    is_static = True

    def step(self, state, rng, positions, dt_s, bounds, t_s):
        raise RuntimeError("static mobility never steps; run without a model")


@register_mobility("random_waypoint")
@dataclass(frozen=True)
class RandomWaypointMobility(MobilityModel):
    """Random waypoint inside the roaming box.

    ``speed_mps`` is a convenience mean: when set, per-leg speeds are drawn
    uniformly from ``[0.5, 1.5] * speed_mps`` (overriding the explicit
    bounds).  ``speed_mps = 0`` degenerates to clients parked at their
    starting positions (but still exercising the CSI-staleness machinery).
    """

    speed_min_mps: float = 0.6
    speed_max_mps: float = 1.8
    speed_mps: float | None = None
    margin_m: float = 3.0

    def __post_init__(self):
        if self.speed_mps is not None:
            if self.speed_mps < 0:
                raise ValueError("speed_mps must be non-negative")
            object.__setattr__(self, "speed_min_mps", 0.5 * self.speed_mps)
            object.__setattr__(self, "speed_max_mps", 1.5 * self.speed_mps)
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("need 0 <= speed_min_mps <= speed_max_mps")

    def _draw_leg(self, rng, n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        waypoints = rng.uniform(lo, hi, (n, 2))
        speeds = rng.uniform(self.speed_min_mps, self.speed_max_mps, n)
        return waypoints, speeds

    def init_state(self, rngs, positions, bounds):
        lo, hi = bounds
        legs = [
            self._draw_leg(rng, positions.shape[1], lo[i], hi[i])
            for i, rng in enumerate(rngs)
        ]
        return {
            "waypoint": np.stack([waypoints for waypoints, __ in legs]),
            "speed": np.stack([speeds for __, speeds in legs]),
        }

    def _walk(self, state, rng, item: int, client: int, pos, dt_s, lo, hi):
        """One client's leg-by-leg walk over ``dt_s``; a fast client can
        finish several legs within one step.  Draws one leg per arrival.
        Returns ``(position, distance travelled)``."""
        remaining = dt_s
        travelled = 0.0
        while remaining > 0:
            target = state["waypoint"][item, client]
            speed = float(state["speed"][item, client])
            if speed <= 0:
                break
            to_target = target - pos
            dist = float(np.hypot(*to_target))
            if dist <= speed * remaining:
                pos = target.copy()
                travelled += dist
                remaining -= dist / speed
                waypoint, leg_speed = self._draw_leg(rng, 1, lo, hi)
                state["waypoint"][item, client] = waypoint[0]
                state["speed"][item, client] = leg_speed[0]
            else:
                pos = pos + to_target / dist * speed * remaining
                travelled += speed * remaining
                remaining = 0.0
        return pos, travelled

    def step(self, state, rngs, positions, dt_s, bounds, t_s):
        lo, hi = bounds
        new_positions = positions.copy()
        moved = np.zeros(positions.shape[:2])
        # Moving clients walk leg by leg, in client order within each item
        # (each item draws from its own generator).
        for item, client in zip(*np.nonzero(state["speed"] > 0)):
            new_positions[item, client], moved[item, client] = self._walk(
                state, rngs[item], item, client, positions[item, client], dt_s,
                lo[item], hi[item],
            )
        return new_positions, moved / dt_s


@register_mobility("gauss_markov")
@dataclass(frozen=True)
class GaussMarkovMobility(MobilityModel):
    """Pedestrian Gauss-Markov mobility (speed and heading AR(1) processes).

    ``alpha`` is the memory coefficient over one reference step
    ``step_ref_s`` (1 = straight-line cruise, 0 = memoryless
    Brownian-like jitter); steps of other durations raise it to the
    ``dt / step_ref`` power, so the trajectory's temporal statistics do
    not depend on the caller's stepping cadence (the round engines step
    per coherence block, the event-driven MAC at irregular TXOP times).
    ``speed_std_mps`` defaults to ``0.3 * speed_mps`` so a zero-speed
    sweep point is genuinely parked.
    """

    speed_mps: float = 1.2
    alpha: float = 0.85
    speed_std_mps: float | None = None
    heading_std_rad: float = 0.6
    step_ref_s: float = 0.02
    margin_m: float = 3.0

    def __post_init__(self):
        if self.speed_mps < 0:
            raise ValueError("speed_mps must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.step_ref_s <= 0:
            raise ValueError("step_ref_s must be positive")
        if self.speed_std_mps is None:
            object.__setattr__(self, "speed_std_mps", 0.3 * self.speed_mps)
        if self.speed_std_mps < 0 or self.heading_std_rad < 0:
            raise ValueError("standard deviations must be non-negative")

    def init_state(self, rngs, positions, bounds):
        n = positions.shape[1]
        mean_heading = np.stack([rng.uniform(0.0, 2.0 * np.pi, n) for rng in rngs])
        return {
            "speed": np.full(mean_heading.shape, float(self.speed_mps)),
            "heading": mean_heading.copy(),
            "mean_heading": mean_heading,
        }

    def step(self, state, rngs, positions, dt_s, bounds, t_s):
        g, n = positions.shape[:2]
        # Each item draws its speed normals, then its heading normals.
        noise = np.empty((g, 2, n))
        for rng, rows in zip(rngs, noise):
            rng.standard_normal(out=rows)
        # Memory decays per unit time (alpha is defined over step_ref_s),
        # so irregular step sizes leave the process statistics unchanged.
        ratio = dt_s / self.step_ref_s
        alpha = self.alpha if ratio == 1.0 else self.alpha**ratio
        noise_scale = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        speed = alpha * state["speed"]
        speed += (1.0 - alpha) * self.speed_mps
        speed += noise_scale * self.speed_std_mps * noise[:, 0]
        np.maximum(speed, 0.0, out=speed)
        heading = alpha * state["heading"]
        heading += (1.0 - alpha) * state["mean_heading"]
        heading += noise_scale * self.heading_std_rad * noise[:, 1]
        state["speed"] = speed
        state["heading"] = heading
        # tentative = positions + speed * dt * (cos, sin) heading
        tentative = np.empty((g, n, 2))
        np.cos(heading, out=tentative[..., 0])
        np.sin(heading, out=tentative[..., 1])
        tentative *= (speed * dt_s)[..., None]
        tentative += positions
        lo = bounds[0][:, None]
        hi = bounds[1][:, None]
        outside = (tentative < lo) | (tentative > hi)
        if not outside.any():
            return tentative, speed
        # Mirror the heading *state* (current and mean) along with the
        # position, otherwise a client whose mean heading points at a wall
        # mean-reverts into it forever and stays pinned to the boundary.
        out_x = outside[..., 0]
        out_y = outside[..., 1]
        heading = np.where(out_x, np.pi - heading, heading)
        mean_heading = np.where(out_x, np.pi - state["mean_heading"], state["mean_heading"])
        heading = np.where(out_y, -heading, heading)
        mean_heading = np.where(out_y, -mean_heading, mean_heading)
        state["heading"] = heading
        state["mean_heading"] = mean_heading
        return _reflect(tentative, lo, hi, outside), speed


@register_mobility("trace")
@dataclass(frozen=True, eq=False)
class TraceMobility(MobilityModel):
    """Playback of recorded per-client trajectories.

    ``points`` is one waypoint log per client: a list of ``[t_s, x, y]``
    rows with strictly increasing timestamps (JSON-friendly, so traces can
    ride inside a :class:`~repro.api.spec.RunSpec`).  Positions are
    interpolated piecewise-linearly and clamped to the first/last waypoint
    outside the recorded span.  The trace *overrides* the topology's drawn
    client positions from the first step onward.  Two traces are equal when
    their logs are.
    """

    points: tuple = field(default=())

    def __post_init__(self):
        if not self.points:
            raise ValueError("trace mobility needs one waypoint log per client")
        normalized = []
        for client, rows in enumerate(self.points):
            log = np.asarray(rows, dtype=float)
            if log.ndim != 2 or log.shape[1] != 3 or len(log) < 1:
                raise ValueError(
                    f"client {client}: trace rows must be [t_s, x, y] "
                    f"(got shape {log.shape})"
                )
            if not np.isfinite(log).all():
                raise ValueError(f"client {client}: trace rows must be finite")
            if np.any(np.diff(log[:, 0]) <= 0):
                raise ValueError(f"client {client}: timestamps must increase")
            normalized.append(log)
        object.__setattr__(self, "points", tuple(normalized))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and len(other.points) == len(self.points)
            and all(np.array_equal(a, b) for a, b in zip(self.points, other.points))
        )

    def _positions_at(self, t_s) -> np.ndarray:
        """Client positions at times ``t_s`` (any shape), ``t_s.shape +
        (n_clients, 2)``."""
        t = np.asarray(t_s, dtype=float)
        out = np.empty(t.shape + (len(self.points), 2))
        for client, log in enumerate(self.points):
            out[..., client, 0] = np.interp(t, log[:, 0], log[:, 1])
            out[..., client, 1] = np.interp(t, log[:, 0], log[:, 2])
        return out

    def init_state(self, rngs, positions, bounds):
        if len(self.points) != positions.shape[1]:
            raise ValueError(
                f"trace holds {len(self.points)} clients but the deployment "
                f"has {positions.shape[1]}"
            )
        return None

    def step(self, state, rngs, positions, dt_s, bounds, t_s):
        new_positions = self._positions_at(t_s + dt_s)
        moved = np.linalg.norm(new_positions - self._positions_at(t_s), axis=-1)
        return new_positions, moved / dt_s


def resolve_mobility(model, **kwargs) -> MobilityModel:
    """Coerce a mobility argument -- a registered name or an already-built
    :class:`MobilityModel` -- into a model instance."""
    if isinstance(model, MobilityModel):
        if kwargs:
            raise ValueError("kwargs only apply when resolving by name")
        return model
    factory = MOBILITY.get(model)
    return factory(**kwargs)


def mobility_names() -> list[str]:
    """All registered mobility-model names."""
    return MOBILITY.names()
