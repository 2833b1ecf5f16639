"""Per-item reference for the stacked mobility state.

:class:`MobilityState` is one topology's trajectory as repro 8.0.0 held it:
positions ``(n_clients, 2)``, speeds, a scalar clock and the model state of
one item, stepped through the one-item model steps below (``init_state``
and ``step`` per model class, on one generator and ``(n_clients, 2)``
positions).  Tests drive :class:`repro.mobility.MobilityState` and one
oracle per item with the same models, seeds and advances, and compare
positions, speeds, clocks and generator states exactly.
"""

from __future__ import annotations

import numpy as np

from repro.mobility import GaussMarkovMobility, RandomWaypointMobility, TraceMobility


def _reflect(positions, lo, hi):
    out_of_box = (positions < lo) | (positions > hi)
    if not np.any(out_of_box):
        return positions
    span = hi - lo
    folded = np.mod(positions - lo, 2.0 * span)
    reflected = lo + np.where(folded > span, 2.0 * span - folded, folded)
    return np.where(out_of_box, reflected, positions)


def _draw_leg(model, rng, n, lo, hi):
    waypoints = rng.uniform(lo, hi, (n, 2))
    speeds = rng.uniform(model.speed_min_mps, model.speed_max_mps, n)
    return waypoints, speeds


def init_state(model, rng, positions, bounds):
    n = len(positions)
    if isinstance(model, RandomWaypointMobility):
        waypoints, speeds = _draw_leg(model, rng, n, *bounds)
        return {"waypoint": waypoints, "speed": speeds}
    if isinstance(model, GaussMarkovMobility):
        mean_heading = rng.uniform(0.0, 2.0 * np.pi, n)
        return {
            "speed": np.full(n, float(model.speed_mps)),
            "heading": mean_heading.copy(),
            "mean_heading": mean_heading,
        }
    if isinstance(model, TraceMobility):
        return None
    raise TypeError(f"no oracle for {type(model).__name__}")


def _random_waypoint_step(model, state, rng, positions, dt_s, bounds):
    lo, hi = bounds
    new_positions = positions.copy()
    moved = np.zeros(len(positions))
    for client in range(len(positions)):
        remaining = dt_s
        pos = new_positions[client]
        travelled = 0.0
        while remaining > 0:
            target = state["waypoint"][client]
            speed = float(state["speed"][client])
            if speed <= 0:
                break
            to_target = target - pos
            dist = float(np.hypot(*to_target))
            if dist <= speed * remaining:
                pos = target.copy()
                travelled += dist
                remaining -= dist / speed
                waypoint, leg_speed = _draw_leg(model, rng, 1, lo, hi)
                state["waypoint"][client] = waypoint[0]
                state["speed"][client] = leg_speed[0]
            else:
                pos = pos + to_target / dist * speed * remaining
                travelled += speed * remaining
                remaining = 0.0
        new_positions[client] = pos
        moved[client] = travelled
    return new_positions, moved / dt_s


def _gauss_markov_step(model, state, rng, positions, dt_s, bounds):
    n = len(positions)
    ratio = dt_s / model.step_ref_s
    alpha = model.alpha if ratio == 1.0 else model.alpha**ratio
    noise_scale = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    speed = (
        alpha * state["speed"]
        + (1.0 - alpha) * model.speed_mps
        + noise_scale * model.speed_std_mps * rng.standard_normal(n)
    )
    speed = np.maximum(speed, 0.0)
    heading = (
        alpha * state["heading"]
        + (1.0 - alpha) * state["mean_heading"]
        + noise_scale * model.heading_std_rad * rng.standard_normal(n)
    )
    state["speed"] = speed
    stride = (speed * dt_s)[:, None] * np.column_stack((np.cos(heading), np.sin(heading)))
    lo, hi = bounds
    tentative = positions + stride
    out_x = (tentative[:, 0] < lo[0]) | (tentative[:, 0] > hi[0])
    out_y = (tentative[:, 1] < lo[1]) | (tentative[:, 1] > hi[1])
    heading = np.where(out_x, np.pi - heading, heading)
    mean_heading = np.where(out_x, np.pi - state["mean_heading"], state["mean_heading"])
    heading = np.where(out_y, -heading, heading)
    mean_heading = np.where(out_y, -mean_heading, mean_heading)
    state["heading"] = heading
    state["mean_heading"] = mean_heading
    return _reflect(tentative, lo, hi), speed


def _trace_positions_at(model, t_s):
    out = np.empty((len(model.points), 2))
    for client, log in enumerate(model.points):
        out[client, 0] = np.interp(t_s, log[:, 0], log[:, 1])
        out[client, 1] = np.interp(t_s, log[:, 0], log[:, 2])
    return out


def step(model, state, rng, positions, dt_s, bounds, t_s):
    """One item's step by ``dt_s > 0`` from time ``t_s``."""
    if isinstance(model, RandomWaypointMobility):
        return _random_waypoint_step(model, state, rng, positions, dt_s, bounds)
    if isinstance(model, GaussMarkovMobility):
        return _gauss_markov_step(model, state, rng, positions, dt_s, bounds)
    new_positions = _trace_positions_at(model, t_s + dt_s)
    old_positions = _trace_positions_at(model, t_s)
    return new_positions, np.linalg.norm(new_positions - old_positions, axis=1) / dt_s


class MobilityState:
    """One item's trajectory state (``deployment`` is a batch of one)."""

    def __init__(self, model, deployment, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.bounds = tuple(corner[0] for corner in model.roaming_bounds(deployment))
        self.positions = np.array(deployment.client_positions[0], dtype=float, copy=True)
        self.speeds_mps = np.zeros(len(self.positions))
        self.model_state = init_state(model, rng, self.positions, self.bounds)
        self.time_s = 0.0

    def advance(self, dt_s: float) -> np.ndarray:
        if dt_s == 0:
            return self.positions
        self.positions, self.speeds_mps = step(
            self.model, self.model_state, self.rng, self.positions, dt_s,
            self.bounds, self.time_s,
        )
        self.time_s += dt_s
        return self.positions
