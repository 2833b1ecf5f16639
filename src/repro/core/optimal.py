"""Numerical optimal precoding comparators (the paper's "MATLAB toolbox").

Fig 11 compares MIDAS's closed form against an optimal precoder obtained by
numerical optimization.  Two comparators are provided:

* :func:`optimal_power_allocation` -- the convex problem the paper's
  formulation induces: fix the ZFBF directions (so eq. 2b holds by
  construction) and optimize the per-stream powers subject to the
  per-antenna constraints.  This is the default Fig 11 comparator: the
  power-balanced precoder searches the same feasible set greedily, so
  "within 99% of optimal" is a meaningful statement.
* :func:`full_optimal_precoder` -- drops the ZF restriction and optimizes the
  complex precoding matrix directly (sum-rate objective with interference),
  which is the expensive general problem the paper cites as "too
  computationally complex to realize" [11, 32].

Both are deliberately allowed to be slow; they exist to bound the fast
closed form, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.capacity import (
    per_antenna_row_power,
    stream_sinrs,
    sum_capacity_bps_hz,
)
from .batch import naive_scaled_precoder, zfbf_directions


@dataclass(frozen=True)
class OptimalResult:
    """Precoder found by a numerical solver, with solver diagnostics."""

    v: np.ndarray
    capacity_bps_hz: float
    solver_success: bool
    iterations: int


def optimal_power_allocation(
    h: np.ndarray,
    per_antenna_power_mw: float,
    noise_mw: float,
    *,
    rtol: float = 1e-9,
) -> OptimalResult:
    """Optimal per-stream powers over fixed ZFBF directions (convex).

    maximize   sum_j log2(1 + g_j p_j)
    subject to sum_j B[k, j] p_j <= P  for every antenna k,   p >= 0

    where ``B[k, j] = |v~_kj|^2`` for unit-norm ZF columns ``v~_j`` and
    ``g_j`` is stream ``j``'s post-ZF channel gain over noise.
    """
    if per_antenna_power_mw <= 0 or noise_mw <= 0:
        raise ValueError("powers must be positive")
    h = np.asarray(h, dtype=complex)
    directions = zfbf_directions(h[None])[0]
    n_clients = directions.shape[1]

    e = h @ directions
    gains = np.abs(np.diag(e)) ** 2 / noise_mw  # g_j
    b = np.abs(directions) ** 2  # (n_antennas, n_clients)

    def objective(p):
        return -float(np.sum(np.log1p(gains * p)))

    def objective_grad(p):
        return -gains / (1.0 + gains * p)

    # Feasible start: the naive global-scaling solution's per-stream powers.
    v_naive = naive_scaled_precoder(h[None], per_antenna_power_mw)[0]
    p0 = np.sum(np.abs(v_naive) ** 2, axis=0)

    constraints = [
        {
            "type": "ineq",
            "fun": lambda p, row=b[k]: per_antenna_power_mw - float(row @ p),
            "jac": lambda p, row=b[k]: -row,
        }
        for k in range(b.shape[0])
    ]
    bounds = [(0.0, per_antenna_power_mw * b.shape[0])] * n_clients
    from scipy import optimize  # imported on first use: it is slow to load

    solution = optimize.minimize(
        objective,
        p0,
        jac=objective_grad,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    p = np.clip(solution.x, 0.0, None)
    v = directions * np.sqrt(p)[None, :]
    # Numerical safety: never report an infeasible precoder.
    worst = float(per_antenna_row_power(v).max())
    if worst > per_antenna_power_mw * (1.0 + rtol):
        v = v * np.sqrt(per_antenna_power_mw / worst)
    capacity = sum_capacity_bps_hz(stream_sinrs(h, v, noise_mw))
    return OptimalResult(
        v=v,
        capacity_bps_hz=capacity,
        solver_success=bool(solution.success),
        iterations=int(solution.nit),
    )


def full_optimal_precoder(
    h: np.ndarray,
    per_antenna_power_mw: float,
    noise_mw: float,
    *,
    maxiter: int = 300,
) -> OptimalResult:
    """General sum-rate-optimal precoder search (no ZF restriction).

    Optimizes the real/imaginary parts of ``V`` directly with SLSQP under the
    per-antenna power constraints, starting from the naive ZF point.  Slow by
    design; used as an upper-bound sanity check in tests and the ablation
    bench.
    """
    if per_antenna_power_mw <= 0 or noise_mw <= 0:
        raise ValueError("powers must be positive")
    h = np.asarray(h, dtype=complex)
    n_clients, n_antennas = h.shape
    shape = (n_antennas, n_clients)

    def unpack(x):
        half = x.size // 2
        return (x[:half] + 1j * x[half:]).reshape(shape)

    def pack(v):
        flat = v.ravel()
        return np.concatenate((flat.real, flat.imag))

    def objective(x):
        v = unpack(x)
        sinrs = stream_sinrs(h, v, noise_mw)
        return -sum_capacity_bps_hz(sinrs)

    def row_constraint(x, k):
        v = unpack(x)
        return per_antenna_power_mw - float(np.sum(np.abs(v[k, :]) ** 2))

    v0 = naive_scaled_precoder(h[None], per_antenna_power_mw)[0]
    constraints = [
        {"type": "ineq", "fun": (lambda x, k=k: row_constraint(x, k))}
        for k in range(n_antennas)
    ]
    from scipy import optimize  # imported on first use: it is slow to load

    solution = optimize.minimize(
        objective,
        pack(v0),
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": maxiter, "ftol": 1e-10},
    )
    v = unpack(solution.x)
    worst = float(per_antenna_row_power(v).max())
    if worst > per_antenna_power_mw * (1.0 + 1e-9):
        v = v * np.sqrt(per_antenna_power_mw / worst)
    capacity = sum_capacity_bps_hz(stream_sinrs(h, v, noise_mw))
    # Never return something worse than the feasible start.
    start_capacity = sum_capacity_bps_hz(stream_sinrs(h, v0, noise_mw))
    if start_capacity > capacity:
        v, capacity = v0, start_capacity
    return OptimalResult(
        v=v,
        capacity_bps_hz=capacity,
        solver_success=bool(solution.success),
        iterations=int(solution.nit),
    )
