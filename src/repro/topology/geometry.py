"""2-D geometry helpers for deployment generation and coverage mapping.

Positions are ``(x, y)`` coordinates in meters, stored as numpy arrays of
shape ``(n, 2)``.  Sampling helpers take their uniform draws as an array
(from the caller's seed-tree lanes), so callers control determinism.
"""

from __future__ import annotations

import numpy as np


def as_points(points) -> np.ndarray:
    """Coerce input to a float array of shape ``(n, 2)``."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    return arr


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distance matrix of shape ``(len(a), len(b))``."""
    pa = as_points(a)
    pb = as_points(b)
    diff = pa[:, None, :] - pb[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def as_point_stack(points) -> np.ndarray:
    """Coerce input to a float array of shape ``(..., n, 2)``.

    Accepts a single ``(n, 2)`` point set or a batch ``(batch, n, 2)`` of
    them (any number of leading axes); used by the vectorized channel
    backend, which stacks one point set per topology draw.
    """
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.shape[-1] != 2:
        raise ValueError(f"expected (..., n, 2) points, got shape {arr.shape}")
    return arr


def stacked_pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distances of shape ``(..., len(a), len(b))`` over stacks.

    Bit-identical per slice to :func:`pairwise_distances` (same subtract /
    square / sum / sqrt sequence), broadcasting any leading batch axes.
    """
    pa = as_point_stack(a)
    pb = as_point_stack(b)
    diff = pa[..., :, None, :] - pb[..., None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def min_pairwise_distance(points):
    """Smallest distance between any two distinct points (inf for < 2
    points); a ``(..., n, 2)`` stack gives one value per point set."""
    pts = as_point_stack(points)
    if pts.shape[-2] < 2:
        return np.full(pts.shape[:-2], np.inf)[()]
    # Each unordered pair once: ``(a - b)**2 == (b - a)**2`` exactly, so
    # this is the minimum of the full distance matrix, bit for bit.
    first, second = np.triu_indices(pts.shape[-2], 1)
    diff = pts[..., first, :] - pts[..., second, :]
    return np.sqrt(np.sum(diff * diff, axis=-1)).min(axis=-1)


def annulus_points(draws, center, r_min: float, r_max: float) -> np.ndarray:
    """Points in the annulus ``r_min <= r <= r_max`` around ``center`` from
    uniform ``draws`` in [0, 1) of shape ``(..., 2, count)``: row 0 sets
    each point's area-uniform radius, row 1 its angle.

    ``center`` is one ``(2,)`` point or a stack broadcasting against the
    leading axes; the result is ``(..., count, 2)``.
    """
    if not 0.0 <= r_min <= r_max:
        raise ValueError("need 0 <= r_min <= r_max")
    center = np.asarray(center, dtype=float)
    # Area-uniform radius: r = sqrt(u * (r_max^2 - r_min^2) + r_min^2), and
    # ``uniform(0, 2 pi)``'s ``0 + 2 pi * u`` angle.
    radii = np.sqrt(draws[..., 0, :] * (r_max**2 - r_min**2) + r_min**2)
    angles = 2.0 * np.pi * draws[..., 1, :]
    return np.stack(
        (
            center[..., 0, None] + radii * np.cos(angles),
            center[..., 1, None] + radii * np.sin(angles),
        ),
        axis=-1,
    )


def rect_points(draws, x_range, y_range) -> np.ndarray:
    """Points in an axis-aligned rectangle from uniform ``draws`` of shape
    ``(..., 2, count)`` (row 0 for x, row 1 for y), ``(..., count, 2)``;
    each coordinate is ``uniform(lo, hi)``'s ``lo + (hi - lo) * u``."""
    (x0, x1), (y0, y1) = x_range, y_range
    if x1 < x0 or y1 < y0:
        raise ValueError("ranges must be non-decreasing")
    return np.stack(
        (x0 + (x1 - x0) * draws[..., 0, :], y0 + (y1 - y0) * draws[..., 1, :]), axis=-1
    )


def sector_angles_ok(center, points, min_sector_deg: float):
    """True if no two ``points`` fall within ``min_sector_deg`` of each other
    as seen from ``center``; a ``(..., n, 2)`` stack (with ``center``
    broadcasting as ``(..., 2)``) gives one verdict per point set.

    This is the paper's Fig 12 deployment rule: "any two antennas from the
    same AP cannot be deployed within a 60-degree sector measured with
    respect to the AP", which prevents antennas clustering on the far side.
    """
    pts = as_point_stack(points)
    if pts.shape[-2] < 2:
        return np.ones(pts.shape[:-2], dtype=bool)[()]
    center = np.asarray(center, dtype=float)
    angles = np.degrees(
        np.arctan2(pts[..., 1] - center[..., 1, None], pts[..., 0] - center[..., 0, None])
    )
    angles = np.sort(np.mod(angles, 360.0), axis=-1)
    # Consecutive gaps around the circle (including the wrap-around gap);
    # the minimum consecutive gap equals the minimum pairwise separation.
    gaps = np.diff(np.concatenate((angles, angles[..., :1] + 360.0), axis=-1), axis=-1)
    return np.min(gaps, axis=-1) >= min_sector_deg


def grid_points(x_range, y_range, step: float) -> np.ndarray:
    """Regular measurement grid covering the rectangle, shape ``(n, 2)``.

    Used by the deadzone (0.5 m) and hidden-terminal (1 m) surveys.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    xs = np.arange(x_range[0], x_range[1] + step / 2, step)
    ys = np.arange(y_range[0], y_range[1] + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack((gx.ravel(), gy.ravel()))


def points_within(points, center, radius: float) -> np.ndarray:
    """Boolean mask of which ``points`` (``(..., n, 2)``) lie within
    ``radius`` of ``center`` (``(2,)`` or broadcasting as ``(..., 2)``)."""
    pts = as_point_stack(points)
    center = np.asarray(center, dtype=float)
    return np.linalg.norm(pts - center[..., None, :], axis=-1) <= radius
