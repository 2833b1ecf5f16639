"""Log-normal shadowing with spatial correlation (Gudmundson-style).

Each *transmit site* owns an independent shadowing field over receiver
positions.  Antennas co-located at one site (a CAS array) therefore see
identical shadowing toward any receiver -- the physical reason a CAS has
"almost the same path loss from different antennas" (paper Fig 2a) -- while
distributed antennas see independent fields.

The field is realized as i.i.d. Gaussians on a coarse lattice with spacing
equal to the decorrelation distance, bilinearly interpolated and re-scaled
to preserve the marginal standard deviation.  This is O(points) instead of
the O(points^3) Cholesky construction, which matters for the 0.5 m deadzone
survey grids.

Sampling is one stacked pass over every field of a batch
(:func:`sample_site_fields`).  Lattice keys, bilinear weights and norms are
prepared once over the ``(batch, points)`` stack, and each item's unique
lattice nodes are found once, in first-visit order, and shared by all of
its site fields.  Nodes are still drawn lazily -- each field draws its
missing nodes in the order a point-by-point walk would first touch them, as
one ``standard_normal(k)`` call -- so the generator stream (and therefore
every result) is bit-identical to the historical scalar implementation.
Interpolation and re-normalisation run as stacked array math.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from ..topology import geometry

#: Lattice indices are packed into a single int64 key, ``ix * 2**31 + iy``;
#: collision-free for |iy| < 2**30, far beyond any indoor survey extent.
_KEY_STRIDE = 2**31

#: Corner offsets in the order the scalar implementation visited them:
#: (ix, iy), (ix+1, iy), (ix, iy+1), (ix+1, iy+1).
_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)


class ShadowingField:
    """A smooth 2-D Gaussian field with st.dev. ``sigma_db``.

    Values at lattice nodes are drawn lazily and cached, so the field is
    consistent: querying the same point twice returns the same value, and
    nearby points are correlated with decorrelation length ``correlation_m``.

    ``rng`` is a generator, or a seed-tree leaf
    (:class:`numpy.random.SeedSequence`) whose generator is built on the
    first draw -- a field that never draws never builds one.
    """

    def __init__(self, rng, sigma_db: float, correlation_m: float):
        if sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if correlation_m <= 0:
            raise ValueError("correlation_m must be positive")
        self._seed = rng
        self._generator: np.random.Generator | None = None
        self.sigma_db = float(sigma_db)
        self.correlation_m = float(correlation_m)
        self._nodes: dict[int, float] = {}

    @property
    def rng(self) -> np.random.Generator:
        """The field's generator (built from its seed leaf on first use)."""
        if self._generator is None:
            self._generator = rng_mod.make_rng(self._seed)
        return self._generator

    def _node(self, ix: int, iy: int) -> float:
        key = int(ix) * _KEY_STRIDE + int(iy)
        value = self._nodes.get(key)
        if value is None:
            value = float(self.rng.standard_normal())
            self._nodes[key] = value
        return value

    def _node_values(self, keys: list[int]) -> np.ndarray:
        """Node values for unique ``keys`` given in first-visit order,
        drawing the missing ones in that order; ``standard_normal(k)``
        consumes the stream exactly like ``k`` scalar draws."""
        nodes = self._nodes
        missing = [key for key in keys if key not in nodes]
        if missing:
            nodes.update(zip(missing, self.rng.standard_normal(len(missing)).tolist()))
        return np.array([nodes[key] for key in keys], dtype=float)

    def sample(self, points) -> np.ndarray:
        """Shadowing in dB at each point, shape ``(n_points,)``."""
        return sample_site_fields([[self]], geometry.as_points(points))[0, 0]


def _lattice(pts: np.ndarray, correlation_m: float):
    """Corner keys ``(..., n, 4)``, bilinear weights ``(..., n, 4)`` and
    weight norms ``(..., n)`` of a point stack."""
    scaled = pts / correlation_m
    base = np.floor(scaled).astype(np.int64)
    frac = scaled - base
    corners = base[..., :, None, :] + _CORNERS  # (..., n, 4, 2)
    keys = corners[..., 0] * _KEY_STRIDE + corners[..., 1]
    fx = frac[..., 0]
    fy = frac[..., 1]
    weights = np.stack(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=-1
    )
    norm = np.sqrt(np.sum(weights * weights, axis=-1))
    return keys, weights, norm


def _first_visit_unique(keys: np.ndarray):
    """Per-row unique keys of ``(rows, m)`` ``keys`` in first-visit order.

    Returns the concatenated unique keys of every row (row-major, each row
    in first-visit order), the per-row unique counts, and the ``(rows, m)``
    inverse: each key's rank within its row's unique list.
    """
    n_rows, m = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    run_start = np.ones((n_rows, m), dtype=bool)
    run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    # A stable sort leads each run of equal keys with the key's first visit.
    first_visit = np.zeros((n_rows, m), dtype=bool)
    np.put_along_axis(first_visit, order, run_start, axis=1)
    rank = np.cumsum(first_visit, axis=1) - 1
    starts = np.maximum.accumulate(np.where(run_start, np.arange(m), 0), axis=1)
    run_rank = np.take_along_axis(
        rank, np.take_along_axis(order, starts, axis=1), axis=1
    )
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, run_rank, axis=1)
    return keys[first_visit], run_start.sum(axis=1), inverse


def sample_site_fields(fields, points) -> np.ndarray:
    """Stacked shadowing of per-item site fields, ``(batch, n_sites, n_points)``.

    ``fields`` holds one list of :class:`ShadowingField` per item (sites in
    order; all fields share one sigma and correlation length); rows beyond
    an item's own site count are zero.  ``points`` is one shared
    ``(n_points, 2)`` set (survey grids) or a per-item
    ``(batch, n_points, 2)`` stack.  Every field draws only its own missing
    lattice nodes, in first-visit order, so each item's values and
    generator states match sampling its fields one by one.
    """
    pts = geometry.as_point_stack(points)
    shared = pts.ndim == 2
    n_sites = max((len(item) for item in fields), default=0)
    n_points = pts.shape[-2]
    out = np.zeros((len(fields), n_sites, n_points))
    first = next((field for item in fields for field in item), None)
    if first is None or first.sigma_db == 0.0 or n_points == 0:
        return out
    keys, weights, norm = _lattice(pts[None] if shared else pts, first.correlation_m)
    unique, counts, inverse = _first_visit_unique(keys.reshape(len(keys), -1))
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    unique = unique.tolist()
    chunks = []
    offsets = np.zeros((len(fields), n_sites), dtype=np.int64)
    position = 0
    for b, item in enumerate(fields):
        row = 0 if shared else b
        item_keys = unique[bounds[row] : bounds[row + 1]]
        for s, field in enumerate(item):
            chunks.append(field._node_values(item_keys))
            offsets[b, s] = position
            position += len(item_keys)
    values = np.concatenate(chunks)
    for s in range(n_sites):
        node_values = values[offsets[:, s, None] + inverse].reshape(
            len(fields), n_points, 4
        )
        raw = np.sum(weights * node_values, axis=-1)
        # Bilinear mixing shrinks the variance; restore the marginal sigma.
        out[:, s] = raw / norm * first.sigma_db
    site_counts = np.array([len(item) for item in fields])
    out[np.arange(n_sites) >= site_counts[:, None]] = 0.0
    return out


def group_antenna_sites_batch(antenna_positions, tolerance_m: float = 1.0) -> np.ndarray:
    """Shadowing sites of a ``(batch, n, 2)`` stack of antenna layouts,
    ``(batch, n)`` site ids.

    Sites are the connected components of the "within ``tolerance_m``"
    graph (single linkage: any chain of close pairs shares one site,
    whatever the antenna order), found by boolean transitive closure.  Each
    component's root is its smallest antenna index, and site ids are
    numbered in first-antenna order.
    """
    pts = geometry.as_point_stack(antenna_positions)
    n = pts.shape[-2]
    if n == 0:
        return np.zeros(pts.shape[:-1], dtype=int)
    reach = geometry.stacked_pairwise_distances(pts, pts) <= tolerance_m
    reach |= np.eye(n, dtype=bool)
    while True:
        linked = reach.astype(np.float32)
        closure = (linked @ linked) > 0
        if np.array_equal(closure, reach):
            break
        reach = closure
    root = np.argmax(reach, axis=-1)  # smallest index in the component
    is_root = root == np.arange(n)
    site_of_root = np.cumsum(is_root, axis=-1) - 1
    return np.take_along_axis(site_of_root, root, axis=-1).astype(int)


def group_antenna_sites(antenna_positions, tolerance_m: float = 1.0) -> np.ndarray:
    """Group one layout's antennas into shadowing *sites* -- the stacked
    kernel :func:`group_antenna_sites_batch` on a batch of one.

    A CAS array (half-wavelength spacing) collapses to one site; DAS antennas
    5+ m apart each get their own.  Site ids follow each cluster's first
    antenna, matching the historical greedy assignment on every non-chained
    layout (where the two are identical).
    """
    pts = geometry.as_points(antenna_positions)
    return group_antenna_sites_batch(pts[None], tolerance_m)[0]
