"""Dict-based reference for the stacked lattice node store.

:class:`ShadowingField` is one shadowing field as repro 8.0.0 held it: a
dict of lattice nodes keyed ``ix * 2**31 + iy``, drawn lazily from the
field's own generator in first-visit order and cached forever.
:func:`sample_site_fields` is that release's stacked sampler over lists
of such fields (one list per item), and :func:`walk_sample` is the older
point-by-point walk it replaced, driven through :meth:`ShadowingField.node`
so generator draws interleave exactly as they used to.  Tests drive
:class:`repro.channel.shadowing.LatticeNodeStore` and one oracle field
per (item, site) with the same seeds and points, and compare values and
generator states exactly.
"""

from __future__ import annotations

import numpy as np

from repro import rng as rng_mod
from repro.topology import geometry

_KEY_STRIDE = 2**31

_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)


class ShadowingField:
    """One field: a node dict plus a lazily built generator."""

    def __init__(self, rng, sigma_db: float, correlation_m: float):
        self._seed = rng
        self._generator: np.random.Generator | None = None
        self.sigma_db = float(sigma_db)
        self.correlation_m = float(correlation_m)
        self.nodes: dict[int, float] = {}

    @property
    def rng(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = rng_mod.make_rng(self._seed)
        return self._generator

    def node(self, ix: int, iy: int) -> float:
        key = int(ix) * _KEY_STRIDE + int(iy)
        value = self.nodes.get(key)
        if value is None:
            value = float(self.rng.standard_normal())
            self.nodes[key] = value
        return value

    def node_values(self, keys: list[int]) -> np.ndarray:
        nodes = self.nodes
        missing = [key for key in keys if key not in nodes]
        if missing:
            nodes.update(zip(missing, self.rng.standard_normal(len(missing)).tolist()))
        return np.array([nodes[key] for key in keys], dtype=float)

    def sample(self, points) -> np.ndarray:
        return sample_site_fields([[self]], geometry.as_points(points))[0, 0]


def _lattice(pts: np.ndarray, correlation_m: float):
    scaled = pts / correlation_m
    base = np.floor(scaled).astype(np.int64)
    frac = scaled - base
    corners = base[..., :, None, :] + _CORNERS
    keys = corners[..., 0] * _KEY_STRIDE + corners[..., 1]
    fx = frac[..., 0]
    fy = frac[..., 1]
    weights = np.stack(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=-1
    )
    norm = np.sqrt(np.sum(weights * weights, axis=-1))
    return keys, weights, norm


def _first_visit_unique(keys: np.ndarray):
    n_rows, m = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    run_start = np.ones((n_rows, m), dtype=bool)
    run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
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
    """``(batch, n_sites, n_points)`` shadowing of per-item field lists."""
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
            chunks.append(field.node_values(item_keys))
            offsets[b, s] = position
            position += len(item_keys)
    values = np.concatenate(chunks)
    for s in range(n_sites):
        node_values = values[offsets[:, s, None] + inverse].reshape(
            len(fields), n_points, 4
        )
        raw = np.sum(weights * node_values, axis=-1)
        out[:, s] = raw / norm * first.sigma_db
    site_counts = np.array([len(item) for item in fields])
    out[np.arange(n_sites) >= site_counts[:, None]] = 0.0
    return out


def walk_sample(field: ShadowingField, points) -> np.ndarray:
    """The historical scalar walk: one point at a time, corners in
    (ix, iy), (ix+1, iy), (ix, iy+1), (ix+1, iy+1) order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if field.sigma_db == 0.0:
        return np.zeros(len(pts))
    scaled = pts / field.correlation_m
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    values = np.empty(len(pts))
    for i, ((ix, iy), (fx, fy)) in enumerate(zip(map(tuple, base), frac)):
        w00 = (1 - fx) * (1 - fy)
        w10 = fx * (1 - fy)
        w01 = (1 - fx) * fy
        w11 = fx * fy
        raw = (
            w00 * field.node(ix, iy)
            + w10 * field.node(ix + 1, iy)
            + w01 * field.node(ix, iy + 1)
            + w11 * field.node(ix + 1, iy + 1)
        )
        norm = np.sqrt(w00**2 + w10**2 + w01**2 + w11**2)
        values[i] = raw / norm
    return values * field.sigma_db


def channel_site_fields(seed, n_sites: int, radio) -> list[ShadowingField]:
    """Oracle fields for one :class:`repro.channel.ChannelBatch` item with
    integer ``seed``: the shadowing child of the item's seed tree, then one
    leaf per site."""
    shadow_seed, _fading_seed = rng_mod.spawn_seeds(seed, 2)
    return [
        ShadowingField(leaf, radio.shadowing_sigma_db, radio.shadowing_correlation_m)
        for leaf in rng_mod.spawn_seeds(shadow_seed, n_sites)
    ]


def store_nodes(store, field: int) -> dict[int, float]:
    """Field ``field``'s nodes of a lattice node store, re-keyed the
    oracle's way (``ix * 2**31 + iy``)."""
    from repro.channel import shadowing

    bits = shadowing._INDEX_BITS
    offset = shadowing._INDEX_OFFSET
    mine = (store.keys >> (2 * bits)) == field
    keys = store.keys[mine]
    ix = ((keys >> bits) & ((1 << bits) - 1)) - offset
    iy = (keys & ((1 << bits) - 1)) - offset
    return dict(zip((ix * _KEY_STRIDE + iy).tolist(), store.values[mine].tolist()))
