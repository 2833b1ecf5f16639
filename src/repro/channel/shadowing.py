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

Every drawn node of every field of a batch lives in one
:class:`LatticeNodeStore`: sorted packed ``(field, ix, iy)`` int64 keys and
their float64 values.  Sampling (:func:`sample_site_fields`) is one stacked
pass: lattice keys, bilinear weights and norms are prepared once over the
``(batch, points)`` stack, each item's unique lattice nodes are found once
(with their first-visit positions) and shared by all of its site fields,
and every field's nodes are looked up with one ``searchsorted``.  Nodes are still drawn lazily -- each field with missing
nodes draws them in the order a point-by-point walk would first touch
them, as one ``standard_normal(k)`` call -- so the generator stream (and
therefore every result) is bit-identical to the historical scalar
implementation.  Interpolation and re-normalisation run as stacked array
math.
"""

from __future__ import annotations

import numpy as np

from .. import rng as rng_mod
from ..topology import geometry

#: A node key packs ``(field, ix, iy)`` as
#: ``field << 2 * _INDEX_BITS | (ix + _INDEX_OFFSET) << _INDEX_BITS | (iy + _INDEX_OFFSET)``.
#: Every part is range-checked, so keys cannot collide, and their order is
#: the lexicographic ``(field, ix, iy)`` order.
_INDEX_BITS = 21
_FIELD_BITS = 20
_INDEX_OFFSET = 1 << (_INDEX_BITS - 1)
_FIELD_SHIFT = 2 * _INDEX_BITS

#: Corner offsets in the order the scalar implementation visited them:
#: (ix, iy), (ix+1, iy), (ix, iy+1), (ix+1, iy+1).
_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)


class LatticeNodeStore:
    """Every drawn lattice node of a batch of shadowing fields.

    ``site_seeds`` holds one list of seeds per item, one seed per site
    field (a generator, or a seed-tree leaf whose generator is built on the
    field's first draw -- a field that never draws never builds one).
    Fields are numbered item by item, site by site.  All fields share one
    ``sigma_db`` and decorrelation length ``correlation_m``.

    :attr:`keys` are the sorted packed ``(field, ix, iy)`` keys of every
    node drawn so far and :attr:`values` their standard-normal values, so
    querying a point twice returns the same value and nearby points are
    correlated.
    """

    def __init__(self, site_seeds, sigma_db: float, correlation_m: float):
        if sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if correlation_m <= 0:
            raise ValueError("correlation_m must be positive")
        self.sigma_db = float(sigma_db)
        self.correlation_m = float(correlation_m)
        self.site_counts = np.array([len(item) for item in site_seeds], dtype=np.int64)
        self.field_offsets = np.cumsum(self.site_counts) - self.site_counts
        self._seeds = [seed for item in site_seeds for seed in item]
        if len(self._seeds) > 1 << _FIELD_BITS:
            raise ValueError(
                f"a lattice node store holds at most 2**{_FIELD_BITS} fields; "
                f"got {len(self._seeds)}"
            )
        self._generators: list[np.random.Generator | None] = [None] * len(self._seeds)
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)

    @property
    def n_items(self) -> int:
        return len(self.site_counts)

    def generator(self, field: int) -> np.random.Generator:
        """Field ``field``'s generator (built from its seed on first use)."""
        self._build([field])
        return self._generators[field]

    def _build(self, fields) -> None:
        """Build the generators of ``fields`` that have none yet, their
        leaves hashed in one pass."""
        new = [field for field in fields if self._generators[field] is None]
        for field, generator in zip(new, rng_mod.make_rngs([self._seeds[f] for f in new])):
            self._generators[field] = generator

    def fetch(self, keys, pair_fields, pair_lengths, first_visit) -> np.ndarray:
        """Node values of sorted packed ``keys``: one run of
        ``pair_lengths[i]`` unique keys of field ``pair_fields[i]`` per
        pair, no field twice, and each key's ``first_visit`` position.
        Fields with missing nodes draw them (:meth:`_draw`), and the new
        nodes merge into the store in one step."""
        pos = np.searchsorted(self.keys, keys)
        found = pos < len(self.keys)
        found[found] = self.keys[pos[found]] == keys[found]
        values = np.empty(len(keys))
        values[found] = self.values[pos[found]]
        missing = np.flatnonzero(~found)
        if missing.size:
            # The draw's index arrays are freed before the merge (the peak
            # of a first, all-missing lookup); ``pos`` is sorted, so the new
            # nodes' places in the merged arrays need no sort.
            self._draw(values, missing, pair_fields, pair_lengths, first_visit)
            at = pos[missing] + np.arange(missing.size)
            kept = np.ones(len(self.keys) + missing.size, dtype=bool)
            kept[at] = False
            self.keys = _merge(self.keys, kept, keys[missing], at)
            self.values = _merge(self.values, kept, values[missing], at)
        return values

    def _draw(self, values, missing, pair_fields, pair_lengths, first_visit) -> None:
        """Fill ``values[missing]``: each field with missing nodes draws
        them in first-visit order with one ``standard_normal(k)`` call."""
        missing_pair = np.searchsorted(np.cumsum(pair_lengths), missing, side="right")
        draw_order = missing[np.lexsort((first_visit[missing], missing_pair))]
        draws = np.bincount(missing_pair, minlength=len(pair_fields))
        drawing = np.flatnonzero(draws)
        fresh = np.empty(missing.size)
        end = 0
        fields = pair_fields[drawing].tolist()
        self._build(fields)
        for field, count in zip(fields, draws[drawing].tolist()):
            self._generators[field].standard_normal(out=fresh[end : end + count])
            end += count
        values[draw_order] = fresh


def _merge(old: np.ndarray, kept: np.ndarray, new: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``old`` at the ``kept`` places and ``new`` at ``at``."""
    merged = np.empty(len(kept), dtype=old.dtype)
    merged[kept] = old
    merged[at] = new
    return merged


def _lattice(pts: np.ndarray, correlation_m: float):
    """Packed corner lattice keys ``(..., n, 4)`` (field bits zero),
    bilinear weights ``(..., n, 4)`` and weight norms ``(..., n)`` of a
    point stack.  Non-finite points and lattice indices outside
    ``[-2**20, 2**20)`` raise ``ValueError``."""
    if not np.isfinite(pts).all():
        raise ValueError("shadowing points must be finite")
    scaled = pts / correlation_m
    floor = np.floor(scaled)
    if floor.size and not (
        floor.min() >= -_INDEX_OFFSET and floor.max() < _INDEX_OFFSET - 1
    ):
        raise ValueError(
            f"shadowing points must lie within {(_INDEX_OFFSET - 1) * correlation_m:g} m "
            f"of the origin on each axis"
        )
    base = floor.astype(np.int64)
    frac = scaled - base
    corners = base[..., :, None, :] + (_CORNERS + _INDEX_OFFSET)  # (..., n, 4, 2)
    keys = (corners[..., 0] << _INDEX_BITS) | corners[..., 1]
    fx = frac[..., 0]
    fy = frac[..., 1]
    weights = np.stack(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=-1
    )
    norm = np.sqrt(np.sum(weights * weights, axis=-1))
    return keys, weights, norm


def _row_unique(keys: np.ndarray):
    """Per-row unique keys of ``(rows, m)`` ``keys``, each row sorted.

    Returns the concatenated unique keys of every row (row-major), the
    per-row unique counts, each unique key's first-visit position within
    its row, and the ``(rows, m)`` inverse: each key's index within its
    row's unique list.
    """
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    run_start = np.ones(keys.shape, dtype=bool)
    run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, np.cumsum(run_start, axis=1) - 1, axis=1)
    # A stable sort leads each run of equal keys with the key's first visit.
    return ordered[run_start], run_start.sum(axis=1), order[run_start], inverse


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def sample_site_fields(store: LatticeNodeStore, points, items=None) -> np.ndarray:
    """Stacked shadowing of every site field of the selected items,
    ``(len(items), n_sites, n_points)``.

    ``items`` (default: every item, no repeats) picks items of ``store``;
    rows beyond an item's own site count are zero.  ``points`` is one
    shared ``(n_points, 2)`` set (survey grids) or a per-item
    ``(len(items), n_points, 2)`` stack.  Every field draws only its own
    missing lattice nodes, in first-visit order, so each item's values and
    generator states match sampling its fields one by one; unselected
    items draw nothing.
    """
    # Indexing an arange range-checks ``items`` and turns negative item
    # numbers into real ones, so the by-field order and repeat check hold.
    idx = np.arange(store.n_items)
    if items is not None:
        idx = idx[np.asarray(items, dtype=np.int64)]
    if len(np.unique(idx)) != len(idx):
        raise ValueError("items must not repeat")
    pts = geometry.as_point_stack(points)
    shared = pts.ndim == 2
    if not shared and len(pts) != len(idx):
        raise ValueError(f"expected {len(idx)} point sets, got {len(pts)}")
    site_counts = store.site_counts[idx]
    n_sites = int(site_counts.max(initial=0))
    n_points = pts.shape[-2]
    shape = (len(idx), n_sites, n_points)
    if n_sites == 0 or store.sigma_db == 0.0 or n_points == 0:
        return np.zeros(shape)
    keys, weights, norm = _lattice(pts[None] if shared else pts, store.correlation_m)
    unique, counts, first_visit, inverse = _row_unique(keys.reshape(len(keys), -1))
    # One (item, site) pair per field, in field order, so the packed query
    # keys come out sorted.
    by_field = np.argsort(idx, kind="stable")
    pair_item = np.repeat(by_field, site_counts[by_field])
    pair_site = _ragged_arange(site_counts[by_field])
    pair_row = np.zeros_like(pair_item) if shared else pair_item
    pair_fields = store.field_offsets[idx][pair_item] + pair_site
    pair_lengths = counts[pair_row]
    row_starts = np.cumsum(counts) - counts
    gather = np.repeat(row_starts[pair_row], pair_lengths) + _ragged_arange(pair_lengths)
    query = unique[gather] | np.repeat(pair_fields << _FIELD_SHIFT, pair_lengths)
    values = store.fetch(query, pair_fields, pair_lengths, first_visit[gather])
    # Interpolate on an (item, site) grid; slots past an item's own sites
    # read clipped junk and are zeroed.
    starts = np.zeros((len(idx), n_sites), dtype=np.int64)
    starts[pair_item, pair_site] = np.cumsum(pair_lengths) - pair_lengths
    node_values = values.take(starts[..., None] + inverse[:, None], mode="clip")
    raw = np.sum(weights[:, None] * node_values.reshape(shape + (4,)), axis=-1)
    # Bilinear mixing shrinks the variance; restore the marginal sigma.
    out = raw / norm[:, None] * store.sigma_db
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
