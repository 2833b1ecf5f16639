"""Deployments: access points, their (co-located or distributed) antennas,
and clients.

A :class:`Deployment` is pure geometry -- positions and ownership -- with no
radio state.  The channel model consumes it to produce channel matrices, and
the MAC simulation consumes it for carrier-sensing distances.

Placement rules implemented here come straight from the paper's methodology
(§5.1, §5.3.1, §5.5, §7):

* CAS antennas sit half a wavelength apart at the AP.
* DAS antennas are distributed 5-10 m from the AP (configurable annulus).
* Optionally no two DAS antennas of one AP may fall in a 60° sector (Fig 12).
* Optionally DAS antennas keep a minimum mutual separation (Fig 16: 5 m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..obs import active as _obs_active
from ..rng import PCG64Lanes
from . import geometry


class AntennaMode(str, enum.Enum):
    """Whether an AP's antennas are co-located (CAS) or distributed (DAS)."""

    CAS = "cas"
    DAS = "das"


@dataclass(frozen=True)
class Deployment:
    """Positions of APs, antennas and clients for a batch of topologies.

    Every item of the batch shares one ownership structure; a single
    topology is a batch of one.  The position arrays are copied and made
    read-only at construction, so code that moves clients keeps its own
    copy and never changes the deployment it was given.

    Attributes
    ----------
    ap_positions:
        ``(batch, n_aps, 2)`` AP (central processing node) locations in
        meters.
    antenna_positions:
        ``(batch, n_antennas, 2)`` antenna locations.
    antenna_ap:
        ``(n_antennas,)`` index of the owning AP for each antenna.
    client_positions:
        ``(batch, n_clients, 2)`` client locations.
    client_ap:
        ``(n_clients,)`` index of the serving AP for each client.
    mode:
        CAS or DAS (informational; geometry already reflects it).
    """

    ap_positions: np.ndarray
    antenna_positions: np.ndarray
    antenna_ap: np.ndarray
    client_positions: np.ndarray
    client_ap: np.ndarray
    mode: AntennaMode = AntennaMode.CAS

    def __post_init__(self):
        for name, dtype in (
            ("ap_positions", float),
            ("antenna_positions", float),
            ("antenna_ap", int),
            ("client_positions", float),
            ("client_ap", int),
        ):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        for name in ("ap_positions", "antenna_positions", "client_positions"):
            shape = getattr(self, name).shape
            if len(shape) != 3 or shape[2] != 2 or shape[0] != len(self.ap_positions):
                raise ValueError(
                    f"{name} must be one (batch, n, 2) stack per deployment; "
                    f"got shape {shape}"
                )
        for name, positions in (
            ("antenna_ap", self.antenna_positions),
            ("client_ap", self.client_positions),
        ):
            owners = getattr(self, name)
            if owners.ndim != 1 or len(owners) != positions.shape[1]:
                raise ValueError(f"{name} needs one owning AP per position")
            if len(owners) and (owners.min() < 0 or owners.max() >= self.n_aps):
                raise ValueError(f"{name} references an unknown AP")

    def __len__(self) -> int:
        """Number of topologies in the batch."""
        return len(self.ap_positions)

    def take(self, items) -> Deployment:
        """The batch of items ``items`` (in that order, repeats allowed)."""
        items = np.asarray(items, dtype=int)
        return Deployment(
            self.ap_positions[items],
            self.antenna_positions[items],
            self.antenna_ap,
            self.client_positions[items],
            self.client_ap,
            self.mode,
        )

    @property
    def n_aps(self) -> int:
        """Number of access points per topology."""
        return self.ap_positions.shape[1]

    @property
    def n_antennas(self) -> int:
        """Total number of antennas across all APs of a topology."""
        return len(self.antenna_ap)

    @property
    def n_clients(self) -> int:
        """Total number of clients of a topology."""
        return len(self.client_ap)

    def antennas_of(self, ap: int) -> np.ndarray:
        """Antenna indices owned by AP ``ap`` (shared by all items)."""
        return np.flatnonzero(self.antenna_ap == ap)

    def clients_of(self, ap: int) -> np.ndarray:
        """Client indices served by AP ``ap`` (shared by all items)."""
        return np.flatnonzero(self.client_ap == ap)


def cas_antenna_layout(
    ap_position, n_antennas: int, wavelength_m: float
) -> np.ndarray:
    """Co-located antenna positions: a uniform linear array at half-wavelength
    spacing centered on the AP (paper §5.1).

    ``ap_position`` is one ``(2,)`` point or any ``(..., 2)`` stack of them;
    the result is ``(..., n_antennas, 2)``.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    center = np.asarray(ap_position, dtype=float)
    spacing = wavelength_m / 2.0
    offsets = (np.arange(n_antennas) - (n_antennas - 1) / 2.0) * spacing
    x = center[..., 0, None] + offsets
    return np.stack((x, np.broadcast_to(center[..., 1, None], x.shape)), axis=-1)


def das_antenna_layout(
    lanes: PCG64Lanes,
    ap_positions,
    n_antennas: int,
    radius_min_m: float = 5.0,
    radius_max_m: float = 10.0,
    min_sector_deg: float = 0.0,
    min_separation_m: float = 0.0,
    within_radius_m: float = np.inf,
    max_attempts: int = 20_000,
) -> np.ndarray:
    """Distributed antenna positions around every AP of a batch under the
    paper's rules, ``(batch, n_aps, n_antennas, 2)``.

    ``lanes`` holds one uniform stream per item; ``ap_positions`` is a ``(batch, n_aps, 2)`` stack or one
    ``(n_aps, 2)`` set (or ``(2,)`` point) shared by every item.  Each AP
    rejection-samples positions in the ``[radius_min_m, radius_max_m]``
    annulus around it until all active constraints hold:

    * ``min_sector_deg`` -- Fig 12's 60° no-clustering rule;
    * ``min_separation_m`` -- Fig 16's 5 m antenna separation rule;
    * ``within_radius_m`` -- Fig 16's rule that antennas stay inside the
      original AP coverage area.

    An attempt is ``2 * n_antennas`` doubles of the item's lane: the radius
    draws, then the angle draws (:func:`geometry.annulus_points`).  Every
    item still being placed draws its next block of attempts in one masked
    pass, and each item's APs take the first passing attempt in turn, each
    AP starting at the attempt after the previous AP's; an AP whose
    ``max_attempts`` attempts all fail raises :class:`RuntimeError`.  A
    lane must draw nothing else afterwards: the unused tail of its last
    block is consumed.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    centers = geometry.as_point_stack(ap_positions)
    centers = np.broadcast_to(centers, (len(lanes),) + centers.shape[-2:])
    n_items, n_aps = centers.shape[:2]
    layout = np.empty((n_items, n_aps, n_antennas, 2))
    ap = np.zeros(n_items, dtype=np.int64)  # the AP each item places next
    tried = np.zeros(n_items, dtype=np.int64)  # attempts that AP has spent
    attempts, block = 0, n_aps
    pending = np.flatnonzero(ap < n_aps)
    while pending.size:
        # Check the block around every (pending item, unplaced AP) pair:
        # pair ``offset[r] + j`` is row ``r``'s ``j``-th unplaced AP.
        first_ap = ap[pending]
        span = n_aps - first_ap
        offset = np.cumsum(span) - span
        pair_row = np.repeat(np.arange(len(pending)), span)
        pair_ap = first_ap[pair_row] + np.arange(len(pair_row)) - offset[pair_row]
        around = centers[pending[pair_row], pair_ap][:, None, :]
        draws = lanes.random((block, 2, n_antennas), lanes=pending)
        pts = geometry.annulus_points(draws[pair_row], around, radius_min_m, radius_max_m)
        ok = np.ones(pts.shape[:2], dtype=bool)
        if min_separation_m > 0:
            ok &= geometry.min_pairwise_distance(pts) >= min_separation_m
        if min_sector_deg > 0:
            ok &= geometry.sector_angles_ok(around, pts, min_sector_deg)
        if np.isfinite(within_radius_m):
            ok &= geometry.points_within(pts, around, within_radius_m).all(axis=-1)
        # Each item's APs take their attempts in turn; ``start`` is a row's
        # next unread attempt, -1 once its block is spent.
        start = np.zeros(len(pending), dtype=np.int64)
        columns = np.arange(block)
        for k in range(int(first_ap.min()), n_aps):
            rows = np.flatnonzero((ap[pending] == k) & (start >= 0))
            if not rows.size:
                continue
            items = pending[rows]
            stop = np.minimum(block, start[rows] + max_attempts - tried[items])
            window = (
                ok[offset[rows] + k - first_ap[rows]]
                & (columns >= start[rows, None])
                & (columns < stop[:, None])
            )
            hit = window.any(axis=1)
            accepted = window.argmax(axis=1)[hit]
            placed = rows[hit]
            layout[pending[placed], k] = pts[offset[placed] + k - first_ap[placed], accepted]
            attempts += int((accepted + 1 - start[placed]).sum())
            ap[pending[placed]] += 1
            tried[pending[placed]] = 0
            start[placed] = accepted + 1
            missed = rows[~hit]
            spent = stop[~hit] - start[missed]
            tried[pending[missed]] += spent
            attempts += int(spent.sum())
            start[missed] = -1
        if (tried[pending] >= max_attempts).any():
            raise RuntimeError(
                "could not satisfy DAS placement constraints after "
                f"{max_attempts} attempts (radius {radius_min_m}-{radius_max_m} m, "
                f"sector {min_sector_deg} deg, separation {min_separation_m} m)"
            )
        pending = pending[ap[pending] < n_aps]
        block = min(8 * block, max_attempts)
    telemetry = _obs_active()
    telemetry.count("topology.placement_attempts", attempts)
    telemetry.count("topology.placements", n_items * n_aps)
    return layout
