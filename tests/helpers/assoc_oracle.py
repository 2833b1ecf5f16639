"""Scalar references for the stacked association state.

:class:`AssociationState` is one item's association layer as repro 7.0.0
held it: a client->AP map, per-AP anchor-antenna tag tables built one
table per AP per sounding, a dict of pending handoffs and a list of
handoff events.  :func:`scalar_policy` builds the matching one-item
policies (``arange`` indexing, one item's rows at a time), and
:func:`tag_table` is the per-table tag build the stacked kernel replaced.
Tests drive :class:`repro.assoc.BatchAssociationState` and one oracle per
item with the same RSSI, served masks and overheard queries, and compare
exactly.
"""

from __future__ import annotations

import numpy as np


def tag_table(rssi_dbm: np.ndarray, tag_width: int) -> np.ndarray:
    """``(n_clients, n_antennas)`` tags: each row's ``tag_width`` strongest
    antennas, ties to the lower index."""
    prefs = np.argsort(-np.asarray(rssi_dbm, dtype=float), axis=1, kind="stable")
    n_clients, n_antennas = prefs.shape
    if not 1 <= tag_width <= n_antennas:
        raise ValueError(f"tag_width must be in [1, {n_antennas}]")
    tags = np.zeros((n_clients, n_antennas), dtype=bool)
    tags[np.repeat(np.arange(n_clients), tag_width), prefs[:, :tag_width].ravel()] = True
    return tags


class NearestAnchor:
    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return current_ap


class StrongestRssi:
    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return np.argmax(np.asarray(per_ap_rssi_dbm, dtype=float), axis=1)


class HysteresisHandoff:
    def __init__(self, hysteresis_db=4.0, dwell_soundings=2, smoothing=0.5):
        self.hysteresis_db = float(hysteresis_db)
        self.dwell_soundings = int(dwell_soundings)
        self.smoothing = float(smoothing)
        self._smoothed = None
        self._last_change = None

    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        current_ap = np.asarray(current_ap, dtype=int)
        rssi = np.asarray(per_ap_rssi_dbm, dtype=float)
        if self._smoothed is None:
            self._smoothed = rssi.copy()
            self._last_change = np.zeros(len(current_ap), dtype=int)
        else:
            self._smoothed = (
                self.smoothing * rssi + (1.0 - self.smoothing) * self._smoothed
            )
        clients = np.arange(len(current_ap))
        best = np.argmax(self._smoothed, axis=1)
        margin = self._smoothed[clients, best] - self._smoothed[clients, current_ap]
        dwelt = sounding_index - self._last_change >= self.dwell_soundings
        move = (best != current_ap) & dwelt & (margin >= self.hysteresis_db)
        self._last_change[move] = sounding_index
        return np.where(move, best, current_ap)


_POLICIES = {
    "nearest_anchor": NearestAnchor,
    "strongest_rssi": StrongestRssi,
    "hysteresis_handoff": HysteresisHandoff,
}


def scalar_policy(name: str, kwargs=None):
    """A fresh one-item policy for the registered built-in ``name``."""
    return _POLICIES[name](**(kwargs or {}))


class AssociationState:
    """One item's association state (map, tags, handoffs, outages)."""

    def __init__(self, policy, deployment, mac):
        self.policy = policy
        self.mac = mac
        self.n_clients = deployment.n_clients
        self.n_aps = deployment.n_aps
        self.client_ap = np.asarray(deployment.client_ap, dtype=int).copy()
        self._antennas_of = [deployment.antennas_of(ap) for ap in range(self.n_aps)]
        self.sounding_count = 0
        self.tag_builds = 0
        #: ``[sounding, client, from_ap, to_ap]`` per handoff, in order.
        self.handoff_events: list[list[int]] = []
        self._pending: dict[int, int] = {}
        self._completed_outages = 0
        self._rssi_dbm = None
        self._tag_masks: dict[int, np.ndarray] = {}

    def member_mask(self, ap: int) -> np.ndarray:
        return self.client_ap == ap

    def tag_mask(self, ap: int) -> np.ndarray:
        """``(n_clients, n_own)`` tags of ``ap``'s members (others False)."""
        return self._tag_masks[ap]

    def resound(self, rssi_dbm: np.ndarray) -> None:
        rssi = np.asarray(rssi_dbm, dtype=float)
        self._completed_outages += len(self._pending)
        self._pending.clear()
        per_ap = np.stack(
            [rssi[:, ants].max(axis=1) for ants in self._antennas_of], axis=1
        )
        new_map = np.asarray(
            self.policy.reevaluate(self.client_ap.copy(), per_ap, self.sounding_count),
            dtype=int,
        )
        for c in np.flatnonzero(new_map != self.client_ap):
            self.handoff_events.append(
                [self.sounding_count, int(c), int(self.client_ap[c]), int(new_map[c])]
            )
            self._pending[int(c)] = self.sounding_count
        self.client_ap = new_map
        self._rssi_dbm = rssi
        for ap, antennas in enumerate(self._antennas_of):
            members = np.flatnonzero(self.client_ap == ap)
            mask = np.zeros((self.n_clients, len(antennas)), dtype=bool)
            if members.size:
                width = min(self.mac.tag_width, len(antennas))
                mask[members] = tag_table(rssi[np.ix_(members, antennas)], width)
            self._tag_masks[ap] = mask
        self.tag_builds += 1
        self.sounding_count += 1

    def note_served(self, clients) -> None:
        for c in np.asarray(clients, dtype=int).ravel():
            self._pending.pop(int(c), None)

    @property
    def handoff_count(self) -> int:
        return len(self.handoff_events)

    @property
    def outage_count(self) -> int:
        return self._completed_outages + len(self._pending)

    def overheard_mask(self, active_antennas) -> np.ndarray:
        """Clients decoding at least one of ``active_antennas`` (global ids)."""
        antennas = np.asarray(list(active_antennas), dtype=int)
        if antennas.size == 0 or self._rssi_dbm is None:
            return np.zeros(self.n_clients, dtype=bool)
        return self._rssi_dbm[:, antennas].max(axis=1) >= self.mac.nav_decode_dbm
