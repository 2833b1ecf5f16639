"""Client<->AP association policies.

The paper's evaluation (and every release through v1.6.0) fixes each client
to the AP whose service annulus it was drawn in -- association is a side
effect of topology generation, never revisited.  That is exactly one policy
among many: real enterprise WLANs re-associate on RSSI with hysteresis, and
the coordinated multi-AP systems in PAPERS.md (the Network MIMO tutorial,
the 6D movable-antenna coordination paper) assume the association layer is
explicit and swappable.

A policy is a small stateful object with one hook: ``reevaluate`` maps the
current client->AP assignments of a group of batch items plus their freshly
sounded per-AP RSSI to new assignments, one row per item.
:class:`repro.assoc.BatchAssociationState` groups the batch's items by
policy name and arguments, calls each group's one policy instance at every
sounding, diffs the result into its handoff log, and rebuilds the
anchor-antenna tags -- the engines never see the policy itself.

Built-in policies (registered with :func:`repro.api.register_association`):

* ``nearest_anchor`` -- the default: keep the deployment's home-AP map
  forever.  Bit-identical to v1.6.0 on every engine.
* ``strongest_rssi`` -- greedy: at each sounding, associate with the AP
  whose best antenna is loudest.  No memory, so a client on a cell border
  can ping-pong with the shadowing.
* ``hysteresis_handoff`` -- production-style roaming: per-AP RSSI is
  EMA-smoothed across soundings, and a handoff happens only when another
  AP beats the serving AP by ``hysteresis_db`` *and* the client has dwelt
  ``dwell_soundings`` soundings since its last handoff.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import register_association


class AssociationPolicy:
    """One client->AP mapping rule, re-evaluated at every sounding.

    One instance serves one group of batch items for one run, so
    implementations may keep per-(item, client) history across calls.  Every
    row must be decided from its own row alone: an item's map then never
    depends on which other items share its group.
    """

    def reevaluate(
        self,
        current_ap: np.ndarray,
        per_ap_rssi_dbm: np.ndarray,
        sounding_index: int,
    ) -> np.ndarray:
        """The new client->AP map after one sounding.

        Parameters
        ----------
        current_ap:
            Current assignments, ``(n_items, n_clients)`` int (a private
            copy; safe to mutate or return as-is).
        per_ap_rssi_dbm:
            ``(n_items, n_clients, n_aps)`` best-antenna RSSI per client per
            AP, measured at this sounding.
        sounding_index:
            0-based index of this sounding (construction time is 0).
        """
        raise NotImplementedError


@register_association("nearest_anchor")
class NearestAnchorPolicy(AssociationPolicy):
    """Keep the deployment's home-AP assignment forever (the v1.6.0
    behavior, and the universal default: engines built without an
    ``association`` argument run this policy bit-identically)."""

    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return current_ap


@register_association("strongest_rssi")
class StrongestRssiPolicy(AssociationPolicy):
    """Associate with the loudest AP at every sounding, no hysteresis.

    Ties break toward the lowest AP index (``argmax`` first-match), so the
    map is deterministic for a fixed channel draw.
    """

    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        return np.argmax(np.asarray(per_ap_rssi_dbm, dtype=float), axis=-1)


@register_association("hysteresis_handoff")
class HysteresisHandoffPolicy(AssociationPolicy):
    """RSSI-history roaming with a handoff margin and a dwell time.

    Parameters
    ----------
    hysteresis_db:
        A candidate AP must beat the serving AP's smoothed RSSI by at least
        this margin to trigger a handoff (>= 0).
    dwell_soundings:
        Minimum soundings between consecutive handoffs of one client
        (>= 1); also holds every client at its home AP for the first
        ``dwell_soundings`` soundings.
    smoothing:
        EMA weight of the *new* measurement in ``(0, 1]``; ``1.0`` disables
        the history and filters on the margin alone.
    """

    def __init__(
        self,
        hysteresis_db: float = 4.0,
        dwell_soundings: int = 2,
        smoothing: float = 0.5,
    ):
        if hysteresis_db < 0:
            raise ValueError("hysteresis_db must be >= 0")
        if dwell_soundings < 1:
            raise ValueError("dwell_soundings must be >= 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.hysteresis_db = float(hysteresis_db)
        self.dwell_soundings = int(dwell_soundings)
        self.smoothing = float(smoothing)
        self._smoothed: np.ndarray | None = None
        self._last_change: np.ndarray | None = None

    def reevaluate(self, current_ap, per_ap_rssi_dbm, sounding_index):
        current_ap = np.asarray(current_ap, dtype=int)
        rssi = np.asarray(per_ap_rssi_dbm, dtype=float)
        if self._smoothed is None:
            # Association "changed" at sounding 0 (initial attach), so the
            # dwell clock starts there for every client.
            self._smoothed = rssi.copy()
            self._last_change = np.zeros(current_ap.shape, dtype=int)
        else:
            self._smoothed = (
                self.smoothing * rssi + (1.0 - self.smoothing) * self._smoothed
            )
        best = np.argmax(self._smoothed, axis=-1)

        def smoothed_at(ap):
            return np.take_along_axis(self._smoothed, ap[..., None], axis=-1)[..., 0]

        margin = smoothed_at(best) - smoothed_at(current_ap)
        dwelt = sounding_index - self._last_change >= self.dwell_soundings
        move = (best != current_ap) & dwelt & (margin >= self.hysteresis_db)
        self._last_change[move] = sounding_index
        return np.where(move, best, current_ap)
