"""Association state: the single owner of membership, tags, and handoffs.

:class:`AssociationState` is what the engines actually hold.  It wraps one
:class:`~repro.assoc.policies.AssociationPolicy` and owns everything that
used to be computed inline in each engine (``sim/batch.py``,
``sim/network.py``):

* the live **client->AP map** (re-evaluated by the policy at every
  sounding),
* the per-AP **anchor-antenna tag tables** (paper §3.2.4), kept on the
  *global* client axis so dynamic membership never breaks the engines'
  rectangular bookkeeping,
* the **handoff event log** and the outage accounting of clients caught
  mid-handoff (handed off at one sounding, not yet served by the next),
* the **coordination hook**: under ``coordinated_scheduling`` neighboring
  APs exchange their per-round picks, and an AP planning after others
  excludes clients that can overhear an already-committed transmission
  (cross-cell DRR never double-schedules them).

Bit-identity contract: with the default ``nearest_anchor`` policy the
membership equals ``deployment.clients_of(ap)`` forever and the tag masks
are the historical ``TagTable.from_rssi`` rows scattered to global indices
-- every engine consuming this state is bit-identical (``array_equal``) to
v1.6.0.  :class:`BatchAssociationState` holds one state per batch item,
each with its own policy, so a batch may mix policies item by item.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..api.registry import ASSOCIATION, COORDINATION
from ..core.tagging import TagTable
from ..obs import active as _obs_active


class CoordinationMode(str, enum.Enum):
    """How much neighboring APs tell each other while scheduling."""

    #: Every AP schedules alone (the paper's -- and v1.6.0's -- behavior).
    INDEPENDENT = "independent"
    #: APs planning later in a round receive the already-committed picks
    #: and skip clients that can overhear those transmissions.
    COORDINATED_SCHEDULING = "coordinated_scheduling"


COORDINATION.add("independent", CoordinationMode.INDEPENDENT)
COORDINATION.add("coordinated_scheduling", CoordinationMode.COORDINATED_SCHEDULING)


def association_names() -> list[str]:
    """Registered association-policy names."""
    from . import policies  # noqa: F401  (imports register the built-ins)

    return ASSOCIATION.names()


def resolve_association(name: str, **kwargs):
    """Instantiate the registered association policy ``name``."""
    from . import policies  # noqa: F401  (imports register the built-ins)

    return ASSOCIATION.get(name)(**kwargs)


def resolve_coordination(value) -> CoordinationMode:
    """Resolve a coordination mode given as a name, a mode, or ``None``
    (the independent default).  Unknown names list what is registered."""
    if value is None:
        return CoordinationMode.INDEPENDENT
    if isinstance(value, CoordinationMode):
        return value
    return COORDINATION.get(str(value))


@dataclass(frozen=True)
class HandoffEvent:
    """One client switching APs at one sounding."""

    sounding_index: int
    client: int
    from_ap: int
    to_ap: int


class AssociationState:
    """Live association state of one run (one engine instance).

    Parameters
    ----------
    policy:
        An :class:`~repro.assoc.policies.AssociationPolicy` instance (not
        shared -- policies may keep per-client history).
    deployment:
        The topology; its ``client_ap`` is the initial assignment.
    mac:
        MAC constants (``tag_width`` sizes the tags, ``nav_decode_dbm``
        bounds what a client can overhear for coordinated scheduling).
    coordination:
        A :class:`CoordinationMode`, its name, or ``None`` (independent).
    """

    def __init__(self, policy, deployment, mac, coordination=None):
        self.policy = policy
        self.deployment = deployment
        self.mac = mac
        self.coordination = resolve_coordination(coordination)
        self.n_clients = deployment.n_clients
        self.n_aps = deployment.n_aps
        self.client_ap = np.asarray(deployment.client_ap, dtype=int).copy()
        self._antennas_of = [
            deployment.antennas_of(ap) for ap in range(self.n_aps)
        ]
        #: Completed soundings (policy re-evaluations + tag rebuilds).
        self.sounding_count = 0
        #: Tag-table rebuild count; always equals ``sounding_count`` -- the
        #: roaming contract that tags re-derive exactly once per sounding.
        self.tag_builds = 0
        #: Every handoff of the run, in occurrence order.
        self.handoff_events: list[HandoffEvent] = []
        # Clients handed off at the last sounding and not served since; an
        # entry still pending when the *next* sounding arrives is an outage
        # (the client crossed a cell and got nothing from either side).
        self._pending: dict[int, int] = {}
        self._completed_outages = 0
        self._rssi_dbm: np.ndarray | None = None
        self._tag_masks: dict[int, np.ndarray] = {}

    # -- membership ----------------------------------------------------
    def members(self, ap: int) -> np.ndarray:
        """Global client ids currently associated with ``ap`` (sorted)."""
        return np.flatnonzero(self.client_ap == ap)

    def member_mask(self, ap: int) -> np.ndarray:
        """Boolean membership over all clients, ``(n_clients,)``."""
        return self.client_ap == ap

    def tag_mask(self, ap: int) -> np.ndarray:
        """Anchor-antenna tags of ``ap``'s members on the global client
        axis, ``(n_clients, n_own_antennas)`` bool (non-members all-False)."""
        return self._tag_masks[ap]

    def tagged_clients(self, ap: int, local_antenna: int) -> np.ndarray:
        """Global ids of clients tagged to ``ap``'s ``local_antenna``-th
        antenna, sorted ascending (the scalar selection order)."""
        return np.flatnonzero(self._tag_masks[ap][:, local_antenna])

    # -- sounding ------------------------------------------------------
    def resound(self, rssi_dbm: np.ndarray) -> list[HandoffEvent]:
        """One sounding: settle outage accounting, let the policy
        re-evaluate the map, log handoffs, rebuild every AP's tags.

        ``rssi_dbm`` is the current large-scale RSSI,
        ``(n_clients, n_antennas)`` (one item of
        ``ChannelBatch.client_rx_power_dbm``).
        Returns the handoffs this sounding produced.
        """
        rssi = np.asarray(rssi_dbm, dtype=float)
        if rssi.shape[0] != self.n_clients:
            raise ValueError(
                f"rssi_dbm must have one row per client ({self.n_clients}), "
                f"got shape {rssi.shape}"
            )
        # A full inter-sounding window passed: anyone still pending was
        # never served after crossing -- count the outage.
        self._completed_outages += len(self._pending)
        _obs_active().count("assoc.outages", len(self._pending))
        self._pending.clear()

        per_ap = np.stack(
            [rssi[:, ants].max(axis=1) for ants in self._antennas_of], axis=1
        )
        new_map = np.asarray(
            self.policy.reevaluate(
                self.client_ap.copy(), per_ap, self.sounding_count
            ),
            dtype=int,
        )
        if new_map.shape != self.client_ap.shape:
            raise ValueError(
                "association policy returned a map of shape "
                f"{new_map.shape}; expected {self.client_ap.shape}"
            )
        if new_map.size and (new_map.min() < 0 or new_map.max() >= self.n_aps):
            raise ValueError("association policy returned an out-of-range AP")
        moved = np.flatnonzero(new_map != self.client_ap)
        events = [
            HandoffEvent(
                sounding_index=self.sounding_count,
                client=int(c),
                from_ap=int(self.client_ap[c]),
                to_ap=int(new_map[c]),
            )
            for c in moved
        ]
        for event in events:
            self._pending[event.client] = event.sounding_index
        _obs_active().count("assoc.handoffs", len(events))
        self.handoff_events.extend(events)
        self.client_ap = new_map
        self._rssi_dbm = rssi
        self._rebuild_tag_masks(rssi)
        self.sounding_count += 1
        return events

    def _rebuild_tag_masks(self, rssi: np.ndarray) -> None:
        for ap in range(self.n_aps):
            antennas = self._antennas_of[ap]
            members = self.members(ap)
            mask = np.zeros((self.n_clients, len(antennas)), dtype=bool)
            if members.size:
                width = min(self.mac.tag_width, len(antennas))
                table = TagTable.from_rssi(rssi[np.ix_(members, antennas)], width)
                mask[members] = table.tags
            self._tag_masks[ap] = mask
        self.tag_builds += 1

    # -- service / handoff accounting ----------------------------------
    def note_served(self, clients) -> None:
        """Record that ``clients`` (global ids) received service; clears
        their pending-handoff outage clocks."""
        if not self._pending:
            return
        for c in np.asarray(clients, dtype=int).ravel():
            self._pending.pop(int(c), None)

    @property
    def handoff_count(self) -> int:
        """Total handoffs so far."""
        return len(self.handoff_events)

    @property
    def outage_count(self) -> int:
        """Handoffs whose client got no service before the next sounding
        (clients still pending at the end of a run count too)."""
        return self._completed_outages + len(self._pending)

    # -- coordination --------------------------------------------------
    def overheard_mask(self, active_antennas) -> np.ndarray:
        """Clients that can decode at least one of ``active_antennas``
        (global ids) at the last-sounded RSSI, ``(n_clients,)`` bool.

        This is the information neighboring APs exchange under
        ``coordinated_scheduling``: a client overhearing a committed
        transmission is already covered this round, so a later-planning AP
        skips it rather than double-scheduling it into interference.
        """
        antennas = np.asarray(list(active_antennas), dtype=int)
        if antennas.size == 0 or self._rssi_dbm is None:
            return np.zeros(self.n_clients, dtype=bool)
        return (
            self._rssi_dbm[:, antennas].max(axis=1) >= self.mac.nav_decode_dbm
        )


class BatchAssociationState:
    """One :class:`AssociationState` per batch item, plus stacked views.

    Each item keeps its own policy instance and history, so items may run
    different policies (or policy arguments) side by side, and an item's
    decisions never depend on which other items share the batch.  Only the
    coordination mode is shared.
    """

    def __init__(self, items: list[AssociationState]):
        if not items:
            raise ValueError("need at least one association state")
        self.items = list(items)
        first = self.items[0]
        if any(
            st.coordination is not first.coordination for st in self.items[1:]
        ):
            raise ValueError("batched items must share one coordination mode")
        self.n_items = len(self.items)
        self.n_clients = first.n_clients
        self.n_aps = first.n_aps
        self.coordination = first.coordination

    def resound(self, rssi_stack: np.ndarray) -> list[list[HandoffEvent]]:
        """Per-item sounding; ``rssi_stack`` is the batched RSSI
        ``(n_items, n_clients, n_antennas)``."""
        return [
            state.resound(rssi_stack[b]) for b, state in enumerate(self.items)
        ]

    def members_mask(self, ap: int) -> np.ndarray:
        """Stacked membership, ``(n_items, n_clients)`` bool."""
        return np.stack([state.member_mask(ap) for state in self.items])

    def tag_stack(self, ap: int) -> np.ndarray:
        """Stacked global-axis tags, ``(n_items, n_clients, n_own)`` bool."""
        return np.stack([state.tag_mask(ap) for state in self.items])

    def note_served(self, item: int, clients) -> None:
        self.items[item].note_served(clients)

    def overheard_masks(self, active_mask: np.ndarray) -> np.ndarray:
        """Per-item overheard clients, ``(n_items, n_clients)`` bool, from
        a stacked active-antenna mask ``(n_items, n_antennas)``."""
        active_mask = np.asarray(active_mask, dtype=bool)
        return np.stack(
            [
                state.overheard_mask(np.flatnonzero(active_mask[b]))
                for b, state in enumerate(self.items)
            ]
        )


def build_association_state(
    association, association_kwargs, deployment, mac, coordination=None
) -> AssociationState:
    """Resolve an engine's ``association=`` argument into live state.

    ``None`` yields the ``nearest_anchor`` default (bit-identical to the
    historical inline tag/anchor logic); a string resolves through the
    association registry; a ready :class:`~repro.assoc.policies.AssociationPolicy`
    instance passes through (kwargs must then be empty).
    """
    kwargs = dict(association_kwargs or {})
    if association is None:
        association = "nearest_anchor"
    if isinstance(association, str):
        policy = resolve_association(association, **kwargs)
    else:
        if kwargs:
            raise ValueError(
                "association_kwargs only apply when the policy is given by "
                "name; pass a configured policy instance instead"
            )
        policy = association
    return AssociationState(policy, deployment, mac, coordination)


def one_per_item(name: str, value, n_items: int) -> list:
    """``value`` as one entry per batch item.

    A list or tuple is taken as per-item values and must hold exactly
    ``n_items`` entries; anything else (a mapping, a name, ``None``) is
    shared by every item.
    """
    if not isinstance(value, (list, tuple)):
        return [value] * n_items
    if len(value) != n_items:
        raise ValueError(
            f"{name} must be one value for the whole batch or one entry per "
            f"item ({n_items}); got {len(value)} entries"
        )
    return list(value)


def build_batch_association_state(
    association, association_kwargs, deployments, mac, coordination=None
) -> BatchAssociationState:
    """One fresh policy + state per batch item (policies hold per-client
    history, so sharing an instance across items would corrupt it).

    ``association`` and ``association_kwargs`` are each one value for the
    whole batch or a list with one entry per deployment (see
    :func:`one_per_item`).  Passing a policy *instance* is rejected here --
    give a name."""
    deployments = list(deployments)
    associations = one_per_item("association", association, len(deployments))
    kwargs = one_per_item("association_kwargs", association_kwargs, len(deployments))
    if any(a is not None and not isinstance(a, str) for a in associations):
        raise ValueError(
            "the batched evaluator needs a registered association name (one "
            "fresh policy is built per item); got a policy instance"
        )
    return BatchAssociationState(
        [
            build_association_state(name, item_kwargs, deployment, mac, coordination)
            for name, item_kwargs, deployment in zip(associations, kwargs, deployments)
        ]
    )
