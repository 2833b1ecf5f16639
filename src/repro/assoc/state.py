"""Association state: the single owner of membership, tags, and handoffs.

:class:`BatchAssociationState` is what the engines hold: the association
layer of a whole batch, as arrays with a leading item axis.  It owns
everything that used to be computed inline in each engine
(``sim/batch.py``, ``sim/network.py``):

* the live **client->AP map** ``client_ap`` (re-evaluated by the items'
  policies at every sounding),
* the **anchor-antenna tags** (paper §3.2.4), one ``(batch, n_clients,
  n_antennas)`` mask on the *global* client and antenna axes, so dynamic
  membership never breaks the engines' rectangular bookkeeping,
* the columnar **handoff log** and the outage accounting of clients caught
  mid-handoff (handed off at one sounding, not yet served by the next),
* the **coordination hook**: under ``coordinated_scheduling`` neighboring
  APs exchange their per-round picks, and an AP planning after others
  excludes clients that can overhear an already-committed transmission
  (cross-cell DRR never double-schedules them).

Items are grouped by policy name and arguments, and each group shares one
policy instance whose every decision is row-wise, so a batch may mix
policies item by item and an item's map, tags and counts are those of the
same item run as a batch of one.

Bit-identity contract: with the default ``nearest_anchor`` policy the
membership equals ``deployment.clients_of(ap)`` forever and the tags are
each member's ``tag_width`` strongest own antennas, ties toward the lower
index -- every engine consuming this state is bit-identical
(``array_equal``) to v1.6.0.
"""

from __future__ import annotations

import enum

import numpy as np

from ..api.registry import ASSOCIATION, COORDINATION
from ..core.tagging import tag_mask
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


class BatchAssociationState:
    """The association layer of a batch of same-structure topologies.

    Parameters
    ----------
    groups:
        ``(policy, items)`` pairs: one
        :class:`~repro.assoc.policies.AssociationPolicy` instance per group
        of batch items (policies keep per-row history, so an instance is
        never shared between runs).  The groups' item indices together
        cover ``range(n_items)`` exactly once.
    deployment:
        The shared AP/antenna/client structure; its ``client_ap`` is every
        item's initial assignment.
    mac:
        MAC constants (``tag_width`` sizes the tags, ``nav_decode_dbm``
        bounds what a client can overhear for coordinated scheduling).
    coordination:
        A :class:`CoordinationMode`, its name, or ``None`` (independent).
    """

    def __init__(self, groups, deployment, mac, coordination=None):
        self._groups = [
            (policy, np.asarray(items, dtype=int)) for policy, items in groups
        ]
        covered = np.sort(np.concatenate([items for __, items in self._groups]))
        if not np.array_equal(covered, np.arange(covered.size)) or not covered.size:
            raise ValueError("policy groups must cover items 0..n-1 exactly once")
        self.mac = mac
        self.coordination = resolve_coordination(coordination)
        self.n_items = covered.size
        self.n_clients = deployment.n_clients
        self.n_aps = deployment.n_aps
        self._antennas_of = [deployment.antennas_of(ap) for ap in range(self.n_aps)]
        #: Client->AP map, ``(n_items, n_clients)`` int.
        self.client_ap = np.tile(
            np.asarray(deployment.client_ap, dtype=int), (self.n_items, 1)
        )
        #: RSSI of the last sounding, ``(n_items, n_clients, n_antennas)``
        #: (``None`` before the first).
        self.rssi_dbm: np.ndarray | None = None
        #: Anchor-antenna tags on the global axes, ``(n_items, n_clients,
        #: n_antennas)`` bool: a client carries tags only on its own AP's
        #: antennas.
        self.tags = np.zeros(
            (self.n_items, self.n_clients, deployment.n_antennas), dtype=bool
        )
        #: Clients handed off at the last sounding and not served since,
        #: ``(n_items, n_clients)`` bool; one still pending when the *next*
        #: sounding arrives is an outage (it crossed a cell and got nothing
        #: from either side).
        self.pending = np.zeros((self.n_items, self.n_clients), dtype=bool)
        #: Handoffs so far per item, ``(n_items,)`` int.
        self.handoff_count = np.zeros(self.n_items, dtype=int)
        self._completed_outages = np.zeros(self.n_items, dtype=int)
        #: Every handoff of the run, one ``(sounding, item, client, from_ap,
        #: to_ap)`` row each, in sounding, item and client order.
        self.handoff_log = np.zeros((0, 5), dtype=int)
        #: Completed soundings (policy re-evaluations + tag rebuilds).
        self.sounding_count = 0
        #: Tag rebuild count; always equals ``sounding_count`` -- the
        #: roaming contract that tags re-derive exactly once per sounding.
        self.tag_builds = 0

    # -- membership ----------------------------------------------------
    def members_mask(self, ap: int) -> np.ndarray:
        """Membership of ``ap``, ``(n_items, n_clients)`` bool."""
        return self.client_ap == ap

    def tag_stack(self, ap: int) -> np.ndarray:
        """Tags on ``ap``'s own antennas, ``(n_items, n_clients, n_own)``
        bool (non-members all-False)."""
        return self.tags[:, :, self._antennas_of[ap]]

    # -- sounding ------------------------------------------------------
    def resound(self, rssi_dbm: np.ndarray) -> np.ndarray:
        """One sounding: settle outage accounting, let each policy group
        re-evaluate its rows of the map, log handoffs, rebuild the tags.

        ``rssi_dbm`` is the current large-scale RSSI, ``(n_items,
        n_clients, n_antennas)`` (``ChannelBatch.client_rx_power_dbm``).
        Returns this sounding's rows of :attr:`handoff_log`.
        """
        rssi = np.asarray(rssi_dbm, dtype=float)
        if rssi.shape[:2] != (self.n_items, self.n_clients):
            raise ValueError(
                f"rssi_dbm must have one row per client ({self.n_clients}) "
                f"for each of {self.n_items} item(s), got shape {rssi.shape}"
            )
        # A full inter-sounding window passed: anyone still pending was
        # never served after crossing -- count the outage.
        outages = self.pending.sum(axis=1)
        self._completed_outages += outages
        _obs_active().count("assoc.outages", int(outages.sum()))

        per_ap = np.stack(
            [rssi[..., ants].max(axis=-1) for ants in self._antennas_of], axis=-1
        )
        new_map = self.client_ap.copy()
        for policy, items in self._groups:
            group_map = np.asarray(
                policy.reevaluate(
                    self.client_ap[items], per_ap[items], self.sounding_count
                ),
                dtype=int,
            )
            if group_map.shape != (items.size, self.n_clients):
                raise ValueError(
                    "association policy returned a map of shape "
                    f"{group_map.shape}; expected {(items.size, self.n_clients)}"
                )
            new_map[items] = group_map
        if new_map.size and (new_map.min() < 0 or new_map.max() >= self.n_aps):
            raise ValueError("association policy returned an out-of-range AP")
        self.pending = new_map != self.client_ap
        item, client = np.nonzero(self.pending)
        events = np.stack(
            [
                np.full(item.size, self.sounding_count),
                item,
                client,
                self.client_ap[item, client],
                new_map[item, client],
            ],
            axis=1,
        )
        _obs_active().count("assoc.handoffs", item.size)
        self.handoff_log = np.concatenate([self.handoff_log, events])
        self.handoff_count += self.pending.sum(axis=1)
        self.client_ap = new_map
        self.rssi_dbm = rssi
        for ap, own in enumerate(self._antennas_of):
            self.tags[:, :, own] = tag_mask(
                rssi[..., own], min(self.mac.tag_width, len(own))
            ) & (new_map == ap)[..., None]
        self.tag_builds += 1
        self.sounding_count += 1
        return events

    # -- service / handoff accounting ----------------------------------
    def note_served(self, served: np.ndarray) -> None:
        """Record one round's service, ``(n_items, n_clients)`` bool;
        clears the served clients' pending-handoff outage clocks."""
        self.pending &= ~np.asarray(served, dtype=bool)

    @property
    def outage_count(self) -> np.ndarray:
        """Handoffs per item whose client got no service before the next
        sounding (clients still pending at the end of a run count too),
        ``(n_items,)`` int."""
        return self._completed_outages + self.pending.sum(axis=1)

    # -- coordination --------------------------------------------------
    def overheard_masks(self, active_mask: np.ndarray) -> np.ndarray:
        """Clients that can decode at least one active antenna at the
        last-sounded RSSI, ``(n_items, n_clients)`` bool, from an
        ``(n_items, n_antennas)`` active-antenna mask.

        This is the information neighboring APs exchange under
        ``coordinated_scheduling``: a client overhearing a committed
        transmission is already covered this round, so a later-planning AP
        skips it rather than double-scheduling it into interference.
        """
        if self.rssi_dbm is None:
            return np.zeros((self.n_items, self.n_clients), dtype=bool)
        decodes = self.rssi_dbm >= self.mac.nav_decode_dbm
        return (decodes & np.asarray(active_mask, dtype=bool)[:, None, :]).any(axis=-1)


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
    association, association_kwargs, n_items, deployment, mac, coordination=None
) -> BatchAssociationState:
    """Resolve an engine's ``association=`` arguments into live state.

    ``association`` and ``association_kwargs`` are each one value for the
    whole batch or a list with one entry per item (see :func:`one_per_item`).
    ``None`` is the ``nearest_anchor`` default (bit-identical to the
    historical inline tag/anchor logic) and a string resolves through the
    association registry; items sharing a name and arguments share one
    fresh policy instance.  A ready
    :class:`~repro.assoc.policies.AssociationPolicy` instance is accepted
    for a batch of one (its kwargs must then be empty).
    """
    names = one_per_item("association", association, n_items)
    kwargs = one_per_item("association_kwargs", association_kwargs, n_items)
    if any(name is not None and not isinstance(name, str) for name in names):
        if n_items != 1:
            raise ValueError(
                "a batch needs registered association names (one fresh policy "
                "is built per group of items); got a policy instance"
            )
        if kwargs[0]:
            raise ValueError(
                "association_kwargs only apply when the policy is given by "
                "name; pass a configured policy instance instead"
            )
        return BatchAssociationState([(names[0], [0])], deployment, mac, coordination)
    groups: dict[tuple, tuple[str, dict, list[int]]] = {}
    for item, (name, item_kwargs) in enumerate(zip(names, kwargs)):
        name = name or "nearest_anchor"
        item_kwargs = dict(item_kwargs or {})
        key = (name, repr(sorted(item_kwargs.items())))
        groups.setdefault(key, (name, item_kwargs, []))[2].append(item)
    return BatchAssociationState(
        [
            (resolve_association(name, **item_kwargs), items)
            for name, item_kwargs, items in groups.values()
        ],
        deployment,
        mac,
        coordination,
    )
