"""Antenna-specific, fairness-driven client selection (paper §3.2.5).

MIDAS deliberately selects MU-MIMO clients *without* fresh CSI: antennas are
visited in NAV-expiry order, and each picks -- among backlogged clients whose
packets are tagged to it -- the client with the largest deficit-round-robin
counter.  A client already claimed by an earlier antenna is skipped.  After
the transmission, DRR counters are settled: every served client pays one
TXOP ``T``, and the aggregate service ``n*T`` is credited equally to the
backlogged clients that were left out, steering the long-run schedule toward
fairness.

Both engines schedule through :func:`pick_in_visit_order` on stacked
``(batch, n_clients)`` masks; the event-driven MAC is a batch of one.
"""

from __future__ import annotations

import numpy as np


class BatchDeficitRoundRobin:
    """Deficit counters in TXOP units (paper §3.2.5), one row per batch item.

    Every operation takes boolean ``(n_items, n_clients)`` masks and applies
    the paper's arithmetic per item under ``np.where`` -- the masked
    control-flow idiom of :mod:`repro.core.batch` -- so item ``i``'s counters
    never depend on the other items.
    """

    def __init__(self, n_items: int, n_clients: int):
        if n_items < 1 or n_clients < 1:
            raise ValueError("need at least one item and one client")
        self._counters = np.zeros((n_items, n_clients), dtype=float)

    @property
    def counters(self) -> np.ndarray:
        """Current ``(n_items, n_clients)`` deficit counters (a copy)."""
        return self._counters.copy()

    def pick(self, candidate_mask: np.ndarray) -> np.ndarray:
        """Largest-deficit candidate per item, ``-1`` where none offered.

        Ties break toward the lowest client index (``argmax`` returns the
        first maximum), so the schedule is deterministic.
        """
        candidate_mask = np.asarray(candidate_mask, dtype=bool)
        masked = np.where(candidate_mask, self._counters, -np.inf)
        picks = np.argmax(masked, axis=1)
        return np.where(candidate_mask.any(axis=1), picks, -1)

    def settle(
        self,
        served_mask: np.ndarray,
        loser_mask: np.ndarray,
        txop_units: float = 1.0,
    ) -> None:
        """Per-item paper update: served pay ``T``, losers split ``n*T``.

        ``n`` is the number of streams just transmitted and ``m`` the number
        of backlogged losers, each credited ``n*T/m``; the aggregate change
        is zero whenever ``m > 0``.  Items whose ``served_mask`` row is
        empty are untouched; items with no losers only debit the served.
        """
        served_mask = np.asarray(served_mask, dtype=bool)
        loser_mask = np.asarray(loser_mask, dtype=bool)
        if (served_mask & loser_mask).any():
            raise ValueError("a client cannot be both served and unserved")
        n_served = served_mask.sum(axis=1)
        m_losers = loser_mask.sum(axis=1)
        self._counters = np.where(
            served_mask, self._counters - txop_units, self._counters
        )
        share = n_served * txop_units / np.maximum(m_losers, 1)
        apply = loser_mask & ((n_served > 0) & (m_losers > 0))[:, None]
        self._counters = np.where(
            apply, self._counters + share[:, None], self._counters
        )

    def credit(self, client_mask: np.ndarray, txop_units: float = 1.0) -> None:
        """Credit the masked clients for ``txop_units`` of waited airtime.

        The paper's update rule (:meth:`settle`) only moves counters when
        the AP itself transmitted.  When the AP is blocked for a whole
        round, its backlogged clients still watched that round's TXOP go
        by; crediting the waiting time keeps their deficits growing so a
        long-blocked AP's clients win access as soon as their AP next
        transmits.
        """
        client_mask = np.asarray(client_mask, dtype=bool)
        self._counters = np.where(
            client_mask, self._counters + txop_units, self._counters
        )


def pick_in_visit_order(
    drr: BatchDeficitRoundRobin,
    visits,
    primary_mask: np.ndarray,
    any_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick at most one client per visit, per item (paper §3.2.1 Step 3).

    ``visits`` is a sequence of ``(batch, n_clients)`` candidate masks: the
    tag columns of the available antennas in visit order (MIDAS), or the
    AP's membership mask once per stream (CAS).  Each visit offers its
    candidates not yet chosen to ``drr``: a primary-EDCA-class candidate
    (``primary_mask``) wins first, otherwise any backlogged one
    (``any_mask``) fills in -- 802.11ac's primary/secondary access-category
    rule.  ``pick`` is pure, so the fill-in call changes nothing when the
    primary pick lands.  A visit with no eligible candidate anchors no
    client (its antenna still radiates the precoded streams).

    Returns the ``(batch, n_clients)`` chosen mask and the ``(batch,
    n_visits)`` picks: column ``v`` is the client visit ``v`` chose, or
    ``-1`` where it chose none.  Read along a row, skipping the ``-1``
    entries, the picks are the item's pick order, which fixes the stream
    order of the precoded burst.
    """
    chosen_mask = np.zeros(primary_mask.shape, dtype=bool)
    picks = np.full((primary_mask.shape[0], len(visits)), -1, dtype=int)
    for index, visit in enumerate(visits):
        candidates = visit & ~chosen_mask
        first = drr.pick(candidates & primary_mask)
        fallback = drr.pick(candidates & any_mask)
        picks[:, index] = np.where(first >= 0, first, fallback)
        taken = np.flatnonzero(picks[:, index] >= 0)
        chosen_mask[taken, picks[taken, index]] = True
    return chosen_mask, picks
