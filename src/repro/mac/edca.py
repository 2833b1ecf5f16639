"""802.11e EDCA access categories (paper §3.3).

802.11ac re-purposes 802.11e's four traffic-class queues to drive MU-MIMO:
the class that wins internal contention becomes the *primary* access class,
and secondary classes fill remaining streams.  Packets carry their class
into the per-(client, class) queues of :class:`repro.traffic.TrafficState`;
both engines select primary-class candidates first and fill in from the
other classes (:func:`repro.core.selection.pick_in_visit_order`).  Full-buffer runs have
no queues and treat every member as backlogged.
"""

from __future__ import annotations

import enum


class AccessCategory(enum.IntEnum):
    """The four EDCA traffic classes, highest priority first."""

    VOICE = 0
    VIDEO = 1
    BEST_EFFORT = 2
    BACKGROUND = 3
