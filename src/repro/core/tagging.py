"""Virtual packet tagging (paper §3.2.4).

The MIDAS AP ranks its antennas per client by average received signal
strength and tags every queued packet with the client's ``tag_width``
strongest antennas (two at medium client density).  A packet is eligible for
a MU-MIMO round only if at least one of its tagged antennas is free -- which
both raises per-stream rate (close antennas) and avoids transmitting toward
clients whose local medium is busy (the nearby antenna's channel state
proxies the client's).
"""

from __future__ import annotations

import numpy as np


def antenna_preferences(rssi_dbm: np.ndarray) -> np.ndarray:
    """Per-client antenna ranking, strongest first.

    ``rssi_dbm`` has shape ``(..., n_clients, n_antennas)``; row ``j`` of
    the result lists antenna indices in decreasing order of client ``j``'s
    RSSI, ties toward the lower index.
    """
    rssi = np.asarray(rssi_dbm, dtype=float)
    if rssi.ndim < 2:
        raise ValueError("rssi_dbm must be (..., n_clients, n_antennas)")
    # argsort is ascending; negate for descending.  A stable sort keeps ties
    # in index order.
    return np.argsort(-rssi, axis=-1, kind="stable")


def tag_mask(rssi_dbm: np.ndarray, tag_width: int = 2) -> np.ndarray:
    """Anchor-antenna tags, ``(..., n_clients, n_antennas)`` bool: each
    client's ``tag_width`` strongest antennas (paper default: two).

    One stable argsort over the last axis tags a whole batch; every row is
    ranked on its own, so a row's tags never depend on the rows beside it.
    """
    prefs = antenna_preferences(rssi_dbm)
    n_antennas = prefs.shape[-1]
    if not 1 <= tag_width <= n_antennas:
        raise ValueError(f"tag_width must be in [1, {n_antennas}]")
    tags = np.zeros(prefs.shape, dtype=bool)
    np.put_along_axis(tags, prefs[..., :tag_width], True, axis=-1)
    return tags
