"""Grouped-by-shape reference for the round engine's precode/score step.

:func:`score_planned` is the round engine's scoring as it stood before the
padded one-pass: it walks each item's committed slots in plan order, solves
the precoders grouped by unpadded ``(n_streams, n_antennas)`` shape, and
builds the cross-slot interference per (item, slot, other slot) triple.
:func:`planned_lists` reads a :class:`repro.sim.batch.RoundPlan` back into
the per-item ``(ap, antennas, clients)`` lists it consumes.  Tests drive
the engine and this reference on the same plans and compare within
:data:`helpers.contracts.PADDED_SCORE_CONTRACT`, integer fields exactly.
"""

from __future__ import annotations

import numpy as np

from repro.channel.batch import apply_csi_error
from repro.core.batch import naive_scaled_precoder, power_balanced_precoder


def planned_lists(plan) -> list[list[tuple[int, np.ndarray, list[int]]]]:
    """Per item, its committed slots in plan order as ``(ap, antennas,
    clients)``: transmitting antennas ascending, clients in pick order."""
    planned = []
    for b in range(plan.slot_on.shape[0]):
        slots = []
        for p in np.flatnonzero(plan.slot_on[b]):
            antennas = plan.slot_antennas[b, p]
            clients = plan.slot_clients[b, p]
            slots.append(
                (int(plan.aps[p]), antennas[antennas >= 0], clients[clients >= 0].tolist())
            )
        planned.append(slots)
    return planned


def score_planned(
    h,
    h_csi,
    planned,
    item_active,
    *,
    balanced: bool,
    per_antenna_power_mw: float,
    noise_mw: float,
    n_aps: int,
    csi_error_std: float = 0.0,
    csi_rngs=None,
):
    """Capacity, stream counts, per-AP streams and per-slot SINRs of one
    round, the grouped-by-shape way.

    ``h`` is the true ``(batch, n_clients, n_antennas)`` channel and
    ``h_csi`` the one precoders see; CSI noise draws consume
    ``csi_rngs[b]`` in plan order on each slot's unpadded block.  Returns
    ``(capacity, n_streams, per_ap_streams, slot_sinrs)`` with
    ``slot_sinrs[(b, s)]`` the SINRs of item ``b``'s ``s``-th committed slot.
    """
    n_items = len(planned)
    items = np.flatnonzero(item_active)
    slot_true, slot_clients, slot_estimates = {}, {}, {}
    for b in items:
        for s, (__, antennas, chosen) in enumerate(planned[b]):
            clients = np.asarray(chosen, dtype=int)
            slot_true[(b, s)] = h[b][np.ix_(clients, antennas)]
            slot_clients[(b, s)] = clients
            slot_estimates[(b, s)] = apply_csi_error(
                h_csi[b][np.ix_(clients, antennas)],
                csi_error_std,
                None if csi_rngs is None else csi_rngs[b],
            )

    precoders, groups = {}, {}
    for key, estimate in slot_estimates.items():
        groups.setdefault(estimate.shape, []).append(key)
    for keys in groups.values():
        stack = np.stack([slot_estimates[k] for k in keys])
        if balanced:
            v = power_balanced_precoder(stack, per_antenna_power_mw, noise_mw).v
        else:
            v = naive_scaled_precoder(stack, per_antenna_power_mw)
        for index, key in enumerate(keys):
            precoders[key] = v[index]

    desired, intra = {}, {}
    for keys in groups.values():
        own = np.abs(
            np.stack([slot_true[k] for k in keys]) @ np.stack([precoders[k] for k in keys])
        ) ** 2
        diag = np.diagonal(own, axis1=-2, axis2=-1)
        row_sums = np.sum(own, axis=-1)
        for index, key in enumerate(keys):
            desired[key] = diag[index]
            intra[key] = row_sums[index] - diag[index]

    slot_capacity, slot_sinrs = {}, {}
    for b in items:
        for s in range(len(planned[b])):
            external = np.zeros(len(slot_clients[(b, s)]))
            for other, (__, other_antennas, ___) in enumerate(planned[b]):
                if other == s:
                    continue
                cross = h[b][np.ix_(slot_clients[(b, s)], other_antennas)]
                external = external + np.sum(
                    np.abs(cross @ precoders[(b, other)]) ** 2, axis=-1
                )
            sinr = desired[(b, s)] / (noise_mw + intra[(b, s)] + external)
            slot_capacity[(b, s)] = float(np.sum(np.log2(1.0 + sinr)))
            slot_sinrs[(b, s)] = sinr

    capacity = np.zeros(n_items)
    n_streams = np.zeros(n_items, dtype=int)
    per_ap_streams = np.zeros((n_items, n_aps), dtype=int)
    for b in items:
        total = 0.0
        for s, (ap, __, chosen) in enumerate(planned[b]):
            total += slot_capacity[(b, s)]
            n_streams[b] += len(chosen)
            per_ap_streams[b, ap] = len(chosen)
        capacity[b] = total
    return capacity, n_streams, per_ap_streams, slot_sinrs
