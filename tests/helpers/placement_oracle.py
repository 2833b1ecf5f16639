"""Per-attempt reference for block-drawn placement.

Placement as repro 13.0.0 drew it: every rejection-sampling attempt is its
own ``rng.random(n)`` + ``rng.uniform(0, 2 pi, n)`` annulus draw (or its own
pair of ``rng.uniform(lo, hi, 8)`` rectangle draws) checked by the scalar
rules, and a factory builds each item's generators from
:class:`numpy.random.SeedSequence` nodes directly.  Tests compare
:func:`repro.topology.deployment.das_antenna_layout`,
``scenarios._place_eight_aps`` and every scenario factory against these
loops value for value.
"""

from __future__ import annotations

import numpy as np

from repro.channel.pathloss import coverage_range_m
from repro.config import DEFAULT_MAC


def annulus_attempt(rng, center, r_min, r_max, count) -> np.ndarray:
    cx, cy = np.asarray(center, dtype=float)
    u = rng.random(count)
    radii = np.sqrt(u * (r_max**2 - r_min**2) + r_min**2)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack((cx + radii * np.cos(angles), cy + radii * np.sin(angles)))


def _min_pairwise_distance(pts) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dists, np.inf)
    return float(dists.min())


def _sector_ok(center, pts, min_sector_deg) -> bool:
    if len(pts) < 2:
        return True
    cx, cy = np.asarray(center, dtype=float)
    angles = np.degrees(np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx))
    angles = np.sort(np.mod(angles, 360.0))
    gaps = np.diff(np.concatenate((angles, [angles[0] + 360.0])))
    return bool(np.min(gaps) >= min_sector_deg)


def das_attempts(
    rng,
    center,
    n_antennas,
    radius_min_m=5.0,
    radius_max_m=10.0,
    min_sector_deg=0.0,
    min_separation_m=0.0,
    within_radius_m=np.inf,
    max_attempts=20_000,
):
    """One AP's antennas, one attempt at a time, and the attempts taken;
    ``(None, max_attempts)`` when every attempt fails."""
    center = np.asarray(center, dtype=float)
    for attempt in range(1, max_attempts + 1):
        pts = annulus_attempt(rng, center, radius_min_m, radius_max_m, n_antennas)
        if min_separation_m > 0 and _min_pairwise_distance(pts) < min_separation_m:
            continue
        if min_sector_deg > 0 and not _sector_ok(center, pts, min_sector_deg):
            continue
        if np.isfinite(within_radius_m) and not np.all(
            np.linalg.norm(pts - center[None, :], axis=1) <= within_radius_m
        ):
            continue
        return pts, attempt
    return None, max_attempts


def das_antenna_layout(rng, center, n_antennas, **rules):
    """:func:`das_attempts` without the attempt count."""
    return das_attempts(rng, center, n_antennas, **rules)[0]


def place_eight_aps(rng, region_m, sense_range_m, max_overhearers, max_attempts):
    """Fig 16's AP placement, one attempt at a time."""
    for _ in range(max_attempts):
        candidate = np.column_stack(
            (
                rng.uniform(5.0, region_m - 5.0, 8),
                rng.uniform(5.0, region_m - 5.0, 8),
            )
        )
        diff = candidate[:, None, :] - candidate[None, :, :]
        dists = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dists, np.inf)
        if dists.min() < 8.0:
            continue
        if np.all(np.sum(dists < sense_range_m, axis=1) <= max_overhearers):
            return candidate
    return None


def paired_positions(
    environment,
    ap_positions,
    *,
    seeds,
    antennas_per_ap=4,
    clients_per_ap=4,
    client_radius_fraction=0.9,
    client_radius_min_fraction=0.25,
    das_radius_min_m=5.0,
    das_radius_max_m=10.0,
    min_sector_deg=0.0,
    min_separation_m=0.0,
    modes=None,
):
    """``(clients, das)`` stacks of ``paired_scenarios`` built item by item,
    AP by AP, attempt by attempt (``das`` is ``None`` without DAS)."""
    aps = np.asarray(ap_positions, dtype=float)
    aps = np.broadcast_to(aps, (len(seeds),) + aps.shape[-2:])
    n_aps = aps.shape[1]
    coverage = coverage_range_m(environment.radio, DEFAULT_MAC.decode_snr_db)
    client_radii = (
        max(2.0, client_radius_min_fraction * coverage),
        client_radius_fraction * coverage,
    )
    with_das = modes is None or any(mode.value == "das" for mode in modes)
    clients = np.empty((len(seeds), n_aps, clients_per_ap, 2))
    das = np.empty((len(seeds), n_aps, antennas_per_ap, 2)) if with_das else None
    for item, seed in enumerate(seeds):
        client_seed, das_seed = np.random.SeedSequence(seed).spawn(2)
        client_rng = np.random.default_rng(client_seed)
        for ap in range(n_aps):
            clients[item, ap] = annulus_attempt(
                client_rng, aps[item, ap], *client_radii, clients_per_ap
            )
        if das is None:
            continue
        das_rng = np.random.default_rng(das_seed)
        for ap in range(n_aps):
            das[item, ap] = das_antenna_layout(
                das_rng,
                aps[item, ap],
                antennas_per_ap,
                radius_min_m=das_radius_min_m,
                radius_max_m=das_radius_max_m,
                min_sector_deg=min_sector_deg,
                min_separation_m=min_separation_m,
                within_radius_m=coverage,
            )
    return clients, das
