"""Scenario factories reproducing the paper's evaluation setups (§5).

Each factory returns a :class:`Scenario` -- a deployment bound to the radio
constants of one office environment -- or a CAS/DAS *pair* sharing identical
AP and client positions so comparisons are paired, exactly as in the paper
("the CAS antenna positions are fixed while DAS antennas and clients are
randomly deployed", §5.2.1).

Environments
------------
* **Office A** -- enterprise office: path-loss exponent 3.5, shadowing 4 dB.
* **Office B** -- crowded graduate lab: exponent 4.0, shadowing 6 dB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import rng as rng_mod
from ..channel.pathloss import coverage_range_m, cs_range_m
from ..config import DEFAULT_MAC, MacConfig, RadioConfig
from . import geometry
from .deployment import (
    AntennaMode,
    Deployment,
    cas_antenna_layout,
    das_antenna_layout,
)


@dataclass(frozen=True)
class OfficeEnvironment:
    """A named indoor environment with its propagation constants."""

    name: str
    radio: RadioConfig


def office_a() -> OfficeEnvironment:
    """Enterprise office (paper's Office A): milder loss and shadowing, a
    little more angular spread around the arrays."""
    return OfficeEnvironment(
        name="office_a",
        radio=RadioConfig(
            pathloss_exponent=3.5,
            shadowing_sigma_db=6.0,
            angular_spread_deg=16.0,
        ),
    )


def office_b() -> OfficeEnvironment:
    """Crowded graduate lab (paper's Office B): heavy NLOS loss, strong
    shadowing, tight angular spread (cluttered, reflective)."""
    return OfficeEnvironment(
        name="office_b",
        radio=RadioConfig(
            pathloss_exponent=4.0,
            shadowing_sigma_db=9.0,
            angular_spread_deg=13.0,
        ),
    )


@dataclass(frozen=True)
class Scenario:
    """A deployment bound to its environment and MAC constants."""

    name: str
    deployment: Deployment
    radio: RadioConfig
    mac: MacConfig = field(default_factory=MacConfig)
    seed: int = 0

    @property
    def mode(self) -> AntennaMode:
        return self.deployment.mode


def _client_positions(
    rng: np.random.Generator,
    ap_positions: np.ndarray,
    clients_per_ap: int,
    radius_min_m: float,
    radius_max_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Clients uniformly placed in each AP's service annulus."""
    chunks = []
    owners = []
    for ap_index, ap in enumerate(ap_positions):
        chunks.append(
            geometry.random_point_in_annulus(rng, ap, radius_min_m, radius_max_m, clients_per_ap)
        )
        owners.extend([ap_index] * clients_per_ap)
    return np.vstack(chunks), np.asarray(owners, dtype=int)


def _antennas_for_mode(
    rng: np.random.Generator | None,
    ap_positions: np.ndarray,
    mode: AntennaMode,
    antennas_per_ap: int,
    wavelength_m: float,
    das_radius_min_m: float,
    das_radius_max_m: float,
    min_sector_deg: float,
    min_separation_m: float,
    coverage_radius_m: float = np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    chunks = []
    owners = []
    for ap_index, ap in enumerate(ap_positions):
        if mode is AntennaMode.CAS:
            ants = cas_antenna_layout(ap, antennas_per_ap, wavelength_m)
        else:
            ants = das_antenna_layout(
                rng,
                ap,
                antennas_per_ap,
                radius_min_m=das_radius_min_m,
                radius_max_m=das_radius_max_m,
                min_sector_deg=min_sector_deg,
                min_separation_m=min_separation_m,
                within_center=ap,
                within_radius_m=coverage_radius_m,
            )
        chunks.append(ants)
        owners.extend([ap_index] * antennas_per_ap)
    return np.vstack(chunks), np.asarray(owners, dtype=int)


def paired_scenarios(
    environment: OfficeEnvironment,
    ap_positions,
    *,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    client_radius_fraction: float = 0.9,
    client_radius_min_fraction: float = 0.25,
    das_radius_min_m: float = 5.0,
    das_radius_max_m: float = 10.0,
    min_sector_deg: float = 0.0,
    min_separation_m: float = 0.0,
    name: str = "paired",
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """Build a CAS scenario and a DAS scenario sharing APs and clients.

    ``client_radius_fraction`` / ``client_radius_min_fraction`` scale the
    client annulus to fractions of the environment's CAS coverage range; the
    non-zero inner radius reflects that clients sit in offices and corridors
    away from the AP itself (paper §5.1).

    ``modes`` restricts which stacks are built.  Client and DAS placements
    draw from *independent* spawned generators, so a CAS-only call followed
    by a DAS-only call for the same seed reproduces the full pair bit for
    bit -- batch evaluators use this to defer the (expensive, rejection
    sampled) DAS layout until a topology passes its acceptance gate.
    """
    # Only the leaves draw: CAS layouts are deterministic, so the root never
    # builds a generator, and a CAS-only call never builds the DAS one.
    client_seed, das_seed = rng_mod.spawn_seeds(seed, 2)
    client_rng = rng_mod.make_rng(client_seed)
    das_rng = rng_mod.make_rng(das_seed) if AntennaMode.DAS in modes else None
    aps = geometry.as_points(ap_positions)
    coverage = coverage_range_m(environment.radio, mac.decode_snr_db)
    clients, client_ap = _client_positions(
        client_rng,
        aps,
        clients_per_ap,
        max(2.0, client_radius_min_fraction * coverage),
        client_radius_fraction * coverage,
    )
    scenarios: dict[AntennaMode, Scenario] = {}
    for mode in modes:
        antennas, antenna_ap = _antennas_for_mode(
            das_rng,
            aps,
            mode,
            antennas_per_ap,
            environment.radio.wavelength_m,
            das_radius_min_m,
            das_radius_max_m,
            min_sector_deg,
            min_separation_m,
            coverage_radius_m=coverage,
        )
        deployment = Deployment(
            ap_positions=aps,
            antenna_positions=antennas,
            antenna_ap=antenna_ap,
            client_positions=clients,
            client_ap=client_ap,
            mode=mode,
        )
        scenarios[mode] = Scenario(
            name=f"{name}/{environment.name}/{mode.value}",
            deployment=deployment,
            radio=environment.radio,
            mac=mac,
            seed=seed,
        )
    return scenarios


def single_ap_scenario(
    environment: OfficeEnvironment,
    mode: AntennaMode,
    *,
    n_antennas: int = 4,
    n_clients: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
) -> Scenario:
    """One AP with CAS or DAS antennas and random clients (Figs 3, 7-11, 14)."""
    pair = paired_scenarios(
        environment,
        [(0.0, 0.0)],
        antennas_per_ap=n_antennas,
        clients_per_ap=n_clients,
        seed=seed,
        mac=mac,
        name="single_ap",
    )
    return pair[mode]


def three_ap_scenario(
    environment: OfficeEnvironment,
    *,
    inter_ap_m: float = 15.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """Three APs in an equilateral triangle with ~15 m sides (§5.1, §5.3.1).

    APs are close enough to overhear each other in CAS mode (experiments
    enforce it per-topology with
    :meth:`repro.sim.batch.RoundBasedEvaluatorBatch.mutual_overhear_mask`);
    DAS placements use the
    paper's §7 guidance of 50-75% of the coverage range and obey the
    60-degree sector rule of §5.3.1 so antennas do not cluster on the far
    side of the other APs.
    """
    height = inter_ap_m * np.sqrt(3.0) / 2.0
    aps = [
        (0.0, 0.0),
        (inter_ap_m, 0.0),
        (inter_ap_m / 2.0, height),
    ]
    coverage = coverage_range_m(environment.radio, mac.decode_snr_db)
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seed=seed,
        mac=mac,
        client_radius_fraction=0.6,
        das_radius_min_m=0.5 * coverage,
        das_radius_max_m=0.75 * coverage,
        min_sector_deg=60.0,
        name="three_ap",
        modes=modes,
    )


def eight_ap_scenario(
    environment: OfficeEnvironment,
    *,
    region_m: float = 60.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    max_overhearers: int = 3,
    max_attempts: int = 5_000,
) -> dict[AntennaMode, Scenario]:
    """Eight APs in a 60 x 60 m region (Fig 16's large-scale simulation).

    Paper rules enforced here: no CAS AP overhears more than
    ``max_overhearers`` other APs (median carrier-sense range), DAS antennas
    stay inside the original AP coverage area, and no two antennas of an AP
    are within 5 m of each other.
    """
    sense_range = cs_range_m(environment.radio, mac)
    placement_rng, scenario_rng = rng_mod.spawn(seed, 2)
    aps = None
    for _ in range(max_attempts):
        candidate = geometry.random_point_in_rect(
            placement_rng, (5.0, region_m - 5.0), (5.0, region_m - 5.0), 8
        )
        dists = geometry.pairwise_distances(candidate, candidate)
        np.fill_diagonal(dists, np.inf)
        if dists.min() < 8.0:
            continue
        overhearers = np.sum(dists < sense_range, axis=1)
        if np.all(overhearers <= max_overhearers):
            aps = candidate
            break
    if aps is None:
        raise RuntimeError("could not place 8 APs satisfying the overhearing rule")
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seed=int(scenario_rng.integers(0, 2**31 - 1)),
        mac=mac,
        client_radius_fraction=0.55,
        das_radius_min_m=5.0,
        das_radius_max_m=10.0,
        min_separation_m=5.0,
        name="eight_ap",
    )


def grid_region_scenario(
    environment: OfficeEnvironment,
    *,
    n_rows: int = 3,
    n_cols: int = 3,
    spacing_m: float = 20.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """``n_rows x n_cols`` APs on a regular grid -- the planned-deployment
    region scaling of Fig 16's random 8-AP area.

    Enterprise WLANs place APs on a grid at a fixed inter-AP pitch; this
    family scales the paper's dense-deployment story to arbitrarily large
    regions (the batched round evaluator's target regime).  DAS antennas
    follow the Fig 16 rules: a 5-10 m annulus with 5 m mutual separation.
    """
    if n_rows < 1 or n_cols < 1 or spacing_m <= 0:
        raise ValueError("need positive grid dimensions and spacing")
    aps = [
        (col * spacing_m, row * spacing_m)
        for row in range(n_rows)
        for col in range(n_cols)
    ]
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seed=seed,
        mac=mac,
        client_radius_fraction=0.55,
        das_radius_min_m=5.0,
        das_radius_max_m=10.0,
        min_separation_m=5.0,
        name=f"grid_{n_rows}x{n_cols}",
        modes=modes,
    )


def campus_scenario(
    environment: OfficeEnvironment,
    *,
    n_rows: int = 5,
    n_cols: int = 5,
    spacing_m: float = 25.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 8,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """A campus-scale AP grid with cell-edge clients -- the roaming regime.

    Like :func:`grid_region_scenario` but sized for association studies:
    a wider AP pitch and a client annulus pushed out to 70% of the coverage
    range, so many clients sit near cell boundaries where a small position
    change (mobility) flips which AP is strongest.  The default 5x5 grid
    with 8 clients per AP gives tens of APs and hundreds of antennas and
    clients -- the scale the association/coordination layer targets.
    """
    if n_rows < 1 or n_cols < 1 or spacing_m <= 0:
        raise ValueError("need positive grid dimensions and spacing")
    aps = [
        (col * spacing_m, row * spacing_m)
        for row in range(n_rows)
        for col in range(n_cols)
    ]
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seed=seed,
        mac=mac,
        client_radius_fraction=0.7,
        client_radius_min_fraction=0.35,
        das_radius_min_m=5.0,
        das_radius_max_m=10.0,
        min_separation_m=5.0,
        name=f"campus_{n_rows}x{n_cols}",
        modes=modes,
    )


def dense_office_scenario(
    environment: OfficeEnvironment,
    *,
    n_aps: int = 2,
    inter_ap_m: float = 15.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 12,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """A row of APs each loaded with many clients (a crowded open-plan
    office or lecture hall).

    With ``clients_per_ap`` well above the antenna count, only a fraction
    of the backlog is served per MU-MIMO round, which stresses exactly the
    mechanisms the round evaluator models: virtual-tag filtering and the
    DRR fairness settlement (including the waiting credit of blocked APs).
    """
    if n_aps < 1 or inter_ap_m <= 0:
        raise ValueError("need at least one AP and a positive spacing")
    aps = [(index * inter_ap_m, 0.0) for index in range(n_aps)]
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seed=seed,
        mac=mac,
        client_radius_fraction=0.6,
        name=f"dense_office_{n_aps}ap",
        modes=modes,
    )


def hidden_terminal_scenario(
    environment: OfficeEnvironment,
    *,
    antennas_per_ap: int = 4,
    seed: int = 0,
    mac: MacConfig = DEFAULT_MAC,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """Two APs beyond mutual carrier-sense range but with overlapping
    interference regions (§5.3.4).

    DAS antennas are placed at 50-75% of the CAS transmission range around
    each AP, as the paper specifies for this experiment.
    """
    sense_range = cs_range_m(environment.radio, mac)
    coverage = coverage_range_m(environment.radio, mac.decode_snr_db)
    # Past median CS range (no overhearing) but well inside 2x coverage so the
    # middle of the corridor decodes both APs.
    inter_ap = max(1.15 * sense_range, 1.6 * coverage)
    aps = [(0.0, 0.0), (inter_ap, 0.0)]
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=2,
        seed=seed,
        mac=mac,
        client_radius_fraction=0.5,
        das_radius_min_m=0.50 * coverage,
        das_radius_max_m=0.75 * coverage,
        name="hidden_terminal",
        modes=modes,
    )
