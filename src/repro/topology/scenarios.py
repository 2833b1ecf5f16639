"""Scenario factories reproducing the paper's evaluation setups (§5).

Each factory takes a sequence of ``seeds`` and returns one batched
:class:`Scenario` -- a deployment batch bound to the radio constants of one
office environment, one item per seed -- or a CAS/DAS *pair* of them
sharing identical AP and client positions so comparisons are paired,
exactly as in the paper ("the CAS antenna positions are fixed while DAS
antennas and clients are randomly deployed", §5.2.1).

Environments
------------
* **Office A** -- enterprise office: path-loss exponent 3.5, shadowing 4 dB.
* **Office B** -- crowded graduate lab: exponent 4.0, shadowing 6 dB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    """A batch of deployments bound to their environment and MAC constants.

    ``seeds`` holds, per item, the seed its paired synthesis drew from (for
    :func:`eight_ap_scenario` a drawn int, not the topology seed).  A single
    topology is a batch of one.
    """

    deployment: Deployment
    radio: RadioConfig
    seeds: tuple
    mac: MacConfig = field(default_factory=MacConfig)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if len(self.seeds) != len(self.deployment):
            raise ValueError("need one seed per deployment item")

    def __len__(self) -> int:
        """Number of topologies in the batch."""
        return len(self.deployment)

    def take(self, items) -> Scenario:
        """The batch of items ``items`` (in that order, repeats allowed)."""
        items = np.asarray(items, dtype=int)
        return replace(
            self,
            deployment=self.deployment.take(items),
            seeds=[self.seeds[i] for i in items.tolist()],
        )

    @property
    def mode(self) -> AntennaMode:
        return self.deployment.mode


def paired_scenarios(
    environment: OfficeEnvironment,
    ap_positions,
    *,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seeds,
    client_radius_fraction: float = 0.9,
    client_radius_min_fraction: float = 0.25,
    das_radius_min_m: float = 5.0,
    das_radius_max_m: float = 10.0,
    min_sector_deg: float = 0.0,
    min_separation_m: float = 0.0,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """Build a CAS and a DAS scenario sharing APs and clients, one item per
    seed.

    ``ap_positions`` is one ``(n_aps, 2)`` set shared by every item or a
    ``(batch, n_aps, 2)`` stack.  ``client_radius_fraction`` /
    ``client_radius_min_fraction`` scale the client annulus to fractions of
    the environment's CAS coverage range; the non-zero inner radius
    reflects that clients sit in offices and corridors away from the AP
    itself (paper §5.1).

    Item ``i`` draws only from the tree of ``seeds[i]``, so it is the same
    whatever batch it is built in.  ``modes`` restricts which stacks are
    built.  Client and DAS placements draw from *independent* spawned
    generators, so a CAS-only call followed by a DAS-only call for the same
    seeds reproduces the full pair bit for bit -- batch evaluators use this
    to defer the (expensive, rejection sampled) DAS layout until a topology
    passes its acceptance gate.
    """
    seeds = tuple(seeds)
    aps = geometry.as_point_stack(ap_positions)
    aps = np.broadcast_to(aps, (len(seeds),) + aps.shape[-2:])
    n_aps = aps.shape[1]
    coverage = coverage_range_m(environment.radio, DEFAULT_MAC.decode_snr_db)
    client_radii = (
        max(2.0, client_radius_min_fraction * coverage),
        client_radius_fraction * coverage,
    )
    # Only the leaves draw: CAS layouts are deterministic, so the root
    # never builds a generator, and a CAS-only call never builds the DAS
    # one.  Each client leaf draws one radius row and one angle row per AP.
    leaves = [rng_mod.spawn_seeds(seed, 2) for seed in seeds]
    draws = np.empty((len(seeds), n_aps, 2, clients_per_ap))
    for item, client_rng in enumerate(rng_mod.make_rngs([c for c, _ in leaves])):
        client_rng.random(out=draws[item])
    clients = geometry.annulus_points(draws, aps, *client_radii)
    das = None
    if AntennaMode.DAS in modes:
        das = np.empty((len(seeds), n_aps, antennas_per_ap, 2))
        for item, das_rng in enumerate(rng_mod.make_rngs([d for _, d in leaves])):
            das[item] = das_antenna_layout(
                das_rng,
                aps[item],
                antennas_per_ap,
                radius_min_m=das_radius_min_m,
                radius_max_m=das_radius_max_m,
                min_sector_deg=min_sector_deg,
                min_separation_m=min_separation_m,
                within_radius_m=coverage,
            )
    return {
        mode: Scenario(
            Deployment(
                ap_positions=aps,
                antenna_positions=(
                    cas_antenna_layout(aps, antennas_per_ap, environment.radio.wavelength_m)
                    if mode is AntennaMode.CAS
                    else das
                ).reshape(len(seeds), n_aps * antennas_per_ap, 2),
                antenna_ap=np.repeat(np.arange(n_aps), antennas_per_ap),
                client_positions=clients.reshape(len(seeds), n_aps * clients_per_ap, 2),
                client_ap=np.repeat(np.arange(n_aps), clients_per_ap),
                mode=mode,
            ),
            environment.radio,
            seeds,
        )
        for mode in modes
    }


def single_ap_scenario(
    environment: OfficeEnvironment,
    mode: AntennaMode,
    *,
    n_antennas: int = 4,
    n_clients: int = 4,
    seeds,
) -> Scenario:
    """One AP with CAS or DAS antennas and random clients (Figs 3, 7-11, 14)."""
    return paired_scenarios(
        environment,
        [(0.0, 0.0)],
        antennas_per_ap=n_antennas,
        clients_per_ap=n_clients,
        seeds=seeds,
        modes=(mode,),
    )[mode]


def three_ap_scenario(
    environment: OfficeEnvironment,
    *,
    inter_ap_m: float = 15.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seeds,
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
    coverage = coverage_range_m(environment.radio, DEFAULT_MAC.decode_snr_db)
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seeds=seeds,
        client_radius_fraction=0.6,
        das_radius_min_m=0.5 * coverage,
        das_radius_max_m=0.75 * coverage,
        min_sector_deg=60.0,
        modes=modes,
    )


def _place_eight_aps(
    rng: np.random.Generator,
    region_m: float,
    sense_range_m: float,
    max_overhearers: int,
    max_attempts: int,
) -> np.ndarray | None:
    """Rejection-sample 8 AP positions at least 8 m apart, none overhearing
    more than ``max_overhearers`` others; ``None`` if every attempt fails.

    An attempt is 16 doubles of ``rng`` (8 x, then 8 y draws); attempts
    are drawn and checked in growing blocks, and the first passing one
    wins.  ``rng`` must draw nothing else: the tail of the block is
    consumed.
    """
    side = (5.0, region_m - 5.0)
    tried, block = 0, 1
    while tried < max_attempts:
        block = min(block, max_attempts - tried)
        candidates = geometry.rect_points(rng.random((block, 2, 8)), side, side)
        dists = geometry.stacked_pairwise_distances(candidates, candidates)
        dists[:, np.arange(8), np.arange(8)] = np.inf
        ok = (dists.min(axis=(1, 2)) >= 8.0) & np.all(
            np.sum(dists < sense_range_m, axis=2) <= max_overhearers, axis=1
        )
        hits = np.flatnonzero(ok)
        if hits.size:
            return candidates[hits[0]]
        tried += block
        block *= 8
    return None


def _eight_ap_placements(
    environment: OfficeEnvironment,
    seeds,
    region_m: float,
    max_overhearers: int,
    max_attempts: int,
) -> list[np.ndarray | None]:
    """Per seed, its 8-AP placement (``None`` when every attempt fails).

    Each seed's placement draws only from the first leaf of its tree, so
    the verdicts are the same whatever batch they are computed in.
    """
    sense_range = cs_range_m(environment.radio, DEFAULT_MAC)
    rngs = rng_mod.make_rngs([rng_mod.spawn_seeds(seed, 2)[0] for seed in seeds])
    return [
        _place_eight_aps(rng, region_m, sense_range, max_overhearers, max_attempts)
        for rng in rngs
    ]


def eight_ap_placed(
    environment: OfficeEnvironment,
    *,
    seeds,
    region_m: float = 60.0,
    max_overhearers: int = 3,
    max_attempts: int = 5_000,
) -> np.ndarray:
    """``(len(seeds),)`` bool: which seeds :func:`eight_ap_scenario` can
    place (Fig 16's acceptance gate); draws nothing but the placements."""
    placements = _eight_ap_placements(
        environment, seeds, region_m, max_overhearers, max_attempts
    )
    return np.array([aps is not None for aps in placements], dtype=bool)


def eight_ap_scenario(
    environment: OfficeEnvironment,
    *,
    region_m: float = 60.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 4,
    seeds,
    max_overhearers: int = 3,
    max_attempts: int = 5_000,
) -> tuple[np.ndarray, dict[AntennaMode, Scenario]]:
    """Eight APs in a 60 x 60 m region (Fig 16's large-scale simulation).

    Paper rules enforced here: no CAS AP overhears more than
    ``max_overhearers`` other APs (median carrier-sense range), DAS antennas
    stay inside the original AP coverage area, and no two antennas of an AP
    are within 5 m of each other.

    Returns ``(placed, pair)``: ``placed`` is a ``(len(seeds),)`` bool mask
    of the seeds whose AP placement succeeded within ``max_attempts`` (what
    :func:`eight_ap_placed` returns), and ``pair`` holds those items only,
    in seed order.  A rejected seed draws nothing more and leaves every
    other item unchanged.  Each placed item's ``Scenario.seeds`` entry is
    the int its placement tree drew for the paired synthesis.
    """
    placements = _eight_ap_placements(
        environment, seeds, region_m, max_overhearers, max_attempts
    )
    placed = np.array([aps is not None for aps in placements], dtype=bool)
    scenario_rngs = rng_mod.make_rngs(
        [rng_mod.spawn_seeds(seed, 2)[1] for seed, ok in zip(seeds, placed) if ok]
    )
    return placed, paired_scenarios(
        environment,
        np.reshape([aps for aps in placements if aps is not None], (-1, 8, 2)),
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=clients_per_ap,
        seeds=[int(rng.integers(0, 2**31 - 1)) for rng in scenario_rngs],
        client_radius_fraction=0.55,
        das_radius_min_m=5.0,
        das_radius_max_m=10.0,
        min_separation_m=5.0,
    )


def campus_scenario(
    environment: OfficeEnvironment,
    *,
    n_rows: int = 5,
    n_cols: int = 5,
    spacing_m: float = 25.0,
    antennas_per_ap: int = 4,
    clients_per_ap: int = 8,
    seeds,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """A campus-scale AP grid with cell-edge clients -- the roaming regime.

    APs sit on a regular ``n_rows x n_cols`` grid at ``spacing_m``, and the
    client annulus is pushed out to 70% of the coverage range, so many
    clients sit near cell boundaries where a small position change
    (mobility) flips which AP is strongest.  DAS antennas follow the Fig 16
    rules: a 5-10 m annulus with 5 m mutual separation.  The default 5x5
    grid with 8 clients per AP gives tens of APs and hundreds of antennas
    and clients -- the scale the association/coordination layer targets.
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
        seeds=seeds,
        client_radius_fraction=0.7,
        client_radius_min_fraction=0.35,
        das_radius_min_m=5.0,
        das_radius_max_m=10.0,
        min_separation_m=5.0,
        modes=modes,
    )


def hidden_terminal_scenario(
    environment: OfficeEnvironment,
    *,
    antennas_per_ap: int = 4,
    seeds,
    modes: tuple[AntennaMode, ...] = (AntennaMode.CAS, AntennaMode.DAS),
) -> dict[AntennaMode, Scenario]:
    """Two APs beyond mutual carrier-sense range but with overlapping
    interference regions (§5.3.4).

    DAS antennas are placed at 50-75% of the CAS transmission range around
    each AP, as the paper specifies for this experiment.
    """
    sense_range = cs_range_m(environment.radio, DEFAULT_MAC)
    coverage = coverage_range_m(environment.radio, DEFAULT_MAC.decode_snr_db)
    # Past median CS range (no overhearing) but well inside 2x coverage so the
    # middle of the corridor decodes both APs.
    inter_ap = max(1.15 * sense_range, 1.6 * coverage)
    aps = [(0.0, 0.0), (inter_ap, 0.0)]
    return paired_scenarios(
        environment,
        aps,
        antennas_per_ap=antennas_per_ap,
        clients_per_ap=2,
        seeds=seeds,
        client_radius_fraction=0.5,
        das_radius_min_m=0.50 * coverage,
        das_radius_max_m=0.75 * coverage,
        modes=modes,
    )
