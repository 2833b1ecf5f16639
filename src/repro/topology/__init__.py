"""Topology substrate: geometry, CAS/DAS deployments, paper scenarios."""

from .deployment import AntennaMode, Deployment, cas_antenna_layout, das_antenna_layout
from .geometry import (
    grid_points,
    min_pairwise_distance,
    pairwise_distances,
    sector_angles_ok,
)
from .scenarios import (
    OfficeEnvironment,
    Scenario,
    campus_scenario,
    eight_ap_scenario,
    hidden_terminal_scenario,
    office_a,
    office_b,
    single_ap_scenario,
    three_ap_scenario,
)

__all__ = [
    "AntennaMode",
    "Deployment",
    "cas_antenna_layout",
    "das_antenna_layout",
    "grid_points",
    "min_pairwise_distance",
    "pairwise_distances",
    "sector_angles_ok",
    "OfficeEnvironment",
    "Scenario",
    "campus_scenario",
    "eight_ap_scenario",
    "hidden_terminal_scenario",
    "office_a",
    "office_b",
    "single_ap_scenario",
    "three_ap_scenario",
]
