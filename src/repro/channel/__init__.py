"""Indoor RF channel substrate.

Replaces the paper's physical offices: log-distance path loss, log-normal
(spatially smooth) shadowing whose lattice nodes live in one store per
batch, correlated Rayleigh/Rician block fading with Gauss-Markov time
evolution.
"""

from .batch import ChannelBatch, apply_csi_error, stacked_correlation
from .fading import sample_fading
from .pathloss import LogDistancePathLoss, coverage_range_m, cs_range_m
from .shadowing import group_antenna_sites

__all__ = [
    "ChannelBatch",
    "apply_csi_error",
    "stacked_correlation",
    "sample_fading",
    "LogDistancePathLoss",
    "coverage_range_m",
    "cs_range_m",
    "group_antenna_sites",
]
