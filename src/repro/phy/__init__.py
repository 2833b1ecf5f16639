"""PHY abstractions: SINR/capacity math, 802.11ac MCS table, OFDM numerology,
and the MU-MIMO sounding overhead model."""

from .capacity import (
    effective_channel,
    per_antenna_row_power,
    sinr_matrix,
    stream_sinrs,
    sum_capacity_bps_hz,
)
from .mcs import (
    MCS_TABLE,
    McsEntry,
    highest_mcs_for_snr,
    mcs_index_for_snr,
    rate_bps_hz_for_snr,
    rate_bps_hz_for_snr_array,
)
from .sounding import sounding_overhead_us

__all__ = [
    "effective_channel",
    "per_antenna_row_power",
    "sinr_matrix",
    "stream_sinrs",
    "sum_capacity_bps_hz",
    "MCS_TABLE",
    "McsEntry",
    "highest_mcs_for_snr",
    "mcs_index_for_snr",
    "rate_bps_hz_for_snr",
    "rate_bps_hz_for_snr_array",
    "sounding_overhead_us",
]
