"""Configuration dataclasses holding every calibration constant in one place.

The paper evaluates on WARP hardware in two offices; our substrate is a
calibrated simulation, and these dataclasses are the calibration surface.
Experiments construct (or accept) these configs so that every number that
could move a result is explicit, documented and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import units


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer and propagation constants.

    Defaults model an 802.11ac AP in the 5 GHz band on a 20 MHz channel with
    one power amplifier per antenna (the per-antenna constraint of paper
    eq. 3).  Path-loss exponents and shadowing follow common indoor-office
    values; Office A (enterprise) vs Office B (crowded lab) in the paper are
    modelled by the two named presets in :mod:`repro.topology.scenarios`.
    """

    carrier_hz: float = 5.25e9
    bandwidth_hz: float = 20e6
    #: Per-antenna transmit power (dBm).  Each antenna has its own PA.
    #: Calibrated to a WARP-like SDR front-end so per-stream SINRs land in
    #: the paper's 5-30 dB operating range.
    per_antenna_power_dbm: float = 8.0
    #: Receiver noise figure (dB).
    noise_figure_db: float = 10.0
    #: Log-distance path-loss exponent (indoor NLOS office, AP/antenna to
    #: desk-level client).
    pathloss_exponent: float = 4.0
    #: Path-loss exponent for antenna-to-antenna *sensing* links.  Mounted
    #: antennas (ceiling height, clear of furniture and bodies) see cleaner
    #: propagation than antenna-to-client links, which is what lets APs
    #: overhear each other across a floor while clients escape each other's
    #: interference (ITU indoor models make the same height distinction).
    sensing_pathloss_exponent: float = 3.3
    #: Reference distance for the log-distance model (m).
    reference_distance_m: float = 1.0
    #: Attenuation per interior wall crossed (dB).  0 disables the wall model
    #: (the default: the NLOS exponent already absorbs average obstruction
    #: loss; the explicit wall grid is available for coverage-map studies).
    wall_loss_db: float = 0.0
    #: Interior wall grid spacing (room size), meters.
    wall_spacing_m: float = 5.0
    #: Wall-count saturation: beyond this many partitions energy arrives via
    #: corridors/diffraction rather than the straight-line path.
    max_wall_count: int = 2
    #: RF coax attenuation per meter feeding each *distributed* antenna
    #: (paper §4: DAS realized with RF coaxial cables).  The cable length is
    #: taken as the antenna's distance from its AP; co-located antennas sit
    #: on the AP so they lose nothing.
    cable_loss_db_per_m: float = 0.4
    #: Log-normal shadowing standard deviation (dB).
    shadowing_sigma_db: float = 9.0
    #: Shadowing decorrelation distance (m) for spatially correlated shadowing.
    shadowing_correlation_m: float = 8.0
    #: Rician K-factor (linear).  0 => pure Rayleigh small-scale fading.
    rician_k: float = 0.0
    #: Doppler spread (Hz) controlling channel coherence time (~0.423/fd).
    doppler_hz: float = 8.0
    #: Azimuth angular spread (degrees) of the scattering seen by a co-located
    #: array.  Indoor offices have limited angular spread (~10-25 deg), which
    #: correlates CAS antennas far more than isotropic (Jakes) scattering
    #: would.  ``None`` selects the isotropic J0 model.
    angular_spread_deg: float | None = 13.0

    @property
    def per_antenna_power_mw(self) -> float:
        """Per-antenna power budget in milliwatts (paper eq. 3's ``P``)."""
        return units.dbm_to_mw(self.per_antenna_power_dbm)

    @property
    def noise_mw(self) -> float:
        """Receiver noise floor in milliwatts over the configured bandwidth."""
        return units.thermal_noise_mw(self.bandwidth_hz, self.noise_figure_db)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength in meters."""
        return units.wavelength(self.carrier_hz)

    @property
    def coherence_time_s(self) -> float:
        """Channel coherence time from the Clarke/Jakes rule of thumb."""
        if self.doppler_hz <= 0:
            return math.inf
        return 0.423 / self.doppler_hz

    def with_(self, **changes) -> "RadioConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MacConfig:
    """802.11 MAC timing and carrier-sensing constants (5 GHz OFDM PHY).

    Timing values are the 802.11a/n/ac 5 GHz numbers.  The carrier-sense
    threshold is a single energy threshold applied to the aggregate received
    power at the sensing antenna; the NAV (virtual carrier sense) additionally
    requires the preamble to be decodable at ``nav_decode_dbm``.
    """

    slot_us: float = 9.0
    sifs_us: float = 16.0
    #: DIFS = SIFS + 2 * slot.  Also MIDAS's opportunistic waiting window.
    difs_us: float = 34.0
    cw_min: int = 15
    cw_max: int = 1023
    #: TXOP duration (microseconds) for one MU-MIMO burst (paper's ``T``).
    txop_us: float = 3008.0
    #: Physical carrier-sense (energy-detect) threshold, dBm.
    cs_threshold_dbm: float = -77.0
    #: Received power needed to decode a preamble and set the NAV, dBm.
    #: Preamble detection is more sensitive than energy detection.
    nav_decode_dbm: float = -80.0
    #: Minimum SNR (dB) for a client to be considered in coverage / decodable.
    decode_snr_db: float = 5.0
    #: Minimum SINR (dB) to decode a preamble when other transmissions are
    #: already in the air (capture effect): a busy medium masks new
    #: preambles, so NAVs are only set on transmitters heard this clearly.
    preamble_capture_db: float = 4.0
    #: Number of preferred antennas each packet is tagged with (paper: 2).
    tag_width: int = 2

    @property
    def cs_threshold_mw(self) -> float:
        """Energy-detect threshold in milliwatts."""
        return units.dbm_to_mw(self.cs_threshold_dbm)

    def with_(self, **changes) -> "MacConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SimConfig:
    """End-to-end simulation controls."""

    #: Simulated duration in seconds (paper runs 10 s bursts).
    duration_s: float = 0.25
    #: Channel re-draw (block fading) interval in seconds.
    coherence_block_s: float = 0.020
    #: Relative CSI error std (0 => perfect CSI at sounding time).
    csi_error_std: float = 0.0
    #: Whether the AP pays NDP sounding + feedback overhead per TXOP.
    sounding_overhead: bool = True

    def with_(self, **changes) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MidasConfig:
    """Bundle of the three config layers, convenient for experiments."""

    radio: RadioConfig = field(default_factory=RadioConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def with_(self, **changes) -> "MidasConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Shared defaults, used wherever an experiment does not override anything.
DEFAULT_RADIO = RadioConfig()
DEFAULT_MAC = MacConfig()
DEFAULT_SIM = SimConfig()
