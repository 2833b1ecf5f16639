"""The composite channel model: path loss x shadowing x fading, batched.

:class:`ChannelBatch` binds a batch of
:class:`~repro.topology.deployment.Deployment` draws to one
:class:`~repro.config.RadioConfig` and produces

* complex downlink channel matrices ``H`` (the paper's ``h_jk``, client
  ``j`` from antenna ``k``),
* large-scale received-power maps used for carrier sensing, coverage and
  antenna-preference (tagging) decisions, and
* time evolution between coherence blocks.

Large-scale terms (path loss + shadowing) are frozen per topology;
small-scale fading evolves over time as a Gauss-Markov process.  A single
topology is a batch of one.

Deterministic propagation terms -- path loss, wall attenuation, cable loss
-- are computed over the whole ``(batch, n_rx, n_tx)`` stack in single
array expressions; stochastic terms (shadowing lattice nodes, fading
innovations) are drawn from a private seed tree per topology, so every
per-item result is **bit-identical** whatever batch it is computed in.
Only the tree's leaves ever hold a generator: one per antenna site (built
on the site's first lattice draw) and one for fading (built on first
small-scale access, so batches used only for large-scale maps never build
it).  Site grouping and the shadowing lattice pass run over the whole
stack at once, against one lattice node store per batch; only the draws
of fields with missing nodes stay per field.
That equality is the contract every ``Runner`` path relies on (and the
equivalence suite asserts).

Shape convention: batch axes lead, matrix axes trail --

* channel stacks are ``(batch, n_clients, n_antennas)`` complex,
* gain/power maps are ``(batch, n_points, n_antennas)`` dB/dBm.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j0

from .. import rng as rng_mod
from .. import units
from ..config import RadioConfig
from ..topology import geometry
from . import walls
from .fading import _project_psd, correlation_sqrt, sample_fading
from .pathloss import LogDistancePathLoss
from .shadowing import LatticeNodeStore, group_antenna_sites_batch, sample_site_fields


def stacked_correlation(
    antenna_positions: np.ndarray,
    wavelength_m: float,
    angular_spread_deg: float | None,
) -> np.ndarray:
    """Tx-side fading correlation for a ``(batch, n_tx, 2)`` stack of
    antenna layouts, ``(batch, n_tx, n_tx)``, clipped to the PSD cone with
    a stacked ``eigh``; bit-identical per slice.

    With ``angular_spread_deg=None`` scattering is isotropic (Clarke/Jakes):
    entry ``(i, j)`` is ``J0(2 pi d_ij / lambda)``, the *most optimistic*
    decorrelation model for a co-located array.  Otherwise the angular
    spread ``sigma`` gives the Salz-Winters / Gaussian power-azimuth
    approximation ``exp(-2 (pi d sigma / lambda)^2)``: indoor offices (sigma
    ~ 15-30 deg) leave a half-wavelength CAS array correlated around
    0.4-0.75, which is what makes a CAS channel matrix lower rank than a
    DAS one (paper §2), while antennas meters apart decorrelate under any
    spread.
    """
    pts = geometry.as_point_stack(antenna_positions)
    dists = geometry.stacked_pairwise_distances(pts, pts)
    if angular_spread_deg is None:
        corr = j0(2.0 * np.pi * dists / wavelength_m)
    else:
        if angular_spread_deg <= 0:
            raise ValueError("angular_spread_deg must be positive")
        sigma = np.radians(angular_spread_deg)
        corr = np.exp(-2.0 * (np.pi * dists * sigma / wavelength_m) ** 2)
    return _project_psd(corr)


class ChannelBatch:
    """Composite indoor channel for a batch of topologies.

    Parameters
    ----------
    deployment:
        The :class:`~repro.topology.deployment.Deployment` batch; item
        ``i`` is one topology draw.
    radio:
        Radio constants shared by the whole batch (one environment).
    seeds:
        One seed per item: an int, a generator, or a seed-tree node
        (:class:`repro.rng.SeedNode` or :class:`numpy.random.SeedSequence`),
        or a :class:`repro.rng.SeedBatch` with one row per item.  Two
        children are spawned from it -- shadowing (one leaf per antenna
        site under it) and fading -- so the two streams are independent;
        a caller-held generator or node advances its spawn counter by two.
        Item ``i`` consumes randomness only from the tree of ``seeds[i]``.
    """

    def __init__(self, deployment, radio: RadioConfig, seeds):
        seeds = rng_mod.SeedBatch.from_seeds(seeds)
        if len(deployment) != len(seeds):
            raise ValueError("need one seed per deployment item")
        if not seeds:
            raise ValueError("need at least one deployment item")
        self.deployment = deployment
        self.radio = radio
        self.n_items = len(deployment)

        self._pathloss = LogDistancePathLoss.from_radio(radio)
        self._sensing_pathloss = LogDistancePathLoss(
            exponent=radio.sensing_pathloss_exponent,
            reference_distance_m=self._pathloss.reference_distance_m,
            reference_loss_db=self._pathloss.reference_loss_db,
        )

        # Deterministic propagation terms over the whole stack.
        self._antennas = deployment.antenna_positions
        ap_of_antenna = deployment.ap_positions[:, deployment.antenna_ap]
        cable_lengths = np.linalg.norm(self._antennas - ap_of_antenna, axis=-1)
        self._cable_loss_db = radio.cable_loss_db_per_m * cable_lengths

        # Per-item seed trees: a shadowing and a fading child each, and one
        # leaf per antenna site under shadowing, spawned for the whole
        # batch at once.  One store holds every site field's lattice nodes.
        self._site_of_antenna = group_antenna_sites_batch(self._antennas)
        site_counts = self._site_of_antenna.max(axis=1, initial=-1) + 1
        children = seeds.spawn(2)
        self._fading_seeds = children[1::2]
        self._shadowing = LatticeNodeStore(
            children[0::2].spawn(site_counts),
            site_counts,
            radio.shadowing_sigma_db,
            radio.shadowing_correlation_m,
        )

        # The small-scale side -- fading generators, tx-side correlation
        # square roots and the initial fading state -- is materialized
        # lazily on first small-scale access: every item draws from its own
        # independent fading leaf, so deferring the draw cannot change any
        # value, and batches used only for large-scale maps (e.g.
        # carrier-sense gating) never pay for it.
        self._lazy_fading_rngs: list[np.random.Generator] | None = None
        self._lazy_corr_sqrt: np.ndarray | None = None
        self._lazy_state: np.ndarray | None = None
        self._time_s = 0.0

        self._client_gain_db = self.large_scale_gain_db(deployment.client_positions)

    # ------------------------------------------------------------------
    # Large-scale propagation
    # ------------------------------------------------------------------
    def _item_indices(self, items) -> np.ndarray:
        if items is None:
            return np.arange(self.n_items)
        return np.asarray(items, dtype=int)

    def shadowing_db(self, rx_points, items=None) -> np.ndarray:
        """Stacked shadowing ``(batch, n_points, n_antennas)``.

        ``rx_points`` is either one shared ``(n_points, 2)`` set (survey
        grids) or a per-item ``(batch, n_points, 2)`` stack.  One stacked
        lattice pass samples every site field of the selected items (see
        :func:`~repro.channel.shadowing.sample_site_fields`); each field
        draws only its own missing nodes, so the values match sampling the
        items one by one.  A CAS array shares one field per site, so its
        antennas share one draw.  ``items`` restricts evaluation (and the
        draws) to the given item indices; the leading axis then has
        ``len(items)`` entries.
        """
        idx = self._item_indices(items)
        pts = geometry.as_point_stack(rx_points)
        site_values = sample_site_fields(self._shadowing, pts, items=items)
        # Scatter sites to antennas: (items, n_antennas, n_points).
        per_antenna = site_values[np.arange(len(idx))[:, None], self._site_of_antenna[idx]]
        return np.ascontiguousarray(np.swapaxes(per_antenna, 1, 2))

    def large_scale_gain_db(self, rx_points, items=None) -> np.ndarray:
        """Median channel gain (``-PL - walls + shadowing - cable``) in dB
        from every antenna to every receive point,
        ``(batch, n_points, n_antennas)``.  ``items`` restricts the
        computation to an item subset (per-item ``rx_points`` stacks must
        then carry ``len(items)`` entries)."""
        idx = self._item_indices(items)
        antennas = self._antennas[idx]
        pts = geometry.as_point_stack(rx_points)
        dists = geometry.stacked_pairwise_distances(pts, antennas)
        gain = -self._pathloss.loss_db(dists)
        if self.radio.wall_loss_db > 0:
            gain = gain - walls.wall_loss_db(
                pts,
                antennas,
                self.radio.wall_spacing_m,
                self.radio.wall_loss_db,
                max_walls=self.radio.max_wall_count,
            )
        gain += self.shadowing_db(pts, items=items)
        gain -= self._cable_loss_db[idx][:, None, :]
        return gain

    def update_client_positions(self, positions, items=None) -> None:
        """Move clients and re-evaluate their large-scale gains.

        ``positions`` is ``(len(items), n_clients, 2)`` (whole batch when
        ``items`` is ``None``).  The shadowing fields resample at the new
        positions from the lattice node store (spatially consistent with
        everything sampled so far), each item from its own site fields;
        skipped items consume nothing.  The small-scale fading
        state is *not* reset -- it keeps evolving under whatever Doppler
        :meth:`advance` is given: large-scale drift and fading
        decorrelation are separate axes of the same trajectory.
        """
        idx = self._item_indices(items)
        pts = geometry.as_point_stack(positions)
        expected = (len(idx), self.deployment.n_clients, 2)
        if pts.shape != expected:
            raise ValueError(
                f"expected {expected} client positions, got {pts.shape}"
            )
        self._client_gain_db[idx] = self.large_scale_gain_db(pts, items=idx)

    @property
    def cable_loss_db(self) -> np.ndarray:
        """Per-item, per-antenna feed-cable attenuation ``(batch, n_antennas)``;
        distributed antennas hang off coax as long as the antenna-to-AP
        distance, CAS antennas have none."""
        return self._cable_loss_db.copy()

    def client_gain_db(self) -> np.ndarray:
        """Cached client gains ``(batch, n_clients, n_antennas)``."""
        return self._client_gain_db

    def rx_power_dbm(self, rx_points) -> np.ndarray:
        """Stacked large-scale received power (dBm) at ``rx_points``,
        assuming each antenna transmits at the full per-antenna budget."""
        return self.radio.per_antenna_power_dbm + self.large_scale_gain_db(rx_points)

    def antenna_cross_power_dbm(self) -> np.ndarray:
        """Stacked antenna-to-antenna sensing powers
        ``(batch, n_antennas, n_antennas)``: received power at antenna
        *row* when antenna *column* transmits, used for inter-antenna
        carrier sensing.

        Sensing links use the cleaner elevated-path exponent (antennas are
        mounted above desks and bodies).  The cable loss applies twice --
        once on the transmitter's feed, once on the sensing antenna's way
        back to its AP's receiver.  The diagonal is +inf dBm: an antenna
        certainly senses its own transmission.  Shadowing toward the
        antenna locations is drawn *after* the client gains cached at
        construction.
        """
        pts = self._antennas
        dists = geometry.stacked_pairwise_distances(pts, pts)
        gain = -self._sensing_pathloss.loss_db(dists)
        if self.radio.wall_loss_db > 0:
            gain -= walls.wall_loss_db(
                pts,
                pts,
                self.radio.wall_spacing_m,
                self.radio.wall_loss_db,
                max_walls=self.radio.max_wall_count,
            )
        gain += self.shadowing_db(pts)
        gain -= self._cable_loss_db[:, None, :]  # transmitter's feed
        gain -= self._cable_loss_db[:, :, None]  # sensing antenna's own feed
        power = self.radio.per_antenna_power_dbm + gain
        eye = np.eye(power.shape[-1], dtype=bool)
        power[:, eye] = np.inf
        return power

    def client_rx_power_dbm(self) -> np.ndarray:
        """Stacked large-scale client RSSI (dBm), from the cached gains.

        This is the "average received signal strength" the MIDAS AP uses to
        build antenna preference lists for virtual packet tagging (§3.2.4).
        """
        return self.radio.per_antenna_power_dbm + self._client_gain_db

    def snr_db_map(self, rx_points=None) -> np.ndarray:
        """Stacked large-scale SNR (dB); defaults to the client positions
        (via the cached gains; lattice nodes are cached, so resampling the
        same points would give the same values)."""
        noise_dbm = units.mw_to_dbm(self.radio.noise_mw)
        if rx_points is None:
            return self.client_rx_power_dbm() - noise_dbm
        return self.rx_power_dbm(rx_points) - noise_dbm

    # ------------------------------------------------------------------
    # Small-scale channel
    # ------------------------------------------------------------------
    @property
    def time_s(self) -> float:
        """Current simulation time of the batch's fading processes."""
        return self._time_s

    @property
    def _fading_rngs(self) -> list[np.random.Generator]:
        if self._lazy_fading_rngs is None:
            self._lazy_fading_rngs = rng_mod.make_rngs(self._fading_seeds)
        return self._lazy_fading_rngs

    @property
    def _corr_sqrt(self) -> np.ndarray:
        if self._lazy_corr_sqrt is None:
            self._lazy_corr_sqrt = correlation_sqrt(
                stacked_correlation(
                    self._antennas, self.radio.wavelength_m, self.radio.angular_spread_deg
                )
            )
        return self._lazy_corr_sqrt

    def _innovation(self, items=None) -> np.ndarray:
        n_clients = self.deployment.n_clients
        n_antennas = self.deployment.n_antennas
        rngs = (
            self._fading_rngs
            if items is None
            else [self._fading_rngs[i] for i in items]
        )
        white = np.stack(
            [
                sample_fading(rng, n_clients, n_antennas, self.radio.rician_k)
                for rng in rngs
            ]
        )
        corr = self._corr_sqrt if items is None else self._corr_sqrt[items]
        return white @ np.swapaxes(corr, -1, -2)

    @property
    def _state(self) -> np.ndarray:
        if self._lazy_state is None:
            self._lazy_state = self._innovation()
        return self._lazy_state

    def channel_matrices(self):
        """Instantaneous stacked host ``H`` of shape
        ``(batch, n_clients, n_antennas)``.

        Assembly always happens in NumPy -- the stochastic stacks are drawn
        from the per-item generator trees (the :mod:`repro.xp` RNG
        contract), so the seed streams are identical on every backend.
        """
        amplitude = np.sqrt(units.db_to_linear(np.asarray(self._client_gain_db)))
        return amplitude * self._state

    def advance(self, dt_s: float, items=None, doppler_hz=None) -> None:
        """Advance fading by ``dt_s`` seconds.

        ``items`` restricts the update to the given item indices (each item
        draws from its own generator, so skipping the others never perturbs
        them); the skipped items' states simply stay at their last value.
        Note that :attr:`time_s` is the clock of the *advanced* items --
        after masked advances it does not describe the skipped items'
        (stale) fading states.

        ``doppler_hz`` optionally supplies per-item, per-client Doppler
        spreads of shape ``(len(items), n_clients)`` (mobility-derived
        speeds), replacing the global :attr:`RadioConfig.doppler_hz`.  The
        per-client path always draws one innovation per advanced item --
        ``rho = 1`` rows keep their state exactly -- so each generator
        stream advances identically however the speeds are distributed.

        The update is the Gauss-Markov step
        ``G <- rho * G + sqrt(1 - rho^2) * (W @ Rsqrt.T)`` with
        ``rho = J0(2 pi fd dt)`` and ``W`` i.i.d. CN(0, 1), which preserves
        both the marginal distribution and the tx-side spatial correlation.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if doppler_hz is None:
            if dt_s == 0 or self.radio.doppler_hz == 0:
                self._time_s += dt_s
                return
            rho = float(j0(2.0 * np.pi * self.radio.doppler_hz * dt_s))
            rho = float(np.clip(rho, -1.0, 1.0))
            scale = np.sqrt(max(0.0, 1.0 - rho * rho))
            state = self._state  # materialize the initial draw first
            if items is None:
                self._lazy_state = rho * state + scale * self._innovation()
            else:
                items = np.asarray(items, dtype=int)
                state[items] = rho * state[items] + scale * self._innovation(items)
            self._time_s += dt_s
            return
        idx = self._item_indices(items)
        n_clients = self.deployment.n_clients
        fd = np.broadcast_to(
            np.asarray(doppler_hz, dtype=float), (len(idx), n_clients)
        )
        if np.any(fd < 0):
            raise ValueError("doppler_hz must be non-negative")
        if dt_s == 0:
            self._time_s += dt_s
            return
        rho = np.clip(j0(2.0 * np.pi * fd * dt_s), -1.0, 1.0)
        scale = np.sqrt(np.maximum(0.0, 1.0 - rho * rho))
        state = self._state  # materialize the initial draw first
        innovation = self._innovation(None if items is None else idx)
        if items is None:
            self._lazy_state = rho[..., None] * state + scale[..., None] * innovation
        else:
            state[idx] = rho[..., None] * state[idx] + scale[..., None] * innovation
        self._time_s += dt_s


def apply_csi_error(
    h: np.ndarray, error_std: float, rng: np.random.Generator | None
) -> np.ndarray:
    """Return a noisy CSI estimate ``H + e`` with per-entry complex Gaussian
    error of standard deviation ``error_std * |H|`` (relative error).

    Models imperfect sounding/feedback; 0 returns ``h`` unchanged without
    touching ``rng`` (which may then be ``None``).
    """
    if error_std < 0:
        raise ValueError("error_std must be non-negative")
    if error_std == 0.0:
        return h
    noise = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) / np.sqrt(2.0)
    return h + error_std * np.abs(h) * noise
