"""End-to-end network simulation (Figs 12, 14, 15, 16 substrate).

Assembles topology + channel + MAC + precoding and plays out a downlink,
full-buffer network for a configured duration:

* **CAS mode** -- the paper's baseline: each AP is one CSMA/CA contender
  with a single channel state (any antenna busy => AP busy), transmits
  ``n_antennas``-stream MU-MIMO with the naive globally-scaled ZFBF
  precoder, and picks clients by plain deficit round-robin.
* **MIDAS mode** -- each *antenna* contends independently with its own NAV
  and physical carrier sense; a winning antenna opportunistically gathers
  sibling antennas whose medium frees within one DIFS (§3.2.3), clients are
  filtered by virtual packet tags and picked per antenna by DRR (§3.2.4-5),
  and the burst is precoded with the power-balanced ZFBF (§3.1.2).

SINRs are evaluated post-hoc with interference weighted by TXOP overlap
(see :mod:`repro.sim.radio_state`), then converted to Shannon capacity as
the paper does (§5.1).

The engine runs on a batch of one and shares its state and stages with
the round engine through :class:`repro.sim.batch._EngineCore`: set-up (a
one-item :class:`~repro.channel.batch.ChannelBatch`,
:class:`~repro.sim.batch.CarrierSenseBatch`, traffic, mobility,
association, per-AP DRR counters and CSI-noise generator), eligibility
with the coordinated-scheduling veto (cut off at the contention
decision's time), the mode's precoder on ``h[None]``, re-sounding, and
mobility plus channel advance.  Clients are picked by
:func:`~repro.core.selection.pick_in_visit_order` on ``(1, n_clients)``
masks.  What stays its own: the five-child seed tree (channel, MAC, CSI,
traffic, mobility), per-antenna contention with backoff, the
:class:`~repro.mac.nav.NavTable`, the event queue, the wall-clock
re-sounding interval and the overlap-weighted SINRs of :meth:`_tx_sinrs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import rng as rng_mod
from ..channel.batch import apply_csi_error
from ..config import MacConfig, SimConfig
from ..core.selection import pick_in_visit_order
from ..mac.backoff import BackoffState
from ..mac.frames import txop_durations
from ..mac.nav import NavTable
from ..obs import active as _obs
from ..topology.scenarios import Scenario
from ..traffic import TrafficSummary
from . import EventQueue
from .batch import MacMode, _EngineCore
from .radio_state import ActiveTransmission, TransmissionLog


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one network run."""

    duration_s: float
    per_client_bits_per_hz: np.ndarray  # delivered bits normalized by bandwidth
    txop_count: int
    stream_count: int
    mean_concurrent_streams: float
    collision_fraction: float  # TXOPs whose interference degraded any stream > 3 dB
    #: Queueing outcome under finite load; ``None`` for full-buffer runs.
    traffic: TrafficSummary | None = None

    @property
    def network_capacity_bps_hz(self) -> float:
        """Time-averaged network spectral efficiency (the paper's metric)."""
        return float(self.per_client_bits_per_hz.sum() / self.duration_s)


@dataclass
class _Contender:
    """One CSMA/CA contention entity (an AP in CAS, an antenna in MIDAS)."""

    ap: int
    antennas: np.ndarray  # antennas whose state this contender senses
    backoff: BackoffState
    in_txop_until_us: float = 0.0
    scheduled: bool = field(default=False)


class NetworkSimulation(_EngineCore):
    """Event-driven downlink simulation of one topology: a batched
    :class:`~repro.topology.scenarios.Scenario` of one item.

    ``traffic_kwargs``, ``mobility_kwargs``, ``association`` and
    ``association_kwargs`` are each one value or a per-item list of one
    (:func:`repro.assoc.state.one_per_item`), as in the round engine.
    """

    def __init__(
        self,
        scenario: Scenario,
        mode: MacMode,
        sim: SimConfig | None = None,
        seed: int | None = 0,
        traffic=None,
        traffic_kwargs=None,
        mobility=None,
        mobility_kwargs=None,
        resound_interval_s: float | None = None,
        association=None,
        association_kwargs=None,
        coordination=None,
    ):
        if len(scenario) != 1:
            raise ValueError("NetworkSimulation runs a batch of one scenario item")
        if resound_interval_s is not None and resound_interval_s <= 0:
            raise ValueError("resound_interval_s must be positive (or None)")
        # Five children are always spawned so enabling traffic/mobility
        # never perturbs the channel/MAC/CSI streams (spawn(5)[:3] == spawn(3)).
        channel_seed, mac_seed, csi_seed, traffic_seed, mobility_seed = (
            rng_mod.spawn_seeds(seed, 5)
        )
        super().__init__(
            scenario, mode, sim, [channel_seed], [csi_seed], [traffic_seed],
            [mobility_seed], traffic, traffic_kwargs, mobility, mobility_kwargs,
            association, association_kwargs, coordination,
        )
        self.mac: MacConfig = scenario.mac
        self.deployment = scenario.deployment
        #: Mobility CSI staleness: with an interval, TXOPs between
        #: re-soundings precode from the snapshot captured at the last
        #: sounding (and skip the per-TXOP sounding airtime); ``None``
        #: keeps the historical sound-every-TXOP behavior.
        self._resound_interval_us = (
            None if resound_interval_s is None else resound_interval_s * 1e6
        )
        self._h_csi: np.ndarray | None = None
        self._last_resound_us = -np.inf
        #: Count of soundings whose triggering TXOPs aborted (no free
        #: antennas / no tagged backlog): they happened on the air but were
        #: not paid for yet; subsequent transmitting TXOPs charge them one
        #: at a time.
        self._sounding_unpaid = 0
        self.nav = NavTable(self.deployment.n_antennas)
        self.queue = EventQueue()
        self.log = TransmissionLog()

        contender_rngs = rng_mod.spawn(mac_seed, self.deployment.n_aps * 8)
        self._contenders: list[_Contender] = []
        rng_idx = 0
        for ap in range(self.deployment.n_aps):
            antennas = self.deployment.antennas_of(ap)
            if mode is MacMode.CAS:
                self._contenders.append(
                    _Contender(ap, antennas, BackoffState(self.mac, contender_rngs[rng_idx]))
                )
                rng_idx += 1
            else:
                for antenna in antennas:
                    self._contenders.append(
                        _Contender(
                            ap,
                            np.asarray([antenna]),
                            BackoffState(self.mac, contender_rngs[rng_idx]),
                        )
                    )
                    rng_idx += 1

        self._last_channel_advance_us = 0.0
        self._txop_count = 0
        self._stream_count = 0

    # ------------------------------------------------------------------
    # Medium state queries
    # ------------------------------------------------------------------
    def _tx_mask(self, antennas) -> np.ndarray:
        """One-item ``(1, n_antennas)`` transmitter mask for carrier sense."""
        mask = np.zeros((1, self.deployment.n_antennas), dtype=bool)
        mask[0, np.asarray(antennas, dtype=int)] = True
        return mask

    def _medium_busy(self, contender: _Contender, now_us: float) -> bool:
        """Physical or virtual carrier sense verdict for the contender."""
        if any(not self.nav.is_clear(a, now_us) for a in contender.antennas):
            return True
        transmitting = self._tx_mask(self.log.transmitting_antennas())
        sensed = self.carrier_sense.sensed_power_mw(
            transmitting, listeners=contender.antennas
        )
        return bool(np.any(sensed >= self.mac.cs_threshold_mw))

    def _busy_until(self, contender: _Contender, now_us: float) -> float:
        """Best-known time the contender's medium frees (NAV + active TXOPs)."""
        until = now_us
        for antenna in contender.antennas:
            until = max(until, self.nav.expiry_us(antenna))
        until = max(until, self.log.busy_until_us(now_us))
        return until

    # ------------------------------------------------------------------
    # MIDAS antenna/client assembly
    # ------------------------------------------------------------------
    def _gather_antennas(self, contender: _Contender, now_us: float) -> tuple[np.ndarray, float]:
        """Opportunistic antenna selection (§3.2.3).

        The *contending* antenna already passed full CCA (physical + NAV).
        Sibling antennas are added based on their NAV timers, as the paper
        specifies: clear NAV joins immediately; a NAV expiring within one
        DIFS is worth waiting for (the TXOP start is delayed to the latest
        such expiry).  Residual physical energy without a decodable header
        does not veto a sibling -- the antenna transmits on the downlink, and
        any interference consequences land in the clients' SINRs.
        """
        own = self.deployment.antennas_of(contender.ap)
        start_us = now_us
        available = []
        for antenna in own:
            if self.nav.is_clear(antenna, now_us):
                available.append(antenna)
            elif self.nav.expiry_us(antenna) <= now_us + self.mac.difs_us:
                available.append(antenna)
                start_us = max(start_us, self.nav.expiry_us(antenna))
        ordered = self.nav.order_by_expiry(available) if available else np.empty(0, dtype=int)
        return ordered, start_us

    # ------------------------------------------------------------------
    # TXOP execution
    # ------------------------------------------------------------------
    def _advance_channel(self, now_us: float) -> None:
        dt_s = (now_us - self._last_channel_advance_us) * 1e-6
        if dt_s <= 0:
            return
        with _obs().span("channel_advance"):
            self._advance(dt_s)
            self._last_channel_advance_us = now_us

    def _maybe_resound(self, now_us: float) -> None:
        """Re-sound when the re-sounding interval has elapsed (mobility
        runs only): the association re-evaluates (handoffs plus tag
        re-derivation) and the stale-CSI snapshot refreshes.  The
        sounding's airtime is marked unpaid until a TXOP actually
        transmits and charges it (the triggering TXOP may still abort).

        Without an interval every TXOP sounds fresh CSI, so the tags --
        which real hardware derives from the sounding's RSSI -- re-derive
        on every call too (anchor handoff tracks the roaming clients).
        """
        if self._mobility is None:
            return
        stale = self._resound_interval_us is not None
        if (
            stale
            and self._h_csi is not None
            and now_us - self._last_resound_us < self._resound_interval_us
        ):
            return
        self._resound()
        if stale:
            self._h_csi = self.channel.channel_matrices()[0]
            self._last_resound_us = now_us
            self._sounding_unpaid += 1

    def _begin_txop(self, contender: _Contender, now_us: float) -> None:
        ap = contender.ap
        if self._mobility is not None:
            # Pull the trajectory (and fading) up to the present before any
            # tag/CSI decision, then re-sound if the interval has elapsed.
            self._advance_channel(now_us)
            self._maybe_resound(now_us)
        if self._traffic is not None:
            # Pull the arrival stream up to the present so eligibility sees
            # everything queued by the time this TXOP wins the medium.
            self._traffic.advance_arrivals_to(now_us * 1e-6)
        with _obs().span("schedule"):
            member = self.association.members_mask(ap)
            # Eligibility is cut off at ``now_us``: the arrival generator
            # works in whole TXOP windows that can extend past the present,
            # and a packet "arriving" later than the contention decision
            # must neither win the medium nor be DRR-settled as served --
            # the service step applies the same cutoff at the TXOP start.
            # Coordinated scheduling vetoes clients overhearing another AP's
            # in-flight TXOP.
            foreign = self._tx_mask(self.log.transmitting_antennas())
            foreign[0, self.deployment.antennas_of(ap)] = False
            primary_mask, any_mask = self._eligibility(
                member, foreign, arrival_cutoff_s=now_us * 1e-6
            )
            if self.mode is MacMode.CAS:
                antennas = self.deployment.antennas_of(ap)
                visits = [member] * len(antennas)
                start_us = now_us
            else:
                antennas, start_us = self._gather_antennas(contender, now_us)
                if len(antennas) == 0:
                    self._schedule_attempt(contender, now_us + self.mac.difs_us)
                    return
                # Tag columns of the gathered antennas in NAV-expiry order.
                # All gathered antennas precode the selected streams
                # (§3.2.5: "the data streams are transmitted from all the
                # antennas to all the clients with precoding"), even when
                # fewer clients than antennas were tagged -- the spare
                # antennas contribute array gain.
                visits = self.association.tags[:, :, antennas].transpose(2, 0, 1)
            chosen_mask, [picks] = pick_in_visit_order(
                self._drr[ap], visits, primary_mask, any_mask
            )

        clients_global = picks[picks >= 0]
        if clients_global.size == 0:
            # No eligible (MIDAS: tagged) backlog: skip this opportunity
            # and recontend.
            self._schedule_attempt(
                contender, now_us + self.mac.difs_us + contender.backoff.draw_delay_us()
            )
            return

        self._advance_channel(start_us)
        with _obs().span("precode"):
            h_full = self.channel.channel_matrices()[0]
            h_rows = h_full[clients_global, :]
            # CSI staleness: with a re-sounding interval, precoders see the
            # snapshot captured at the last sounding while SINRs (h_rows)
            # track the live channel; without one, every TXOP sounds fresh
            # CSI.
            stale = self._mobility is not None and self._resound_interval_us is not None
            h_source = self._h_csi if stale else h_full
            h_sub = h_source[clients_global, :][:, antennas]
            h_est = apply_csi_error(h_sub, self.sim.csi_error_std, self._csi_rngs[0])
            v = self._precode(h_est[None])[0]

        # A stale run pays sounding airtime only on TXOPs carrying an (as
        # yet unpaid) sounding exchange; fresh runs pay every TXOP.
        pay_sounding = not stale or self._sounding_unpaid > 0
        if stale and self._sounding_unpaid:
            self._sounding_unpaid -= 1
        durations = txop_durations(
            self.mac,
            len(clients_global),
            len(antennas),
            self.sim.sounding_overhead and pay_sounding,
        )
        tx = ActiveTransmission(
            ap=ap,
            antennas=np.asarray(antennas, dtype=int),
            clients=clients_global,
            v=v,
            h_rows=h_rows,
            start_us=start_us,
            end_us=start_us + durations.total_us,
            data_fraction=durations.data_fraction,
        )
        self.log.start(tx)
        self._txop_count += 1
        self._stream_count += len(clients_global)
        _obs().count("engine.txops")

        # Virtual carrier sense: every antenna that decodes any of our
        # transmitting antennas (subject to capture against transmissions
        # already in the air) reserves the medium until the TXOP ends.
        # Decode verdicts cover every transmitter column, so one call with
        # the already-active set as interferers serves all of ours.
        already_active = self._tx_mask(self.log.transmitting_antennas())
        already_active[0, tx.antennas] = False
        decodes = self.carrier_sense.decode_mask(already_active)[0]
        hears_us = decodes[:, tx.antennas].any(axis=1)
        hears_us[tx.antennas] = False
        for listener in np.flatnonzero(hears_us):
            self.nav.set_nav(int(listener), tx.end_us)

        # Contenders of the transmitting antennas hold until the TXOP ends.
        for other in self._contenders:
            if other.ap == ap and np.intersect1d(other.antennas, tx.antennas).size:
                other.in_txop_until_us = tx.end_us

        # DRR settlement: losers are members that were not served.
        self._drr[ap].settle(chosen_mask, member & ~chosen_mask)
        self.association.note_served(chosen_mask)

        self.queue.schedule(tx.end_us, lambda t, tx=tx: self._end_txop(tx, t))

    def _tx_sinrs(
        self, tx: ActiveTransmission, transmissions: list[ActiveTransmission]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sinr, interference-free snr) per stream of one TXOP, with
        external interference weighted by TXOP overlap (the paper's §5.1
        post-hoc scoring rule)."""
        noise_mw = self.scenario.radio.noise_mw
        own = np.abs(tx.h_rows[:, tx.antennas] @ tx.v) ** 2  # (clients, streams)
        desired = np.diag(own)
        intra = own.sum(axis=1) - desired
        external = np.zeros(len(tx.clients))
        for other in transmissions:
            if other is tx:
                continue
            overlap = tx.overlap_us(other)
            if overlap <= 0:
                continue
            cross = np.abs(tx.h_rows[:, other.antennas] @ other.v) ** 2
            external += cross.sum(axis=1) * (overlap / tx.duration_us)
        sinr = desired / (noise_mw + intra + external)
        snr_clean = desired / (noise_mw + intra)
        return sinr, snr_clean

    def _end_txop(self, tx: ActiveTransmission, now_us: float) -> None:
        if self._traffic is not None:
            # Every transmission overlapping this TXOP has started by its
            # end event, so the overlap-weighted SINR computed here equals
            # the post-hoc score; the A-MPDU model turns it into bytes.
            with _obs().span("traffic"):
                sinr, __ = self._tx_sinrs(tx, self.log.all_transmissions())
                payload_s = tx.data_fraction * tx.duration_us * 1e-6
                self._traffic.serve_burst(
                    np.zeros(len(tx.clients), dtype=int),
                    tx.clients,
                    sinr,
                    payload_s,
                    t_depart_s=now_us * 1e-6,
                    # Only packets queued when the burst was assembled ride
                    # in its A-MPDUs; later arrivals wait for the next TXOP.
                    arrival_cutoff_s=tx.start_us * 1e-6,
                )
        self.log.finish(tx)
        _obs().probe("txop", engine="network", simulation=self, tx=tx, now_us=now_us)
        for contender in self._contenders:
            if contender.ap == tx.ap and np.intersect1d(
                contender.antennas, tx.antennas
            ).size:
                contender.backoff.on_success()
                self._schedule_attempt(
                    contender, now_us + contender.backoff.draw_delay_us()
                )

    # ------------------------------------------------------------------
    # Contention scheduling
    # ------------------------------------------------------------------
    def _schedule_attempt(self, contender: _Contender, when_us: float) -> None:
        contender.scheduled = True
        self.queue.schedule(when_us, lambda t, c=contender: self._attempt(c, t))

    def _attempt(self, contender: _Contender, now_us: float) -> None:
        contender.scheduled = False
        if now_us < contender.in_txop_until_us:
            return  # our antenna is mid-TXOP; _end_txop reschedules us
        if self._medium_busy(contender, now_us):
            resume = max(self._busy_until(contender, now_us), now_us)
            self._schedule_attempt(contender, resume + contender.backoff.draw_delay_us())
            return
        self._begin_txop(contender, now_us)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score(self, duration_us: float) -> SimulationResult:
        per_client = np.zeros(self.deployment.n_clients)
        transmissions = self.log.all_transmissions()
        degraded = 0
        concurrency_weighted = 0.0
        for tx in transmissions:
            effective_end = min(tx.end_us, duration_us)
            effective_duration = max(0.0, effective_end - tx.start_us)
            if effective_duration <= 0:
                continue
            sinr, snr_clean = self._tx_sinrs(tx, transmissions)
            if np.any(snr_clean / np.maximum(sinr, 1e-30) > 2.0):
                degraded += 1
            rates = np.log2(1.0 + sinr)
            per_client[tx.clients] += rates * tx.data_fraction * effective_duration * 1e-6
            concurrency_weighted += len(tx.clients) * effective_duration
        duration_s = duration_us * 1e-6
        mean_concurrent = concurrency_weighted / duration_us if duration_us > 0 else 0.0
        return SimulationResult(
            duration_s=duration_s,
            per_client_bits_per_hz=per_client,
            txop_count=self._txop_count,
            stream_count=self._stream_count,
            mean_concurrent_streams=float(mean_concurrent),
            collision_fraction=degraded / max(1, len(transmissions)),
            traffic=(
                self._traffic.summary(duration_s)[0]
                if self._traffic is not None
                else None
            ),
        )

    def run(self, duration_s: float | None = None) -> SimulationResult:
        """Simulate ``duration_s`` (default from :class:`SimConfig`) and
        return aggregate statistics."""
        duration_us = (duration_s or self.sim.duration_s) * 1e6
        with _obs().span("engine.run", engine="network"):
            start_rng = rng_mod.make_rng(self.scenario.seeds[0])
            for contender in self._contenders:
                # Stagger initial attempts over one contention window.
                self._schedule_attempt(
                    contender,
                    self.mac.difs_us + float(start_rng.uniform(0, 1)) * self.mac.cw_min * self.mac.slot_us,
                )
            self.queue.run_until(duration_us)
            with _obs().span("score"):
                return self._score(duration_us)
