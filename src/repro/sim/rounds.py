"""Round-based (quasi-static) network evaluation -- the paper's protocol.

The paper's WARP implementation could not run a closed-loop MAC (§4): MAC
decisions were computed and fed into the PHY.  Its multi-AP experiments
therefore follow a *quasi-static* protocol (§5.3.1): enable transmissions at
AP A, check how many transmissions AP B's antennas can simultaneously
support given their NAV and carrier-sense states, enable those too, then
evaluate AP C -- and measure the resulting concurrent capacity.

:class:`RoundBasedEvaluator` reproduces exactly that:

* **CAS mode** -- APs within overhearing range serialize; each round one AP
  (rotating) transmits ``n_antennas`` streams with the naive precoder.
* **MIDAS mode** -- each round a rotating *primary* AP activates all its
  antennas; every other AP (in order) activates the subset of its antennas
  not blocked (physical CS or NAV) by already-active antennas, serving
  clients filtered by virtual packet tags and picked by DRR.  All active
  sets transmit concurrently and every stream's SINR includes the cross-AP
  interference.

The fully dynamic discrete-event MAC lives in
:class:`repro.sim.network.NetworkSimulation`; it is the closed-loop
extension the paper's methodology could not measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rng_mod
from ..assoc import CoordinationMode, build_association_state
from ..obs import active as _obs
from ..channel.model import ChannelModel, apply_csi_error
from ..config import SimConfig
from ..core.naive import naive_scaled_precoder
from ..core.power_balance import power_balanced_precoder
from ..core.selection import DeficitRoundRobin
from ..mac.carrier_sense import CarrierSenseModel
from ..mac.frames import data_fraction
from ..mobility import build_mobility_state
from ..phy.sounding import sounding_overhead_us
from ..topology.scenarios import Scenario
from ..traffic import AmpduConfig, RoundTrafficMetrics, TrafficState, resolve_traffic
from .network import MacMode


def build_traffic_state(
    traffic,
    traffic_kwargs,
    n_clients: int,
    rng,
    scenario: Scenario,
    ampdu: AmpduConfig | None,
) -> TrafficState | None:
    """Resolve an engine's ``traffic=`` argument into a per-run state.

    ``None`` and ``"full_buffer"`` both yield ``None`` -- the engines then
    take their historical saturation path untouched (bit-identical to every
    pre-traffic release).  The round clock is one TXOP (``mac.txop_us``).
    """
    if traffic is None:
        return None
    model = resolve_traffic(traffic, **dict(traffic_kwargs or {}))
    if model.is_full_buffer:
        return None
    return TrafficState(
        model,
        n_clients,
        rng,
        round_duration_s=scenario.mac.txop_us * 1e-6,
        bandwidth_hz=scenario.radio.bandwidth_hz,
        ampdu=ampdu,
    )


@dataclass(frozen=True)
class RoundResult:
    """One concurrent transmission round."""

    capacity_bps_hz: float
    n_streams: int
    active_antennas: int
    per_ap_streams: np.ndarray
    #: Queueing outcome of the round under finite load; ``None`` when the
    #: evaluator ran full-buffer (the default).
    traffic: RoundTrafficMetrics | None = None
    #: Sounding airtime charged this round (microseconds); non-zero only on
    #: re-sounding rounds of a mobility run (the historical static path
    #: folds sounding into every TXOP's data fraction instead).
    sounding_us: float = 0.0


@dataclass(frozen=True)
class RoundBasedResult:
    """Aggregate over all evaluated rounds of one topology."""

    rounds: list[RoundResult]

    def _require_rounds(self) -> None:
        if not self.rounds:
            raise ValueError(
                "RoundBasedResult holds no rounds; evaluate at least one "
                "round before asking for means"
            )

    @property
    def mean_capacity_bps_hz(self) -> float:
        self._require_rounds()
        return float(np.mean([r.capacity_bps_hz for r in self.rounds]))

    @property
    def mean_streams(self) -> float:
        self._require_rounds()
        return float(np.mean([r.n_streams for r in self.rounds]))

    # ------------------------------------------------------------------
    # Finite-load (traffic) accessors
    # ------------------------------------------------------------------
    @property
    def has_traffic(self) -> bool:
        """Whether the evaluator ran with a finite-load traffic model."""
        return bool(self.rounds) and self.rounds[0].traffic is not None

    def _require_traffic(self) -> None:
        self._require_rounds()
        if self.rounds[0].traffic is None:
            raise ValueError(
                "no traffic metrics on this result: the evaluator ran "
                "full-buffer; pass traffic=... to the evaluator to enable "
                "finite-load queueing"
            )

    @property
    def duration_s(self) -> float:
        """Total MAC time covered (rounds x TXOP window)."""
        self._require_traffic()
        return float(sum(r.traffic.duration_s for r in self.rounds))

    @property
    def offered_bytes(self) -> float:
        """Bytes that arrived at the queues over the run."""
        self._require_traffic()
        return float(sum(r.traffic.arrived_bytes for r in self.rounds))

    @property
    def served_bytes(self) -> float:
        """Bytes delivered to clients over the run."""
        self._require_traffic()
        return float(sum(r.traffic.served_bytes for r in self.rounds))

    @property
    def throughput_mbps(self) -> float:
        """Delivered goodput (Mb/s) over the whole run."""
        return self.served_bytes * 8.0 / self.duration_s / 1e6

    @property
    def delay_samples_s(self) -> np.ndarray:
        """Delays of every departed packet, in departure order."""
        self._require_traffic()
        return np.concatenate([r.traffic.delays_s for r in self.rounds])

    @property
    def delay_category_samples(self) -> np.ndarray:
        """EDCA access-category value per delay sample."""
        self._require_traffic()
        return np.concatenate(
            [r.traffic.delay_categories for r in self.rounds]
        ).astype(int)

    @property
    def mean_delay_s(self) -> float:
        """Mean packet delay; ``inf`` when nothing departed (overload)."""
        samples = self.delay_samples_s
        if samples.size == 0:
            return math.inf
        return float(np.mean(samples))

    def delay_quantile(self, q: float) -> float:
        """Delay quantile (e.g. ``0.95``); ``inf`` when nothing departed."""
        samples = self.delay_samples_s
        if samples.size == 0:
            return math.inf
        return float(np.quantile(samples, q))

    @property
    def delay_jitter_s(self) -> float:
        """Standard deviation of packet delay; ``inf`` when no departures."""
        samples = self.delay_samples_s
        if samples.size == 0:
            return math.inf
        return float(np.std(samples))

    @property
    def mean_queue_bytes(self) -> float:
        """Mean end-of-round backlog across rounds."""
        self._require_traffic()
        return float(np.mean([r.traffic.queue_bytes for r in self.rounds]))

    @property
    def max_queue_bytes(self) -> float:
        """Peak end-of-round backlog."""
        self._require_traffic()
        return float(max(r.traffic.queue_bytes for r in self.rounds))

    def per_client_served_bytes(self) -> np.ndarray:
        """Total bytes delivered per client over the run."""
        self._require_traffic()
        return np.sum([r.traffic.served_per_client for r in self.rounds], axis=0)

    # ------------------------------------------------------------------
    # Mobility / re-sounding accessors
    # ------------------------------------------------------------------
    @property
    def mean_sounding_us(self) -> float:
        """Mean per-round sounding airtime (microseconds): the explicit
        re-sounding charge of a mobility run, zero for static runs."""
        self._require_rounds()
        return float(np.mean([r.sounding_us for r in self.rounds]))

    @property
    def total_sounding_us(self) -> float:
        """Total sounding airtime charged over the run (microseconds)."""
        self._require_rounds()
        return float(sum(r.sounding_us for r in self.rounds))


class RoundBasedEvaluator:
    """Quasi-static evaluation of one scenario (CAS or MIDAS stack)."""

    def __init__(
        self,
        scenario: Scenario,
        mode: MacMode,
        sim: SimConfig | None = None,
        seed: int | None = 0,
        traffic=None,
        traffic_kwargs=None,
        ampdu: AmpduConfig | None = None,
        mobility=None,
        mobility_kwargs=None,
        resound_period_rounds: int = 1,
        association=None,
        association_kwargs=None,
        coordination=None,
    ):
        self.scenario = scenario
        self.mode = mode
        self.sim = sim or SimConfig()
        self.deployment = scenario.deployment
        if resound_period_rounds < 1:
            raise ValueError("resound_period_rounds must be >= 1")
        root = rng_mod.make_rng(seed)
        # Four children are always spawned so enabling traffic/mobility
        # never perturbs the channel/CSI streams (spawn(4)[:2] == spawn(2)).
        channel_rng, self._csi_rng, traffic_rng, mobility_rng = rng_mod.spawn(root, 4)
        self._traffic = build_traffic_state(
            traffic, traffic_kwargs, self.deployment.n_clients, traffic_rng,
            scenario, ampdu,
        )
        self._mobility = build_mobility_state(
            mobility, mobility_kwargs, self.deployment, mobility_rng
        )
        self._resound_period = int(resound_period_rounds)
        self._round_index = 0
        #: Channel snapshot captured at the last sounding; precoders of a
        #: mobility run are computed from this (possibly stale) CSI while
        #: SINRs are scored against the current channel.  ``None`` until
        #: the first sounding round (and always for static runs, which
        #: keep the historical sound-every-TXOP behavior).
        self._h_csi: np.ndarray | None = None
        self.channel = ChannelModel(self.deployment, scenario.radio, seed=channel_rng)
        self.carrier_sense = CarrierSenseModel(
            self.channel.antenna_cross_power_dbm(), scenario.mac
        )
        # DRR counters live on the *global* client axis so membership can
        # change at a handoff without resizing any scheduler state.  With
        # the default static association this selects exactly the clients
        # the historical per-AP-local counters selected: the global id of
        # the k-th member is monotone in k, pick() sorts candidates, and
        # argmax ties still break toward the lowest id.
        self._drr = {
            ap: DeficitRoundRobin(self.deployment.n_clients)
            for ap in range(self.deployment.n_aps)
        }
        #: The association layer owns the client->AP map, the anchor-antenna
        #: tags, and the handoff/outage log; the policy re-evaluates (and
        #: tags rebuild) at construction and at every re-sounding round.
        self.association = build_association_state(
            association, association_kwargs, self.deployment,
            scenario.mac, coordination,
        )
        self.association.resound(self.channel.client_rx_power_dbm())

    # ------------------------------------------------------------------
    def _free_antennas(self, ap: int, active_antennas: list[int]) -> np.ndarray:
        """Antennas of ``ap`` whose physical CS and NAV permit transmission
        given the already-active antenna set (the paper's §5.3.1 check)."""
        own = self.deployment.antennas_of(ap)
        free = []
        for antenna in own:
            sensed_busy = self.carrier_sense.is_busy(int(antenna), active_antennas)
            # NAV check with preamble capture: an antenna only learns a
            # reservation it can decode against the transmissions already in
            # the air (overlapped preambles do not sync in practice).
            nav_blocked = any(
                self.carrier_sense.decodes(int(antenna), int(tx), active_antennas)
                for tx in active_antennas
            )
            if not sensed_busy and not nav_blocked:
                free.append(int(antenna))
        return np.asarray(free, dtype=int)

    def _eligibility(self, ap: int) -> tuple[np.ndarray, np.ndarray]:
        """(primary-class, any-class) backlog masks over *all* clients,
        restricted to ``ap``'s current members.

        Full-buffer runs return the membership mask twice, reducing
        selection to the historical unrestricted DRR.  Under finite load
        the first mask holds members backlogged in the AP's *primary* EDCA
        class (the one winning internal contention); the second holds any
        member backlog, used to fill leftover streams (802.11ac's
        secondary-class rule).
        """
        member_mask = self.association.member_mask(ap)
        if self._traffic is None:
            return member_mask, member_mask
        members = self.association.members(ap)
        any_mask = np.zeros(self.deployment.n_clients, dtype=bool)
        primary_mask = np.zeros(self.deployment.n_clients, dtype=bool)
        if members.size == 0:
            return primary_mask, any_mask
        any_mask[members] = self._traffic.backlog_mask(members)
        primary = self._traffic.primary_class(members)
        primary_mask[members] = (
            any_mask[members]
            if primary is None
            else self._traffic.backlog_mask(members, primary)
        )
        return primary_mask, any_mask

    def _select_clients(
        self, ap: int, antennas: np.ndarray, allowed: np.ndarray | None = None
    ) -> list[int]:
        """Global client ids served by ``antennas`` of ``ap`` this round.

        ``allowed`` (optional, over all clients) is the coordination veto:
        clients outside it are skipped (they already overhear a committed
        neighboring transmission this round).
        """
        members = self.association.members(ap)
        drr = self._drr[ap]
        primary_mask, any_mask = self._eligibility(ap)
        if allowed is not None:
            primary_mask = primary_mask & allowed
            any_mask = any_mask & allowed

        def gated_pick(candidates: list[int]) -> int | None:
            pick = drr.pick([c for c in candidates if primary_mask[c]])
            if pick is None:
                pick = drr.pick([c for c in candidates if any_mask[c]])
            return pick

        if self.mode is MacMode.CAS:
            chosen: list[int] = []
            for __ in range(min(len(antennas), len(members))):
                pick = gated_pick([int(c) for c in members if c not in chosen])
                if pick is None:
                    break
                chosen.append(pick)
            return chosen
        own = self.deployment.antennas_of(ap)
        index_of = {int(g): i for i, g in enumerate(own)}
        chosen = []
        for antenna in antennas:
            local = index_of[int(antenna)]
            candidates = [
                int(c)
                for c in self.association.tagged_clients(ap, local)
                if c not in chosen
            ]
            pick = gated_pick(candidates)
            if pick is not None:
                chosen.append(pick)
        return chosen

    def _precoder(self, h_sub: np.ndarray) -> np.ndarray:
        radio = self.scenario.radio
        h_est = apply_csi_error(h_sub, self.sim.csi_error_std, self._csi_rng)
        if self.mode is MacMode.CAS:
            return naive_scaled_precoder(h_est, radio.per_antenna_power_mw)
        balanced = power_balanced_precoder(
            h_est, radio.per_antenna_power_mw, radio.noise_mw
        )
        _obs().count("precode.rounds", balanced.rounds)
        _obs().count("precode.unconverged", int(not balanced.converged))
        return balanced.v

    # ------------------------------------------------------------------
    def evaluate_round(self, primary_ap: int) -> RoundResult:
        """One concurrent round with ``primary_ap`` winning channel access first."""
        if self._traffic is not None:
            with _obs().span("traffic"):
                self._traffic.begin_round()
        # CSI staleness (mobility runs): sounding rounds re-capture the CSI
        # snapshot and let the association layer re-evaluate the client->AP
        # map and re-derive the anchor-antenna tags at the clients' current
        # positions; in between, precoders keep using the stale snapshot
        # while SINRs are scored against the live channel.
        sounding_round = True
        if self._mobility is not None:
            sounding_round = self._round_index % self._resound_period == 0
            if sounding_round:
                # The CSI snapshot itself is captured at scoring time below
                # (the channel cannot change within a round) to avoid
                # materializing the channel matrix twice.
                with _obs().span("sounding"):
                    rssi_dbm = self.channel.client_rx_power_dbm()
                    with _obs().span("assoc_update"):
                        self.association.resound(rssi_dbm)
        self._round_index += 1
        n_aps = self.deployment.n_aps
        coordinated = (
            self.association.coordination is CoordinationMode.COORDINATED_SCHEDULING
        )
        order = [(primary_ap + i) % n_aps for i in range(n_aps)]
        active_antennas: list[int] = []
        planned: list[tuple[int, np.ndarray, list[int]]] = []
        with _obs().span("schedule"):
            self._plan(order, coordinated, active_antennas, planned)
        return self._finish_round(
            planned, active_antennas, sounding_round, n_aps
        )

    def _plan(
        self,
        order: list[int],
        coordinated: bool,
        active_antennas: list[int],
        planned: list[tuple[int, np.ndarray, list[int]]],
    ) -> None:
        """The scheduling phase: fill ``planned``/``active_antennas`` with
        this round's transmission sets (the paper's §5.3.1 stacking)."""
        for position, ap in enumerate(order):
            # Coordinated scheduling: APs planning after others learn the
            # committed picks and skip clients already covered (able to
            # overhear an active transmission) this round.
            allowed = None
            if coordinated and active_antennas:
                allowed = ~self.association.overheard_mask(active_antennas)
            if self.mode is MacMode.CAS:
                # One channel state per AP: a secondary AP transmits all of
                # its antennas iff its (co-located) CCA is clear of every
                # already-active antenna; otherwise it stays silent.  With
                # full mutual overhearing (the 3-AP setup) this reduces to
                # only the primary transmitting; in the 8-AP region APs out
                # of range reuse the medium like real 802.11ac cells.
                own = self.deployment.antennas_of(ap)
                if position == 0 or len(self._free_antennas(ap, active_antennas)) == len(own):
                    antennas = own
                else:
                    continue
            else:
                antennas = (
                    self.deployment.antennas_of(ap)
                    if position == 0
                    else self._free_antennas(ap, active_antennas)
                )
            if len(antennas) == 0:
                continue
            chosen = self._select_clients(
                ap, np.asarray(antennas, dtype=int), allowed
            )
            if not chosen:
                continue
            planned.append((ap, np.asarray(antennas, dtype=int), chosen))
            active_antennas.extend(int(a) for a in antennas)
        self.association.note_served(
            [c for __, __, chosen in planned for c in chosen]
        )

    def _finish_round(
        self,
        planned: list[tuple[int, np.ndarray, list[int]]],
        active_antennas: list[int],
        sounding_round: bool,
        n_aps: int,
    ) -> RoundResult:
        """Precode, score, serve, and settle one planned round."""
        # Precode every planned set, then score with mutual interference.
        # Precoders see the CSI captured at the last sounding (``h_csi``);
        # the SINR scoring below always uses the current channel ``h``.
        with _obs().span("precode"):
            h = self.channel.channel_matrix()
            if self._mobility is not None and sounding_round:
                self._h_csi = h  # never mutated; aliasing the snapshot is safe
            h_csi = h if self._h_csi is None else self._h_csi
            with_sounding = self.sim.sounding_overhead and (
                self._mobility is None or sounding_round
            )
            noise_mw = self.scenario.radio.noise_mw
            precoders = []
            for ap, antennas, chosen in planned:
                clients_global = np.asarray(chosen, dtype=int)
                h_sub = h_csi[np.ix_(clients_global, antennas)]
                precoders.append(self._precoder(h_sub))

        capacity = 0.0
        n_streams = 0
        sounding_us = 0.0
        per_ap_streams = np.zeros(n_aps, dtype=int)
        sinrs: list[np.ndarray] = []
        with _obs().span("score"):
            for index, (ap, antennas, chosen) in enumerate(planned):
                clients_global = np.asarray(chosen, dtype=int)
                own = np.abs(h[np.ix_(clients_global, antennas)] @ precoders[index]) ** 2
                desired = np.diag(own)
                intra = own.sum(axis=1) - desired
                external = np.zeros(len(clients_global))
                for other_index, (__, other_ants, ___) in enumerate(planned):
                    if other_index == index:
                        continue
                    cross = np.abs(h[np.ix_(clients_global, other_ants)] @ precoders[other_index]) ** 2
                    external += cross.sum(axis=1)
                sinr = desired / (noise_mw + intra + external)
                sinrs.append(sinr)
                capacity += float(np.sum(np.log2(1.0 + sinr)))
                n_streams += len(clients_global)
                per_ap_streams[ap] = len(clients_global)

                # Mobility runs charge sounding airtime explicitly, only on
                # the rounds that actually sound (the re-sounding period).
                if self._mobility is not None and with_sounding:
                    sounding_us += sounding_overhead_us(
                        len(clients_global), len(antennas)
                    )

        # Finite load: each stream's SINR fixes an MCS, the A-MPDU
        # model converts payload airtime into served bytes.
        if self._traffic is not None:
            with _obs().span("traffic"):
                for index, (ap, antennas, chosen) in enumerate(planned):
                    fraction = data_fraction(
                        self.scenario.mac,
                        len(chosen),
                        len(antennas),
                        with_sounding,
                    )
                    self._traffic.serve_burst(
                        np.asarray(chosen, dtype=int),
                        sinrs[index],
                        self._traffic.round_duration_s * fraction,
                    )

        with _obs().span("schedule"):
            for ap, __, chosen in planned:
                # Fairness settlement per transmitting AP (members only -- a
                # non-member entry in the global counters stays untouched).
                losers = [
                    int(c) for c in self.association.members(ap) if c not in chosen
                ]
                self._drr[ap].settle(chosen, losers, txop_units=1.0)

            # Every AP settles every round: one that was blocked (or found
            # no eligible client) sent nothing, but its backlogged clients
            # still waited out this round's TXOP -- credit it so they are
            # not starved relative to the paper's DRR fairness.
            transmitted = {ap for ap, __, __ in planned}
            for ap in range(n_aps):
                if ap not in transmitted:
                    self._drr[ap].credit(self.association.members(ap), txop_units=1.0)

        traffic_metrics = None
        if self._traffic is not None:
            with _obs().span("traffic"):
                traffic_metrics = self._traffic.end_round()
        return RoundResult(
            capacity_bps_hz=capacity,
            n_streams=n_streams,
            active_antennas=len(active_antennas),
            per_ap_streams=per_ap_streams,
            traffic=traffic_metrics,
            sounding_us=sounding_us,
        )

    def advance_between_rounds(self) -> None:
        """Advance the channel (and, if configured, the clients) by one
        coherence block.

        Static runs keep the historical global-Doppler fading step.  A
        mobility run additionally moves every client along its trajectory,
        derives each client's Doppler from its actual speed, and
        re-evaluates the large-scale channel at the new positions (the
        shadowing lattice cache keeps the field spatially consistent).
        """
        dt_s = self.sim.coherence_block_s
        if self._mobility is None:
            self.channel.advance(dt_s)
            return
        self._mobility.advance(dt_s)
        self.channel.advance(
            dt_s,
            doppler_hz=self._mobility.doppler_hz(self.scenario.radio.wavelength_m),
        )
        self.channel.update_client_positions(self._mobility.positions)

    def run(self, n_rounds: int = 30) -> RoundBasedResult:
        """Evaluate ``n_rounds`` rounds, rotating the primary AP and advancing
        the fading (and any client mobility) between rounds by one coherence
        block."""
        if n_rounds < 1:
            raise ValueError("need at least one round")
        rounds = []
        with _obs().span("engine.run", engine="loop", n_rounds=n_rounds):
            for r in range(n_rounds):
                rounds.append(
                    self.evaluate_round(primary_ap=r % self.deployment.n_aps)
                )
                with _obs().span("channel_advance"):
                    self.advance_between_rounds()
                _obs().count("engine.rounds")
                _obs().probe(
                    "round",
                    engine="loop",
                    evaluator=self,
                    round_index=r,
                    result=rounds[-1],
                )
        return RoundBasedResult(rounds=rounds)
