"""Round-based network evaluation: whole seed batches as array math.

The paper's WARP implementation could not run a closed-loop MAC (§4): MAC
decisions were computed and fed into the PHY.  Its multi-AP experiments
therefore follow a *quasi-static* protocol (§5.3.1): enable transmissions at
AP A, check how many transmissions AP B's antennas can simultaneously
support given their NAV and carrier-sense states, enable those too, then
evaluate AP C -- and measure the resulting concurrent capacity.

:class:`RoundBasedEvaluatorBatch` reproduces exactly that for every
topology draw of a batch simultaneously (a single topology is a batch of
one):

* **carrier sense** -- :class:`CarrierSenseBatch` computes busy verdicts and
  NAV/preamble-capture decode checks as masked reductions over the stacked
  ``(batch, n_antennas, n_antennas)`` cross-power maps;
* **client selection** -- :func:`~repro.core.selection.pick_in_visit_order`
  walks each AP's stacked tag columns (or membership mask) with per-item
  :class:`~repro.core.selection.BatchDeficitRoundRobin` counters;
* **precoding and scoring** -- each round's plan is a set of padded
  ``(batch, slot, stream)`` arrays; every committed transmit set is solved
  in one masked call of :mod:`repro.core.batch`'s stacked precoders, and
  one batched matmul over ``(batch, slot, other slot)`` scores every
  stream's SINR against the cross-AP interference of every concurrent
  set.

CAS mode serializes APs within overhearing range (one AP transmits
``n_antennas`` streams with the naive precoder); MIDAS mode activates every
antenna not blocked by physical CS or NAV, serving tagged clients with the
power-balanced precoder.

The contract, asserted by the equivalence suite: item ``i`` of every
result is **bit-identical** whatever batch it is evaluated in.  Every
per-item generator tree is private to its item, and every aggregate is a
reduction over the same trailing axes of the same stacked operands.

The fully dynamic discrete-event MAC lives in
:class:`repro.sim.network.NetworkSimulation`, the closed-loop extension the
paper's methodology could not measure.  Both engines derive from
:class:`_EngineCore`, which owns their shared state and stages: set-up
(traffic, mobility, channel, carrier sense, per-AP DRR counters,
association and CSI-noise generators), eligibility with the
coordinated-scheduling veto, the mode's precoder, re-sounding, and
mobility plus channel advance.  This engine keeps its own seed-tree
layout, the §5.3.1 planning, padded scoring and :class:`RoundLog`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rng_mod
from .. import units
from .. import xp as xpmod
from ..assoc import CoordinationMode, build_batch_association_state
from ..assoc.state import one_per_item
from ..channel.batch import ChannelBatch, apply_csi_error
from ..config import MacConfig, SimConfig
from ..core.batch import (
    naive_scaled_precoder as batch_naive_precoder,
    power_balanced_precoder as batch_power_balanced_precoder,
)
from ..core.selection import BatchDeficitRoundRobin, pick_in_visit_order
from ..mac.frames import data_fraction
from ..mobility import build_mobility_state
from ..obs import active as _obs
from ..phy.sounding import sounding_overhead_us
from ..topology.scenarios import Scenario
from ..traffic import TrafficState, resolve_traffic


class MacMode(str, enum.Enum):
    """Which MAC + precoding stack an AP runs."""

    CAS = "cas"
    MIDAS = "midas"


def build_traffic_state(
    traffic,
    traffic_kwargs,
    n_clients: int,
    rngs,
    scenario: Scenario,
) -> TrafficState | None:
    """Resolve an engine's ``traffic=`` argument into one stacked state.

    ``traffic_kwargs`` and ``rngs`` hold one entry per batch item; each
    ``rngs`` entry is a generator or a seed-tree node, and a node's
    generator is built only when the model has arrivals to draw.  ``None``
    and ``"full_buffer"`` both yield ``None`` -- the engines then take their
    historical saturation path untouched (bit-identical to every
    pre-traffic release).  The round clock is one TXOP (``mac.txop_us``).
    """
    if traffic is None:
        return None
    models = [resolve_traffic(traffic, **dict(kwargs or {})) for kwargs in traffic_kwargs]
    finite = [not model.is_full_buffer for model in models]
    if not any(finite):
        return None
    if not all(finite):
        raise ValueError(
            "a batch cannot mix full-buffer and finite-load items; run them "
            "as separate evaluators"
        )
    return TrafficState(
        models,
        n_clients,
        rng_mod.make_rngs(rngs),
        round_duration_s=scenario.mac.txop_us * 1e-6,
        bandwidth_hz=scenario.radio.bandwidth_hz,
    )


class RoundLog:
    """Every round of one :meth:`RoundBasedEvaluatorBatch.run` as named
    arrays; row ``r`` of each column is round ``r``, column ``b`` is item
    ``b``.  Rows of items the run excludes read 0.

    ``sounding_us`` is non-zero only on re-sounding rounds of a mobility run
    (the static path folds sounding into every TXOP's data fraction), and
    ``queue_bytes`` is the backlog left after each round's service.  The
    finite-load columns and ``round_duration_s`` (the TXOP window of a
    round) are ``None`` under full buffer.  Delay samples and their EDCA
    categories are packed CSR-style by (item, round) when the run returns:
    item ``b``'s round-``r`` delays are ``delays_s[delay_span(b, r)]``, in
    departure order.
    """

    def __init__(self, n_rounds, n_items, n_aps, n_clients, round_duration_s):
        shape = (n_rounds, n_items)
        self.n_rounds = n_rounds
        self.capacity_bps_hz = np.zeros(shape)
        self.n_streams = np.zeros(shape, dtype=int)
        self.active_antennas = np.zeros(shape, dtype=int)
        self.sounding_us = np.zeros(shape)
        self.per_ap_streams = np.zeros(shape + (n_aps,), dtype=int)
        self.round_duration_s = round_duration_s
        finite = round_duration_s is not None
        self.arrived_bytes = np.zeros(shape) if finite else None
        self.served_bytes = np.zeros(shape) if finite else None
        self.queue_bytes = np.zeros(shape) if finite else None
        self.served_per_client = np.zeros(shape + (n_clients,)) if finite else None
        self.delays_s = self.delay_categories = self.delay_offsets = None

    def record(self, round_index: int, row: dict) -> None:
        """Store one round's ``(batch, ...)`` columns, keyed by name."""
        for name, values in row.items():
            getattr(self, name)[round_index] = values

    def pack_delays(self, departures, first_round: np.ndarray) -> None:
        """Pack a traffic state's departure log (``(item, round, delay_s,
        category)``) by (item, round).  ``first_round`` holds each item's
        traffic round index when the run began; earlier departures are
        not this run's."""
        item_of, round_of, delays_s, categories = departures
        round_of = round_of - first_round[item_of]
        mine = round_of >= 0
        key = (item_of * self.n_rounds + round_of)[mine]
        order = np.argsort(key, kind="stable")
        self.delays_s = delays_s[mine][order]
        self.delay_categories = categories[mine][order]
        self.delay_offsets = np.searchsorted(
            key[order], np.arange(self.capacity_bps_hz.size + 1)
        )

    def delay_span(self, item: int, round_index: int | None = None) -> slice:
        """Where ``item``'s delay samples sit in :attr:`delays_s`: round
        ``round_index``'s, or every round's when ``None``."""
        first = item * self.n_rounds + (round_index or 0)
        last = first + (self.n_rounds if round_index is None else 1)
        return slice(*self.delay_offsets[[first, last]].tolist())


@dataclass(frozen=True)
class RoundBasedResult:
    """Aggregate over all evaluated rounds of one topology: a view over
    item ``item``'s columns of a run's :class:`RoundLog`."""

    log: RoundLog
    item: int

    def column(self, name: str) -> np.ndarray:
        """A contiguous copy of this item's ``(n_rounds, ...)`` values of log
        column ``name`` (contiguous, so numpy reduces them exactly as it
        reduced the per-round lists of earlier releases)."""
        return np.array(getattr(self.log, name)[:, self.item])

    @property
    def mean_capacity_bps_hz(self) -> float:
        return float(np.mean(self.column("capacity_bps_hz")))

    @property
    def mean_streams(self) -> float:
        return float(np.mean(self.column("n_streams")))

    # ------------------------------------------------------------------
    # Finite-load (traffic) accessors
    # ------------------------------------------------------------------
    @property
    def has_traffic(self) -> bool:
        """Whether the evaluator ran with a finite-load traffic model."""
        return self.log.round_duration_s is not None

    def _require_traffic(self) -> None:
        if not self.has_traffic:
            raise ValueError(
                "no traffic metrics on this result: the evaluator ran "
                "full-buffer; pass traffic=... to the evaluator to enable "
                "finite-load queueing"
            )

    def _sum(self, name: str) -> float:
        """Left fold of a column in round order."""
        self._require_traffic()
        return float(sum(self.column(name).tolist()))

    @property
    def duration_s(self) -> float:
        """Total MAC time covered (rounds x TXOP window)."""
        self._require_traffic()
        return float(sum([self.log.round_duration_s] * self.log.n_rounds))

    @property
    def offered_bytes(self) -> float:
        """Bytes that arrived at the queues over the run."""
        return self._sum("arrived_bytes")

    @property
    def served_bytes(self) -> float:
        """Bytes delivered to clients over the run."""
        return self._sum("served_bytes")

    @property
    def throughput_mbps(self) -> float:
        """Delivered goodput (Mb/s) over the whole run."""
        return self.served_bytes * 8.0 / self.duration_s / 1e6

    @property
    def delay_samples_s(self) -> np.ndarray:
        """Delays of every departed packet, in round and departure order."""
        self._require_traffic()
        return self.log.delays_s[self.log.delay_span(self.item)].copy()

    @property
    def delay_category_samples(self) -> np.ndarray:
        """EDCA access-category value per delay sample."""
        self._require_traffic()
        return self.log.delay_categories[self.log.delay_span(self.item)].astype(int)

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
        return float(np.mean(self.column("queue_bytes")))

    @property
    def max_queue_bytes(self) -> float:
        """Peak end-of-round backlog."""
        self._require_traffic()
        return float(self.column("queue_bytes").max())

    def per_client_served_bytes(self) -> np.ndarray:
        """Total bytes delivered per client over the run."""
        self._require_traffic()
        return np.sum(self.column("served_per_client"), axis=0)

    # ------------------------------------------------------------------
    # Mobility / re-sounding accessors
    # ------------------------------------------------------------------
    @property
    def mean_sounding_us(self) -> float:
        """Mean per-round sounding airtime (microseconds): the explicit
        re-sounding charge of a mobility run, zero for static runs."""
        return float(np.mean(self.column("sounding_us")))

    @property
    def total_sounding_us(self) -> float:
        """Total sounding airtime charged over the run (microseconds)."""
        return float(sum(self.column("sounding_us").tolist()))


@dataclass(frozen=True)
class RoundPlan:
    """One round's §5.3.1 channel-access plan for the whole batch.

    Slot ``p`` is the ``p``-th AP to plan (``aps[p]``); every array is
    padded to ``A`` streams and antennas per slot, the deployment's
    antennas per AP, so its shape never depends on the batch.
    """

    #: ``(n_slots,)`` AP of each slot, in plan order.
    aps: np.ndarray
    #: ``(batch, n_slots)`` slots that committed a transmission.
    slot_on: np.ndarray
    #: ``(batch, n_slots, A)`` global ids of the transmitting antennas at
    #: their own-antenna positions, ``-1`` where the antenna stays silent.
    slot_antennas: np.ndarray
    #: ``(batch, n_slots, A)`` picked client of each visit, in pick order,
    #: ``-1`` where the visit picked none; stream ``k`` serves client ``k``.
    slot_clients: np.ndarray
    #: ``(batch, n_antennas)`` every transmitting antenna.
    active_mask: np.ndarray
    #: ``(batch, n_slots, n_clients)`` clients served by each slot.
    served: np.ndarray
    #: Per AP, the ``(batch, n_clients)`` membership read for this round.
    members: tuple

    @property
    def streams_per_slot(self) -> np.ndarray:
        """``(batch, n_slots)`` stream count of each slot."""
        return np.count_nonzero(self.slot_clients >= 0, axis=-1)

    @property
    def antennas_per_slot(self) -> np.ndarray:
        """``(batch, n_slots)`` transmitting antennas of each slot."""
        return np.count_nonzero(self.slot_antennas >= 0, axis=-1)


#: The finite-load :class:`RoundLog` columns, in ``end_round`` order.
_TRAFFIC_COLUMNS = ("arrived_bytes", "served_bytes", "queue_bytes", "served_per_client")


def _shape_table(fn, width: int) -> np.ndarray:
    """``fn(n_streams, n_antennas)`` for every slot shape up to ``width``,
    as a ``(width + 1, width + 1)`` lookup; 0 for an empty slot."""
    table = np.zeros((width + 1, width + 1))
    for k in range(1, width + 1):
        for n in range(1, width + 1):
            table[k, n] = fn(k, n)
    return table


class CarrierSenseBatch:
    """Physical carrier sensing at antenna granularity (paper §3.2.2), stacked.

    Each antenna senses energy independently: it is *busy* when the
    aggregate received power from all currently-transmitting antennas
    exceeds the energy-detect threshold.  A transmission additionally sets
    the NAV of every antenna that decodes its preamble: the single
    transmitter is received above the (more sensitive) preamble-decode
    threshold and, with other transmitters already in the air, captures by
    ``preamble_capture_db`` over their aggregate.  The model is
    large-scale only: carrier sense integrates over many OFDM symbols,
    which averages small-scale fading out.

    Parameters
    ----------
    cross_power_dbm:
        ``(batch, n_antennas, n_antennas)`` sensing powers, one map per
        topology draw (:meth:`repro.channel.batch.ChannelBatch.antenna_cross_power_dbm`).
    mac:
        Thresholds shared by the whole batch.

    Active transmitter sets are boolean masks ``(batch, n_antennas)``; all
    verdicts come back stacked.  Every aggregate is a masked reduction over
    the full trailing antenna axis (``where(mask, row, 0).sum()``), never a
    sum over a compacted index subset, so a listener's verdict does not
    depend on which other listeners or items share the call.

    The reductions run on the :mod:`repro.xp` namespace that is *active at
    construction* (the cross-power map is derived on the host once, then
    transferred); verdicts always come back as host NumPy arrays, because
    the planning logic that consumes them is per-item Python bookkeeping.
    On the default NumPy/float64 namespace every transfer is the identity.
    """

    def __init__(self, cross_power_dbm: np.ndarray, mac: MacConfig):
        cross = np.asarray(cross_power_dbm, dtype=float)
        if cross.ndim != 3 or cross.shape[1] != cross.shape[2]:
            raise ValueError(
                "cross_power_dbm must be a (batch, n_antennas, n_antennas) stack"
            )
        self._mac = mac
        xp = xpmod.active()
        self._xp = xp
        cross_mw = units.dbm_to_mw(np.where(np.isinf(cross), -np.inf, cross))
        decodable = cross >= mac.nav_decode_dbm
        eye = np.eye(cross.shape[1], dtype=bool)
        decodable[:, eye] = True
        _obs().count("xp.to_device.calls", 3)
        _obs().count(
            "xp.to_device.bytes",
            cross_mw.nbytes + decodable.nbytes + eye.nbytes,
        )
        self._cross_mw = xp.asarray(cross_mw, dtype=xp.float_dtype)
        self._decodable = xp.asarray(decodable, dtype=xp.bool_dtype)
        self._not_self = xp.asarray(~eye, dtype=xp.bool_dtype)

    @property
    def n_items(self) -> int:
        return self._cross_mw.shape[0]

    @property
    def n_antennas(self) -> int:
        return self._cross_mw.shape[1]

    def _as_tx_mask(self, tx_mask) -> np.ndarray:
        mask = np.asarray(tx_mask, dtype=bool)
        if mask.shape != (self.n_items, self.n_antennas):
            raise ValueError(
                f"tx_mask must be (batch, n_antennas) = "
                f"({self.n_items}, {self.n_antennas}), got {mask.shape}"
            )
        return mask

    def sensed_power_mw(self, tx_mask, listeners=None) -> np.ndarray:
        """Aggregate sensed power per listener, ``(batch, n_listeners)``
        (each listener's own transmission excluded -- a transmitting antenna
        is trivially busy, which :meth:`busy_mask` handles).

        ``listeners`` restricts the listener axis to the given antenna
        indices (default: all antennas); each listener's reduction is the
        same masked full-length row sum either way.
        """
        xp = self._xp
        tx_np = self._as_tx_mask(tx_mask)
        _obs().count("xp.to_device.calls")
        _obs().count("xp.to_device.bytes", tx_np.nbytes)
        tx = xp.asarray(tx_np, dtype=xp.bool_dtype)
        not_self = self._not_self
        cross = self._cross_mw
        if listeners is not None:
            listeners = np.asarray(listeners, dtype=int)
            not_self = not_self[listeners]
            cross = cross[:, listeners, :]
        mask = tx[:, None, :] & not_self[None, :, :]
        return xpmod.to_numpy(xp.sum(xp.where(mask, cross, 0.0), axis=-1))

    def busy_mask(self, tx_mask) -> np.ndarray:
        """Energy-detect verdicts ``(batch, n_antennas)``; transmitting
        antennas are busy by definition."""
        tx = self._as_tx_mask(tx_mask)
        busy = self.sensed_power_mw(tx) >= self._mac.cs_threshold_mw
        return busy | tx

    def decode_mask(self, tx_mask, listeners=None) -> np.ndarray:
        """Preamble-decode verdicts ``(batch, listener, transmitter)`` with
        capture against the other transmitters in ``tx_mask``.

        Entry ``[b, l, t]`` is True when listener ``l`` decodes transmitter
        ``t``'s preamble with every *other* antenna of ``tx_mask[b]`` (all
        but ``l`` and ``t``) interfering; ``t`` itself need not be in the
        mask.  ``listeners`` restricts (and reorders) the listener axis like
        in :meth:`sensed_power_mw`.
        """
        xp = self._xp
        tx_np = self._as_tx_mask(tx_mask)
        _obs().count("xp.to_device.calls")
        _obs().count("xp.to_device.bytes", tx_np.nbytes)
        tx = xp.asarray(tx_np, dtype=xp.bool_dtype)
        not_self_l = self._not_self
        cross_l = self._cross_mw
        decodable = self._decodable
        if listeners is not None:
            listeners = np.asarray(listeners, dtype=int)
            not_self_l = not_self_l[listeners]
            cross_l = cross_l[:, listeners, :]
            decodable = decodable[:, listeners, :]
        # interferers[b, l, t, k]: active antennas other than l and t.
        interferer = (
            tx[:, None, None, :]
            & not_self_l[None, :, None, :]
            & self._not_self[None, None, :, :]
        )
        interference = xp.sum(
            xp.where(interferer, cross_l[:, :, None, :], 0.0), axis=-1
        )
        signal = cross_l
        capture = units.db_to_linear(self._mac.preamble_capture_db)
        captures = (interference <= 0) | (signal >= capture * interference)
        return xpmod.to_numpy(decodable & captures)

    def nav_blocked_mask(self, tx_mask, listeners=None) -> np.ndarray:
        """Listeners whose NAV a transmission in ``tx_mask`` would set,
        ``(batch, n_listeners)``: the antenna decodes at least one active
        transmitter's preamble through the aggregate interference."""
        tx = self._as_tx_mask(tx_mask)
        return (self.decode_mask(tx, listeners) & tx[:, None, :]).any(axis=-1)

    def decodable_mask(self) -> np.ndarray:
        """Clean-medium decode verdicts ``(batch, listener, transmitter)``
        (a copy): every listener decoding each lone transmitter."""
        return xpmod.to_numpy(self._decodable).copy()

    def single_tx_busy(self) -> np.ndarray:
        """Energy-detect verdicts for one lone transmitter,
        ``(batch, listener, transmitter)``."""
        return xpmod.to_numpy(self._cross_mw >= self._mac.cs_threshold_mw)


def _mutual_overhear_from_decodable(
    decodable: np.ndarray, antennas_of: list[np.ndarray]
) -> np.ndarray:
    """Per-item §5 mutual-overhearing rule from clean-medium decode verdicts:
    every AP pair must decode each other's preambles in both directions."""
    n_items = decodable.shape[0]
    ok = np.ones(n_items, dtype=bool)
    items = range(n_items)
    for ap_a in range(len(antennas_of)):
        for ap_b in range(ap_a + 1, len(antennas_of)):
            ants_a = antennas_of[ap_a]
            ants_b = antennas_of[ap_b]
            ok &= decodable[np.ix_(items, ants_a, ants_b)].any(axis=(1, 2))
            ok &= decodable[np.ix_(items, ants_b, ants_a)].any(axis=(1, 2))
    return ok


class _EngineCore:
    """The state and stages the round engine and the event engine share.

    Each engine passes its own per-item seed leaves (the seed-tree layouts
    stay engine-specific) and the traffic, mobility and association
    arguments it was given.  Set-up builds the stacked traffic and mobility
    states, channel, carrier sense, per-AP DRR counters, association state
    (with its first sounding) and CSI-noise generators; the stages are
    :meth:`_eligibility`, :meth:`_precode`, :meth:`_resound` and
    :meth:`_advance`.
    """

    def __init__(
        self, scenario: Scenario, mode: MacMode, sim: SimConfig | None,
        channel_seeds, csi_seeds, traffic_seeds, mobility_seeds,
        traffic, traffic_kwargs, mobility, mobility_kwargs,
        association, association_kwargs, coordination,
    ):
        structure = scenario.deployment
        self.scenario = scenario
        self.mode = mode
        self.sim = sim or SimConfig()
        self.n_items = len(scenario)
        # Leaves stay seed-tree nodes until a consumer draws (the CSI leaf
        # only when CSI noise is on).
        self._csi_rngs = (
            rng_mod.make_rngs(csi_seeds)
            if self.sim.csi_error_std > 0
            else [None] * len(csi_seeds)
        )
        self._traffic = build_traffic_state(
            traffic,
            one_per_item("traffic_kwargs", traffic_kwargs, self.n_items),
            structure.n_clients,
            traffic_seeds,
            scenario,
        )
        #: ``None`` for static clients.
        self._mobility = build_mobility_state(
            mobility,
            one_per_item("mobility_kwargs", mobility_kwargs, self.n_items),
            structure,
            mobility_seeds,
        )
        self.channel = ChannelBatch(structure, scenario.radio, channel_seeds)
        # The cross-power map is read before the association's first RSSI
        # read: shadowing lattice nodes are drawn in first-visit order (see
        # ChannelBatch.antenna_cross_power_dbm).
        self.carrier_sense = CarrierSenseBatch(
            self.channel.antenna_cross_power_dbm(), scenario.mac
        )
        # DRR counters live on the *global* client axis so membership can
        # change at a handoff without resizing any scheduler state; argmax
        # ties break toward the lowest client id.
        self._drr = {
            ap: BatchDeficitRoundRobin(self.n_items, structure.n_clients)
            for ap in range(structure.n_aps)
        }
        self.association = build_batch_association_state(
            association, association_kwargs, self.n_items, structure, scenario.mac,
            coordination,
        )
        self.association.resound(self.channel.client_rx_power_dbm())

    def _eligibility(
        self, member: np.ndarray, tx_mask: np.ndarray, arrival_cutoff_s=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (primary-class, any-class) candidate masks, each
        ``(batch, n_clients)``: an AP's members ``member`` with backlog
        queued by ``arrival_cutoff_s`` (``member`` twice under full
        buffer).  Under coordinated scheduling, clients overhearing an
        antenna of ``tx_mask`` -- other APs' transmissions already on the
        air, ``(batch, n_antennas)`` -- are vetoed."""
        if self._traffic is None:
            primary_mask = any_mask = member
        else:
            primary_mask, any_mask = self._traffic.eligibility(member, arrival_cutoff_s)
        if (
            self.association.coordination is CoordinationMode.COORDINATED_SCHEDULING
            and tx_mask.any()
        ):
            allowed = ~self.association.overheard_masks(tx_mask)
            primary_mask, any_mask = primary_mask & allowed, any_mask & allowed
        return primary_mask, any_mask

    def _precode(self, stack, **masks):
        """The mode's precoder (naive scaled ZFBF for CAS, power-balanced for
        MIDAS) on a channel stack, in the namespace of ``stack``; ``masks``
        are the kernels' ``client_mask``/``antenna_mask``."""
        radio = self.scenario.radio
        if self.mode is MacMode.CAS:
            return batch_naive_precoder(stack, radio.per_antenna_power_mw, **masks)
        balanced = batch_power_balanced_precoder(
            stack, radio.per_antenna_power_mw, radio.noise_mw, **masks
        )
        xp = xpmod.array_namespace(stack)
        _obs().count("precode.rounds", int(xp.sum(balanced.rounds)))
        _obs().count("precode.unconverged", int(xp.sum(~balanced.converged)))
        return balanced.v

    def _resound(self) -> None:
        """One sounding: the association re-reads every client's RSSI
        (handoffs plus tag re-derivation)."""
        with _obs().span("sounding"):
            rssi_dbm = self.channel.client_rx_power_dbm()
            with _obs().span("assoc_update"):
                self.association.resound(rssi_dbm)

    def _advance(self, dt_s: float, items=None) -> None:
        """Advance fading, and any client trajectories, by ``dt_s`` for the
        selected items; moving clients fade under their own Doppler."""
        if self._mobility is None:
            self.channel.advance(dt_s, items=items)
            return
        positions = self._mobility.advance(dt_s, items=items)
        doppler = self._mobility.doppler_hz(self.scenario.radio.wavelength_m)
        if items is not None:
            doppler = doppler[items]
        self.channel.advance(dt_s, items=items, doppler_hz=doppler)
        self.channel.update_client_positions(positions, items=items)


class RoundBasedEvaluatorBatch(_EngineCore):
    """Quasi-static evaluation of a batch of topologies.

    Parameters
    ----------
    scenario:
        The batched :class:`~repro.topology.scenarios.Scenario`: one shared
        ownership structure and radio/MAC constants, one item per topology
        draw.  It is never modified; moving clients live in the engine's
        own copies.
    mode:
        CAS or MIDAS, applied to the whole batch.
    sim:
        Simulation constants shared by the batch.
    seeds:
        One seed per item; item ``i`` consumes randomness only from the
        generator tree of ``seeds[i]``, so it evaluates identically alone
        (``RoundBasedEvaluatorBatch(scenario.take([i]), mode, sim,
        seeds=[seeds[i]])``).
    traffic / traffic_kwargs:
        Finite-load arrivals (see :func:`build_traffic_state`).  One stacked
        :class:`~repro.traffic.TrafficState` holds every item's queues; each
        round serves all streams in one call, in item, slot and stream
        order, with every running total a per-item left fold, so the
        delay/throughput series of an item never depend on its batch.
        Backlog enters the engine as ``(batch, n_clients)`` eligibility
        masks over the existing DRR/tag-selection masks.
    mobility / mobility_kwargs / resound_period_rounds:
        Client mobility; precoders see the CSI captured at the last
        sounding round (every ``resound_period_rounds`` rounds) while SINRs
        are scored against the current channel.
    association / association_kwargs / coordination:
        The association layer (see :mod:`repro.assoc`).

    ``traffic_kwargs``, ``mobility_kwargs``, ``association`` and
    ``association_kwargs`` each take one value for the whole batch (a
    mapping, a name or ``None``) or a list/tuple with one entry per item,
    so a sweep can put its points (offered load, speed, policy) on the
    batch axis.  Sequences of the wrong length raise ``ValueError``.  The
    traffic and mobility model names, ``coordination`` and
    ``resound_period_rounds`` stay shared, and a batch may not mix
    full-buffer with finite-load items or static with moving clients.
    """

    def __init__(
        self,
        scenario: Scenario,
        mode: MacMode,
        sim: SimConfig | None = None,
        seeds=None,
        traffic=None,
        traffic_kwargs=None,
        mobility=None,
        mobility_kwargs=None,
        resound_period_rounds: int = 1,
        association=None,
        association_kwargs=None,
        coordination=None,
    ):
        if not len(scenario):
            raise ValueError("need at least one scenario item")
        seeds = [0] * len(scenario) if seeds is None else list(seeds)
        if len(seeds) != len(scenario):
            raise ValueError("need one seed per scenario item")
        if resound_period_rounds < 1:
            raise ValueError("resound_period_rounds must be >= 1")
        # Per-item seed trees.  Four children are always spawned so
        # enabling traffic/mobility never perturbs the channel/CSI streams
        # (spawn(4)[:2] == spawn(2)); traffic uses the third, mobility the
        # fourth.
        channel_seeds, csi_seeds, traffic_seeds, mobility_seeds = zip(
            *(rng_mod.spawn_seeds(seed, 4) for seed in seeds)
        )
        super().__init__(
            scenario, mode, sim, channel_seeds, csi_seeds, traffic_seeds,
            mobility_seeds, traffic, traffic_kwargs, mobility, mobility_kwargs,
            association, association_kwargs, coordination,
        )
        structure = scenario.deployment
        self.n_aps = structure.n_aps
        self._n_clients = structure.n_clients
        self._antennas_of = [structure.antennas_of(ap) for ap in range(self.n_aps)]
        self._clients_of = [structure.clients_of(ap) for ap in range(self.n_aps)]
        #: Streams and antennas per padded slot: the deployment's antennas
        #: per AP (never a property of the batch).
        self._slot_width = max(len(own) for own in self._antennas_of)
        self._sounding_us = _shape_table(sounding_overhead_us, self._slot_width)
        self._data_fraction = {
            with_sounding: _shape_table(
                lambda k, n, flag=with_sounding: data_fraction(scenario.mac, k, n, flag),
                self._slot_width,
            )
            for with_sounding in (False, True)
        }
        self._resound_period = int(resound_period_rounds)
        self._round_index = 0
        #: Stacked channel snapshots captured at the last sounding round; a
        #: mobility run precodes from this (possibly stale) CSI while SINRs
        #: are scored against the current channel.  ``None`` until the
        #: first sounding round (and always for static runs, which sound
        #: fresh CSI every round).
        self._h_csi: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def mutual_overhear_mask(cls, scenario: Scenario, seeds=None) -> np.ndarray:
        """Per-item mutual-overhearing verdicts without a full evaluator.

        Identical to ``cls(scenario, mode, seeds=seeds).aps_mutually_overhear()``
        -- the per-item generator tree and shadowing node order are the same
        -- but skips the DRR/tag/fading state that rejected topologies never
        use.  Experiments gate large candidate batches with this in their
        ``accept_batch``, then build evaluators for the accepted seeds only.
        """
        seeds = [0] * len(scenario) if seeds is None else list(seeds)
        channel_seeds = [rng_mod.spawn_seeds(seed, 2)[0] for seed in seeds]
        structure = scenario.deployment
        channel = ChannelBatch(structure, scenario.radio, channel_seeds)
        sense = CarrierSenseBatch(channel.antenna_cross_power_dbm(), scenario.mac)
        return _mutual_overhear_from_decodable(
            sense.decodable_mask(),
            [structure.antennas_of(ap) for ap in range(structure.n_aps)],
        )

    def antennas_of(self, ap: int) -> np.ndarray:
        """Global antenna indices of AP ``ap`` (shared by all items)."""
        return self._antennas_of[ap].copy()

    def clients_of(self, ap: int) -> np.ndarray:
        """Global client indices of AP ``ap`` (shared by all items)."""
        return self._clients_of[ap].copy()

    def aps_mutually_overhear(self) -> np.ndarray:
        """Per-item mutual-overhearing verdict, ``(batch,)`` bool.

        The paper's 3-AP experiments (§5.3.1, §5.4) deploy APs "that can
        overhear each other": every AP pair must decode each other's
        preambles in both directions.  Evaluated on the batch's own
        carrier-sense state, so the check sees exactly the shadowing the
        run will see.
        """
        return _mutual_overhear_from_decodable(
            self.carrier_sense.decodable_mask(), self._antennas_of
        )

    def free_antenna_masks(self, ap: int, active_mask: np.ndarray) -> np.ndarray:
        """Per-item mask over AP ``ap``'s antennas whose physical CS and NAV
        permit transmission given the already-active antenna set,
        ``(batch, n_own)`` (the paper's §5.3.1 check)."""
        own = self._antennas_of[ap]
        sensed = self.carrier_sense.sensed_power_mw(active_mask, listeners=own)
        busy = sensed >= self.scenario.mac.cs_threshold_mw
        nav = self.carrier_sense.nav_blocked_mask(active_mask, listeners=own)
        return ~busy & ~nav

    # ------------------------------------------------------------------
    def _select_clients(
        self, ap: int, use_mask: np.ndarray, member: np.ndarray, active_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked client selection for AP ``ap`` this round.

        ``use_mask`` flags, per item, which of the AP's antennas transmit
        (own-antenna order; all or none in CAS, and none for items that do
        not participate); ``member`` is the AP's ``(batch, n_clients)``
        membership; ``active_mask`` holds the antennas of the transmissions
        committed so far (the coordination veto's input).  Returns
        :func:`~repro.core.selection.pick_in_visit_order`'s chosen-client
        mask (global client axis) and ``(batch, n_own)`` picks: MIDAS
        visits each own antenna in order, CAS visits the membership once
        per antenna.
        """
        n_own = use_mask.shape[1]
        primary_mask, any_mask = self._eligibility(member, active_mask)
        if self.mode is MacMode.CAS:
            # At most min(n_antennas, n_members) picks land; n_own visits
            # suffice -- once an item's eligible members are exhausted every
            # further visit is a no-op for it.
            visits = [member & use_mask.any(axis=1)[:, None]] * n_own
        else:
            tags = self.association.tag_stack(ap) & use_mask[:, None, :]
            visits = [tags[:, :, local] for local in range(n_own)]
        return pick_in_visit_order(self._drr[ap], visits, primary_mask, any_mask)

    def _plan_round(self, primary_ap: int, item_active: np.ndarray) -> RoundPlan:
        """Greedy §5.3.1 channel-access planning over the whole batch.

        Reads each AP's membership once; selection, coordination and the
        DRR settlement of this round all use that read."""
        aps = (primary_ap + np.arange(self.n_aps)) % self.n_aps
        n_slots, width = self.n_aps, self._slot_width
        members = tuple(self.association.members_mask(ap) for ap in range(self.n_aps))
        active_mask = np.zeros(
            (self.n_items, self.carrier_sense.n_antennas), dtype=bool
        )
        slot_on = np.zeros((self.n_items, n_slots), dtype=bool)
        slot_antennas = np.full((self.n_items, n_slots, width), -1, dtype=int)
        slot_clients = np.full((self.n_items, n_slots, width), -1, dtype=int)
        served = np.zeros((self.n_items, n_slots, self._n_clients), dtype=bool)
        for position, ap in enumerate(aps.tolist()):
            own = self._antennas_of[ap]
            n_own = len(own)
            if position == 0:
                free = np.ones((self.n_items, n_own), dtype=bool)
            else:
                free = self.free_antenna_masks(ap, active_mask)
            if self.mode is MacMode.CAS:
                # One channel state per AP: all antennas or silence.
                participate = item_active & (
                    np.ones(self.n_items, dtype=bool)
                    if position == 0
                    else free.all(axis=1)
                )
                use = np.repeat(participate[:, None], n_own, axis=1)
            else:
                use = free
                participate = item_active & use.any(axis=1)
                use = use & participate[:, None]
            chosen_mask, picks = self._select_clients(ap, use, members[ap], active_mask)
            # Items that do not participate are offered no candidates, so
            # their picks are all -1 already.
            committed = participate & chosen_mask.any(axis=1)
            transmit = use & committed[:, None]
            served[:, position] = chosen_mask
            active_mask[:, own] |= transmit
            slot_on[:, position] = committed
            slot_antennas[:, position, :n_own] = np.where(transmit, own, -1)
            slot_clients[:, position, :n_own] = picks
        self.association.note_served(served.any(axis=1))
        return RoundPlan(
            aps=aps,
            slot_on=slot_on,
            slot_antennas=slot_antennas,
            slot_clients=slot_clients,
            active_mask=active_mask,
            served=served,
            members=members,
        )

    def _settle_round(self, plan: RoundPlan, item_active: np.ndarray) -> None:
        """Per-AP DRR settlement; every AP settles every round (blocked APs
        credit their waiting clients)."""
        for position, ap in enumerate(plan.aps.tolist()):
            served = plan.served[:, position]
            has_served = served.any(axis=1)
            member = plan.members[ap]
            self._drr[ap].settle(served, member & ~served & has_served[:, None])
            self._drr[ap].credit(member & (item_active & ~has_served)[:, None])

    def _score_round(
        self, plan: RoundPlan, sounding_round: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Precode every committed slot and score with mutual interference.

        One masked precoder call solves every committed slot of the round,
        stacked ``(n_committed, A, A)`` in item-then-slot order; one
        batched matmul over ``(batch, slot, other slot, A, A)`` then gives
        every stream's desired, intra-slot and cross-slot powers.  Padded
        streams and antennas are exact zeros throughout, so each slot's
        capacity is a masked sum and each item's a left fold over its slots
        in plan order; an item's floats never depend on its batch.

        Gathers and CSI-noise draws stay on the host (per-item generator
        streams, the RNG contract); the two stacks are transferred
        once to the active :mod:`repro.xp` namespace, and the SINRs come
        back to NumPy for the traffic bookkeeping.  Returns per-item
        capacity, streams and per-AP streams, and the ``(batch, n_slots,
        A)`` per-stream SINRs (0 on padding).
        """
        xp = xpmod.active()
        n_slots, width = self.n_aps, self._slot_width
        clients = plan.slot_clients
        antennas = plan.slot_antennas
        stream_on = clients >= 0
        antenna_on = antennas >= 0
        # Host gather indices (padding reads entry 0, then is zeroed).
        rows = np.maximum(clients, 0)  # repro-lint: disable=RPL001
        cols = np.maximum(antennas, 0)  # repro-lint: disable=RPL001
        with _obs().span("precode"):
            h = self.channel.channel_matrices()
            # Precoders see the stale CSI snapshot of a mobility run; scoring
            # below always uses the current channel.
            if self._mobility is not None and sounding_round:
                self._h_csi = h  # never mutated; aliasing the snapshot is safe
            h_csi = h if self._h_csi is None else self._h_csi
            radio = self.scenario.radio

            # Committed slots in item-then-slot (plan) order.  CSI noise
            # draws consume each item's own generator in that order, on the
            # slot's unpadded (streams, antennas) block.
            item, slot = np.nonzero(plan.slot_on)  # repro-lint: disable=RPL001
            est_np = h_csi[
                item[:, None, None], rows[item, slot][:, :, None], cols[item, slot][:, None, :]
            ]
            est_mask = stream_on[item, slot][:, :, None] & antenna_on[item, slot][:, None, :]
            est_np = np.where(est_mask, est_np, 0.0)  # repro-lint: disable=RPL001
            if self.sim.csi_error_std > 0:
                for index, (b, p) in enumerate(zip(item.tolist(), slot.tolist())):
                    k, a = stream_on[b, p], antenna_on[b, p]
                    block = np.ix_(k, a)
                    est_np[index][block] = apply_csi_error(
                        h_csi[b][np.ix_(clients[b, p, k], antennas[b, p, a])],
                        self.sim.csi_error_std,
                        self._csi_rngs[b],
                    )
            v = xp.zeros((self.n_items, n_slots, width, width), dtype=xp.complex_dtype)
            if item.size:
                _obs().count("xp.to_device.calls", 3)
                _obs().count(
                    "xp.to_device.bytes",
                    est_np.nbytes + 2 * stream_on[item, slot].nbytes,
                )
                stack = xp.asarray(est_np, dtype=xp.complex_dtype)
                masks = {
                    "client_mask": xp.asarray(stream_on[item, slot], dtype=xp.bool_dtype),
                    "antenna_mask": xp.asarray(antenna_on[item, slot], dtype=xp.bool_dtype),
                }
                v[item, slot] = self._precode(stack, **masks)

        with _obs().span("score"):
            # true_np[b, s, o]: slot s's clients x slot o's antennas.
            true_np = h[
                np.arange(self.n_items)[:, None, None, None, None],
                rows[:, :, None, :, None],
                cols[:, None, :, None, :],
            ]
            true_mask = stream_on[:, :, None, :, None] & antenna_on[:, None, :, None, :]
            true_np = np.where(true_mask, true_np, 0.0)  # repro-lint: disable=RPL001
            _obs().count("xp.to_device.calls")
            _obs().count("xp.to_device.bytes", true_np.nbytes)
            true = xp.asarray(true_np, dtype=xp.complex_dtype)
            # power[b, s, o, k, j]: slot o's stream j received by slot s's
            # client k.
            power = xp.abs(true @ v[:, None]) ** 2
            diagonal = xp.arange(n_slots)
            own = power[:, diagonal, diagonal]
            desired = xp.diagonal(own, axis1=-2, axis2=-1)
            intra = xp.sum(own, axis=-1) - desired
            others = xp.asarray(~np.eye(n_slots, dtype=bool), dtype=xp.bool_dtype)
            external = xp.sum(
                xp.where(others[None, :, :, None], xp.sum(power, axis=-1), 0.0), axis=2
            )
            sinr = desired / (radio.noise_mw + intra + external)
            slot_capacity = xpmod.to_numpy(xp.sum(xp.log2(1.0 + sinr), axis=-1))
            sinr_np = xpmod.to_numpy(sinr)

            # Per-item folds over slots in plan order.  These are host-side
            # result buffers (everything feeding them has already crossed
            # to_numpy), hence the RPL001 suppressions.
            capacity = np.zeros(self.n_items)  # repro-lint: disable=RPL001
            for position in range(n_slots):
                capacity = capacity + slot_capacity[:, position]
            streams = plan.streams_per_slot
            per_ap_streams = np.zeros((self.n_items, self.n_aps), dtype=int)  # repro-lint: disable=RPL001
            per_ap_streams[:, plan.aps] = streams
        return capacity, streams.sum(axis=1), per_ap_streams, sinr_np

    def _serve_round(
        self, plan: RoundPlan, sinrs: np.ndarray, item_active: np.ndarray,
        with_sounding: bool,
    ) -> dict:
        """Drain every active item's queues against its per-stream SINRs in
        one :meth:`~repro.traffic.TrafficState.serve_burst` call, streams in
        item, slot and pick order (each item's queue trajectory is that of
        serving its own streams one after another); returns the round's
        traffic columns."""
        item, slot, stream = np.nonzero(plan.slot_clients >= 0)
        if item.size:
            fraction = self._data_fraction[with_sounding][
                plan.streams_per_slot, plan.antennas_per_slot
            ]
            payload_s = self._traffic.round_duration_s * fraction
            self._traffic.serve_burst(
                item,
                plan.slot_clients[item, slot, stream],
                sinrs[item, slot, stream],
                payload_s[item, slot],
            )
        return dict(zip(_TRAFFIC_COLUMNS, self._traffic.end_round(item_active)))

    # ------------------------------------------------------------------
    def evaluate_round(self, primary_ap: int, item_mask=None) -> dict:
        """One concurrent round for every (selected) item, with AP
        ``primary_ap`` planning first.  Returns the round's :class:`RoundLog`
        columns by name, each ``(batch, ...)``; rows of items ``item_mask``
        excludes read 0."""
        item_active = (
            np.ones(self.n_items, dtype=bool)
            if item_mask is None
            else np.asarray(item_mask, dtype=bool)
        )
        if self._traffic is not None:
            with _obs().span("traffic"):
                self._traffic.begin_round(item_active)
        # CSI staleness: sounding rounds re-evaluate every item's
        # association (handoffs + tag re-derivation) here and refresh the
        # stacked snapshot inside the score step (no generator draws either
        # way, so touching inactive items changes nothing they will ever
        # report).
        sounding_round = True
        if self._mobility is not None:
            sounding_round = self._round_index % self._resound_period == 0
            if sounding_round:
                self._resound()
        self._round_index += 1
        with_sounding = self.sim.sounding_overhead and (
            self._mobility is None or sounding_round
        )
        with _obs().span("schedule"):
            plan = self._plan_round(primary_ap, item_active)
        capacity, n_streams, per_ap_streams, sinrs = self._score_round(
            plan, sounding_round
        )
        sounding_us = np.zeros(self.n_items)
        if self._mobility is not None and with_sounding:
            # Per-item accumulation in slot order.
            charge = self._sounding_us[plan.streams_per_slot, plan.antennas_per_slot]
            for position in range(self.n_aps):
                sounding_us = sounding_us + charge[:, position]
        row = {
            "capacity_bps_hz": capacity,
            "n_streams": n_streams,
            "active_antennas": plan.active_mask.sum(axis=1),
            "per_ap_streams": per_ap_streams,
            "sounding_us": sounding_us,
        }
        if self._traffic is not None:
            with _obs().span("traffic"):
                row.update(self._serve_round(plan, sinrs, item_active, with_sounding))
        with _obs().span("schedule"):
            self._settle_round(plan, item_active)
        return row

    def run(self, n_rounds: int = 30, item_mask=None) -> list[RoundBasedResult | None]:
        """Evaluate ``n_rounds`` rounds for every (selected) item, rotating
        the primary AP and advancing all fading processes (and client
        trajectories) in lockstep."""
        if n_rounds < 1:
            raise ValueError("need at least one round")
        item_active = (
            np.ones(self.n_items, dtype=bool)
            if item_mask is None
            else np.asarray(item_mask, dtype=bool)
        )
        traffic = self._traffic
        log = RoundLog(
            n_rounds, self.n_items, self.n_aps, self._n_clients,
            None if traffic is None else traffic.round_duration_s,
        )
        first_round = None if traffic is None else traffic.round_index.copy()
        advance_items = None if item_active.all() else np.flatnonzero(item_active)
        with _obs().span(
            "engine.run", engine="batch", n_items=self.n_items, n_rounds=n_rounds
        ):
            for r in range(n_rounds):
                log.record(r, self.evaluate_round(r % self.n_aps, item_active))
                with _obs().span("channel_advance"):
                    self._advance(self.sim.coherence_block_s, advance_items)
                _obs().count("engine.rounds", int(item_active.sum()))
                _obs().probe(
                    "round", engine="batch", evaluator=self, round_index=r, log=log
                )
        if traffic is not None:
            log.pack_delays(traffic.departures(), first_round)
        return [
            RoundBasedResult(log, b) if item_active[b] else None
            for b in range(self.n_items)
        ]


def count_streams_batch(
    evaluator: RoundBasedEvaluatorBatch, rngs, rounds: int = 12
) -> np.ndarray:
    """Average total simultaneous streams per item over rounds of the
    Fig 12 protocol: random 1-4 streams at the rotating primary AP, then a
    greedy fill of every other AP's free antennas.

    ``rngs`` holds one generator per item (the random primary stream
    counts); draws happen once per round per item, in round order.
    """
    n_items = evaluator.n_items
    n_aps = evaluator.n_aps
    totals = np.zeros((n_items, rounds), dtype=int)
    for r in range(rounds):
        order = [(r + i) % n_aps for i in range(n_aps)]
        primary_antennas = evaluator.antennas_of(order[0])
        n_primary = np.asarray([int(rng.integers(1, 5)) for rng in rngs])
        active = np.zeros((n_items, evaluator.carrier_sense.n_antennas), dtype=bool)
        active[:, primary_antennas] = (
            np.arange(len(primary_antennas))[None, :] < n_primary[:, None]
        )
        total = n_primary.copy()
        for ap in order[1:]:
            free = evaluator.free_antenna_masks(ap, active)
            total = total + free.sum(axis=1)
            active[:, evaluator.antennas_of(ap)] |= free
        totals[:, r] = total
    return totals.mean(axis=1)
