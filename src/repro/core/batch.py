"""The MIDAS precoders over stacked channel matrices (paper §3.1).

Every function operates on a *stack* of channels ``(batch, n_clients,
n_antennas)`` at once, using broadcasting ``linalg`` (stacked
``svd``/``eigh``/matmul loop over the trailing two axes inside one call); a
single channel is a batch of one (``h[None]``).  The contract -- asserted by
the equivalence suite -- is **batch-composition invariance** on the NumPy
namespace: slice ``i`` of every output is bit-identical whatever else
shares the stack, including the data-dependent control flow of the
power-balancing iteration, which runs with per-item masks that freeze each
item the round its own repair finishes.  Reverse water-filling needs no
masks: it is solved in closed form.

This is the heart of every Runner path: Monte-Carlo sweeps spend their time
in many tiny (4x4-ish) matrix problems, where the Python dispatch overhead
of one-matrix-at-a-time evaluation dwarfs the arithmetic; stacking turns
the sweep into a handful of LAPACK gufunc calls.

All functions are namespace-generic (:mod:`repro.xp`): the governing ``xp``
is inferred from the input stack, so NumPy input computes with NumPy's own
functions (bit-identical to the pre-dispatch code) while torch input stays
on-device through the whole solve.  Rank-deficiency errors are raised as
:class:`numpy.linalg.LinAlgError` on every namespace so callers keep one
exception type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.capacity import per_antenna_row_power, stream_sinrs
from ..xp import array_namespace

#: An item is rank deficient when its K-th singular value is at most this
#: fraction of its largest.
_RCOND = 1e-12


def _as_channel_stack(h):
    xp = array_namespace(h)
    h = xp.asarray(h, dtype=xp.complex_dtype)
    if h.ndim < 3:
        raise ValueError(
            f"expected a stacked channel (batch, n_clients, n_antennas); "
            f"got shape {tuple(h.shape)} (pass h[None] for a single matrix)"
        )
    return h


# ----------------------------------------------------------------------
# Padding masks
# ----------------------------------------------------------------------
def _mask_or_none(xp, mask):
    return None if mask is None else xp.asarray(mask, dtype=xp.bool_dtype)


def _masked(xp, x, mask, fill=0.0):
    """``x`` where ``mask`` holds, ``fill`` elsewhere; no mask is all-true."""
    return x if mask is None else xp.where(mask, x, fill)


def _real_count(xp, mask, batch_shape: tuple, size: int):
    """Real entries per item, ``batch_shape``: ``size`` everywhere when
    there is no mask."""
    if mask is None:
        return xp.full(batch_shape, size, dtype=xp.int_dtype)
    return xp.sum(xp.asarray(mask, dtype=xp.int_dtype), axis=-1)


def _entry_mask(row_mask, column_mask):
    """``(..., n_rows, n_columns)`` mask of a matrix stack's real entries."""
    if row_mask is None and column_mask is None:
        return None
    if row_mask is None:
        return column_mask[..., None, :]
    if column_mask is None:
        return row_mask[..., :, None]
    return row_mask[..., :, None] & column_mask[..., None, :]


# ----------------------------------------------------------------------
# ZFBF and the naive repair
# ----------------------------------------------------------------------
def zfbf_directions(h, *, client_mask=None, antenna_mask=None):
    """Stacked unit-norm ZFBF columns: the pseudo-inverse of each ``H``
    (``V = H†``, so every stream is nulled at every other client, paper
    eq. 2b) with each column (stream) normalized to unit transmit power.

    Each item needs ``n_clients <= n_antennas`` (802.11ac MU-MIMO serves at
    most as many single-antenna clients as AP antennas).  Raises
    :class:`numpy.linalg.LinAlgError` if *any* item is numerically rank
    deficient: the first offending topology aborts the sweep.

    ``client_mask`` ``(..., n_clients)`` and ``antenna_mask``
    ``(..., n_antennas)`` mark each item's real rows and columns in a
    zero-padded stack (no mask means all real).  Item ``b`` with ``K_b``
    real clients is solved on its padded matrix: its rank is judged on its
    own ``K_b``-th singular value, modes past ``K_b`` get no inverse, and
    its padded antenna rows and stream columns come back exactly zero.
    """
    h = _as_channel_stack(h)
    xp = array_namespace(h)
    n_clients, n_antennas = h.shape[-2:]
    if n_clients > n_antennas:
        raise ValueError(
            f"ZFBF needs n_clients <= n_antennas, got {n_clients} > {n_antennas}"
        )
    if n_clients == 0:
        raise ValueError("need at least one client")
    client_mask = _mask_or_none(xp, client_mask)
    antenna_mask = _mask_or_none(xp, antenna_mask)
    entries = _entry_mask(client_mask, antenna_mask)
    h = _masked(xp, h, entries)
    # One SVD serves the rank check and the pseudo-inverse, which is
    # numpy.linalg.pinv's own formula: conjugate, SVD, then V S^-1 U^T.
    u, singular_values, vh = xp.linalg.svd(xp.conj(h), full_matrices=False)
    n_streams = _real_count(xp, client_mask, tuple(h.shape[:-2]), n_clients)
    last = xp.take_along_axis(
        singular_values, xp.maximum(n_streams - 1, 0)[..., None], axis=-1
    )[..., 0]
    if xp.any((n_streams > 0) & (last <= _RCOND * singular_values[..., 0])):
        raise np.linalg.LinAlgError(
            "a channel matrix in the batch is (numerically) rank deficient; "
            "zero-forcing cannot separate these clients"
        )
    modes = None
    if client_mask is not None:
        modes = xp.arange(n_clients) < n_streams[..., None]
    inverse = _masked(xp, 1.0 / _masked(xp, singular_values, modes, 1.0), modes)
    v = xp.swapaxes(vh, -1, -2) @ (inverse[..., None] * xp.swapaxes(u, -1, -2))
    v = _masked(xp, v, _entry_mask(antenna_mask, client_mask))
    norms = _masked(xp, xp.linalg.norm(v, axis=-2), client_mask, 1.0)
    return v / norms[..., None, :]


def zfbf_equal_power(
    h,
    total_power_mw,
    *,
    client_mask=None,
    antenna_mask=None,
):
    """Stacked conventional ZFBF under a *total* power budget (paper eq.
    2a): pseudo-inverse directions with the budget split equally across
    streams.  This is the paper's Step 1 + Step 2, the starting point the
    power-balancing iteration repairs for per-antenna feasibility.

    ``total_power_mw`` is one budget for every item or one per item; each
    item splits it over its own real streams (masks as in
    :func:`zfbf_directions`)."""
    h = _as_channel_stack(h)
    xp = array_namespace(h)
    total = xp.asarray(total_power_mw, dtype=xp.float_dtype)
    if xp.any(total <= 0):
        raise ValueError("total_power_mw must be positive")
    directions = zfbf_directions(
        h, client_mask=client_mask, antenna_mask=antenna_mask
    )
    batch_shape = tuple(h.shape[:-2])
    n_streams = _real_count(
        xp, _mask_or_none(xp, client_mask), batch_shape, directions.shape[-1]
    )
    per_stream = total / xp.maximum(n_streams, 1)
    return directions * xp.sqrt(per_stream)[..., None, None]


def _antenna_budget(xp, h, per_antenna_power_mw, total_power_mw, antenna_mask):
    """Each item's total budget: ``total_power_mw`` if given, else its real
    antennas times ``P`` (at least one antenna's worth, so a fully padded
    item stays finite)."""
    if total_power_mw is not None:
        return total_power_mw
    n_real = _real_count(xp, antenna_mask, tuple(h.shape[:-2]), h.shape[-1])
    return xp.asarray(xp.maximum(n_real, 1), dtype=xp.float_dtype) * per_antenna_power_mw


def naive_scaled_precoder(
    h,
    per_antenna_power_mw: float,
    total_power_mw: float | None = None,
    *,
    client_mask=None,
    antenna_mask=None,
):
    """The naive per-antenna power repair the paper argues against (§3.1.1).

    Equal-power ZFBF, then one global scaling per item whose worst row
    violates the per-antenna budget ``P`` (paper eq. 5).  This preserves
    zero-forcing but strands power on every other antenna -- acceptably in
    a CAS, whose rows of ``V`` are nearly balanced, but disastrously in a
    DAS, whose topology imbalance makes rows wildly unequal (paper Fig 3).
    It is the paper's precoding baseline ("a simple extension to
    conventional ZFBF", §5.1).  ``total_power_mw`` is the budget of the
    initial equal split; it defaults to each item's real antennas times
    ``P`` (masks as in :func:`zfbf_directions`).
    """
    if per_antenna_power_mw <= 0:
        raise ValueError("per_antenna_power_mw must be positive")
    h = _as_channel_stack(h)
    xp = array_namespace(h)
    antenna_mask = _mask_or_none(xp, antenna_mask)
    total_power_mw = _antenna_budget(
        xp, h, per_antenna_power_mw, total_power_mw, antenna_mask
    )
    v = zfbf_equal_power(
        h, total_power_mw, client_mask=client_mask, antenna_mask=antenna_mask
    )
    row_powers = _masked(xp, per_antenna_row_power(v), antenna_mask, -xp.inf)
    worst_row = xp.max(row_powers, axis=-1)
    # Items already feasible multiply by exactly 1.0 (a bit-exact no-op).
    scale = xp.where(
        worst_row > per_antenna_power_mw,
        xp.sqrt(per_antenna_power_mw / worst_row),
        1.0,
    )
    return v * scale[..., None, None]


# ----------------------------------------------------------------------
# Reverse water-filling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchWaterfillResult:
    """Stacked outcome of reverse water-filling, one row solution per item."""

    weights: np.ndarray  # (..., n_streams) scaling weights in (0, 1]
    reductions_mw: np.ndarray  # (..., n_streams) power removed per stream
    water_level: np.ndarray  # (...,) 1/lambda at each item's solution
    capped: np.ndarray  # (...,) True where the min-weight floor bound


def reverse_waterfill(
    row_powers_mw,
    sinrs,
    power_budget_mw: float,
    min_weight: float = 0.1,
) -> BatchWaterfillResult:
    """Reverse water-filling of violating antenna rows (paper §3.1.2,
    eqs. 7-9).

    Given the most-violating antenna (row ``k*`` of the precoder), enough
    power must be *removed* from the row to restore the per-antenna budget
    ``P`` while losing as little sum rate as possible.  The paper's
    Lagrangian solution reduces stream ``j`` by
    ``P_j = [(1 + 1/rho_j) * |v_kj|^2 - 1/lambda]+``, where ``rho_j`` is the
    stream's current SINR and ``1/lambda`` is the water level.  Two paper
    requirements shape the solver: (i) no stream may reach zero power, so
    reductions are capped at ``(1 - min_weight^2)`` of the element's power;
    (ii) only reductions are allowed, since increases could re-violate rows
    already fixed.  The returned ``weights`` multiply the precoder's
    *columns* (preserving zero-forcing):
    ``weights[j] = sqrt(1 - P_j / |v_kj|^2)``.

    ``row_powers_mw`` and ``sinrs`` are ``(..., n_streams)`` stacks; the
    budget and weight floor are shared scalars (one radio config per batch).

    The water level is solved in closed form, with no iteration.  The
    total reduction ``f(L) = sum_j clip(m_j - L, 0, c_j)`` over marginals
    ``m_j`` and caps ``c_j`` is continuous, non-increasing and linear
    between its breakpoints ``m_j`` and ``m_j - c_j``.  Evaluating ``f`` at
    all ``2K`` sorted breakpoints at once brackets the root of
    ``f(L) = required`` in one segment.  Inside it every stream is
    untouched, at its cap, or on the water line (cut by ``m_j - L``), so
    one linear equation gives the level.  That equation is solved relative
    to the highest on-line marginal ``top``: the reductions come out as
    ``d_j - shift`` with ``d_j = m_j - top``, never as ``m_j - L``, so
    zero-SINR streams (marginals near ``1e12 * q``) never cancel
    catastrophically and the budget is met to rounding.
    """
    xp = array_namespace(row_powers_mw, sinrs)
    q = xp.asarray(row_powers_mw, dtype=xp.float_dtype)
    rho = xp.asarray(sinrs, dtype=xp.float_dtype)
    if tuple(q.shape) != tuple(rho.shape) or q.ndim < 2:
        raise ValueError(
            "row_powers_mw and sinrs must be equal-shape stacks (..., n_streams)"
        )
    if power_budget_mw <= 0:
        raise ValueError("power_budget_mw must be positive")
    if not 0.0 < min_weight < 1.0:
        raise ValueError("min_weight must be in (0, 1)")
    if xp.any(q < 0) or xp.any(rho < 0):
        raise ValueError("row powers and SINRs must be non-negative")

    total = xp.sum(q, axis=-1)
    required = total - power_budget_mw
    trivial = required <= 0

    rho_safe = xp.maximum(rho, 1e-12)
    marginal = (1.0 + 1.0 / rho_safe) * q  # water-level coordinates per stream
    caps = (1.0 - min_weight**2) * q  # max removable power per stream (req. i)
    floors = marginal - caps  # levels at or below which a stream is at its cap
    # Every marginal is at least its cap, so level 0 cuts every stream to it.
    capped = ~trivial & (required >= xp.sum(caps, axis=-1))

    # --- capped branch: min-weight caps bind everywhere ----------------
    capped_weights = xp.sqrt(xp.maximum(1.0 - caps / xp.maximum(q, 1e-300), 0.0))
    capped_weights = xp.where(q > 0, xp.maximum(capped_weights, min_weight), 1.0)

    # --- closed-form branch --------------------------------------------
    # f is non-increasing, so the last breakpoint still cutting at least
    # `required` is the left end of the segment holding the root.
    breaks = xp.sort(xp.concatenate([floors, marginal], axis=-1), axis=-1)
    cut = xp.sum(
        xp.clip(marginal[..., None, :] - breaks[..., :, None], 0.0, caps[..., None, :]),
        axis=-1,
    )
    n_cutting = xp.sum(cut >= required[..., None], axis=-1)
    left = xp.clip(n_cutting - 1, 0, breaks.shape[-1] - 2)[..., None]
    lo = xp.take_along_axis(breaks, left, axis=-1)
    hi = xp.take_along_axis(breaks, left + 1, axis=-1)
    at_cap = floors >= hi
    on_line = (marginal > lo) & ~at_cap
    top = xp.max(xp.where(on_line, marginal, 0.0), axis=-1)
    offsets = xp.where(on_line, marginal - top[..., None], 0.0)
    n_line = xp.asarray(xp.maximum(xp.sum(on_line, axis=-1), 1), dtype=xp.float_dtype)
    shift = (
        xp.sum(offsets, axis=-1) + xp.sum(xp.where(at_cap, caps, 0.0), axis=-1) - required
    ) / n_line
    level = top + shift
    reductions = xp.clip(
        xp.where(at_cap, caps, xp.where(on_line, offsets - shift[..., None], 0.0)),
        0.0,
        caps,
    )

    with xp.errstate(divide="ignore", invalid="ignore"):
        ratio = xp.where(q > 0, reductions / xp.maximum(q, 1e-300), 0.0)
    solved_weights = xp.sqrt(xp.clip(1.0 - ratio, min_weight**2, 1.0))

    # --- select per-item branch results --------------------------------
    ones = xp.ones_like(q)
    weights = xp.where(
        trivial[..., None],
        ones,
        xp.where(capped[..., None], capped_weights, solved_weights),
    )
    reductions_out = xp.where(
        trivial[..., None],
        xp.zeros_like(q),
        xp.where(capped[..., None], caps, reductions),
    )
    water_level = xp.where(trivial, xp.inf, xp.where(capped, 0.0, level))
    return BatchWaterfillResult(
        weights=weights,
        reductions_mw=reductions_out,
        water_level=water_level,
        capped=capped,
    )


# ----------------------------------------------------------------------
# MIDAS power balancing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchPrecodingResult:
    """Stacked precoders together with how each item reached its solution."""

    v: np.ndarray  # (batch, n_antennas, n_clients)
    rounds: np.ndarray  # (batch,) water-filling rounds per item
    converged: np.ndarray  # (batch,) all rows feasible at exit
    row_powers_mw: np.ndarray  # (batch, n_antennas) final per-antenna powers
    cumulative_weights: np.ndarray  # (batch, n_clients) product of scalings

    @property
    def n_antennas(self) -> int:
        return self.v.shape[-2]

    @property
    def n_clients(self) -> int:
        return self.v.shape[-1]


def power_balanced_precoder(
    h,
    per_antenna_power_mw: float,
    noise_mw: float,
    *,
    total_power_mw: float | None = None,
    min_weight: float = 0.1,
    rtol: float = 1e-9,
    client_mask=None,
    antenna_mask=None,
) -> BatchPrecodingResult:
    """MIDAS power-balanced precoding (paper §3.1.2, Steps 1-4).

    1. compute equal-power ZFBF (total budget ``n_antennas * P``);
    2. find the antenna (row) violating the per-antenna constraint the most;
    3. reverse water-fill that row to obtain per-stream scaling weights;
    4. apply each weight to the stream's whole *column* -- which preserves
       the zero-forcing property -- and repeat until all rows are feasible.

    Because weights never exceed 1, repaired rows can only get lighter, so
    an item finishes in at most ``n_antennas`` rounds whenever the
    ``min_weight`` floor never binds.  Each round is closed-form: the
    precoder is fast enough to run inside a channel coherence time, unlike
    the numerical optimum (Fig 11's discussion).  ``rtol`` is the relative
    tolerance on the per-antenna constraint.

    The repair loop runs over the whole batch with an *active* mask: each
    round, items whose worst row is already feasible stop updating (their
    precoders are multiplied by exact 1.0 weights), so every item traces
    the round sequence -- and bit pattern -- it would trace alone.

    ``client_mask`` / ``antenna_mask`` mark each item's real clients and
    antennas in a zero-padded stack (see :func:`zfbf_directions`).  An item
    is then budgeted, repaired and round-capped on its real antennas only;
    its padded streams carry zero row power, which reverse water-filling
    leaves untouched (weight 1).
    """
    if per_antenna_power_mw <= 0:
        raise ValueError("per_antenna_power_mw must be positive")
    if noise_mw <= 0:
        raise ValueError("noise_mw must be positive")
    h = _as_channel_stack(h)
    xp = array_namespace(h)
    n_clients, n_antennas = h.shape[-2:]
    client_mask = _mask_or_none(xp, client_mask)
    antenna_mask = _mask_or_none(xp, antenna_mask)
    h = _masked(xp, h, _entry_mask(client_mask, antenna_mask))
    total_power_mw = _antenna_budget(
        xp, h, per_antenna_power_mw, total_power_mw, antenna_mask
    )

    v = zfbf_equal_power(
        h, total_power_mw, client_mask=client_mask, antenna_mask=antenna_mask
    )
    batch_shape = tuple(h.shape[:-2])
    cumulative = xp.ones(batch_shape + (n_clients,), dtype=xp.float_dtype)
    budget = per_antenna_power_mw * (1.0 + rtol)

    rounds = xp.zeros(batch_shape, dtype=xp.int_dtype)
    active = xp.ones(batch_shape, dtype=xp.bool_dtype)
    # The paper's bound is n_antennas rounds; allow a few extra for the rare
    # case the min-weight cap binds and a row needs a second visit.  Each
    # item is capped on its own real antennas.
    max_rounds = 3 * n_antennas + 5
    round_cap = 3 * _real_count(xp, antenna_mask, batch_shape, n_antennas) + 5
    for _ in range(max_rounds):
        row_powers = per_antenna_row_power(v)
        worst = xp.argmax(_masked(xp, row_powers, antenna_mask, -xp.inf), axis=-1)
        worst_power = xp.take_along_axis(row_powers, worst[..., None], axis=-1)[..., 0]
        active = active & (worst_power > budget) & (rounds < round_cap)
        if not xp.any(active):
            break
        rounds = rounds + xp.where(active, 1, 0)
        sinrs = stream_sinrs(h, v, noise_mw)
        worst_rows = xp.take_along_axis(v, worst[..., None, None], axis=-2)[..., 0, :]
        result = reverse_waterfill(
            xp.abs(worst_rows) ** 2,
            sinrs,
            per_antenna_power_mw,
            min_weight=min_weight,
        )
        weights = xp.where(active[..., None], result.weights, 1.0)
        v = v * weights[..., None, :]
        cumulative = cumulative * weights
        capped_now = active & result.capped
        if xp.any(capped_now):
            # Min-weight floor bound: finish the row with a uniform scale so
            # the loop is guaranteed to make progress (ZF still preserved).
            row_power = xp.take_along_axis(
                per_antenna_row_power(v), worst[..., None], axis=-1
            )[..., 0]
            needs_scale = capped_now & (row_power > per_antenna_power_mw)
            scale = xp.where(
                needs_scale, xp.sqrt(per_antenna_power_mw / row_power), 1.0
            )
            v = v * scale[..., None, None]
            cumulative = cumulative * scale[..., None]

    row_powers = per_antenna_row_power(v)
    return BatchPrecodingResult(
        v=v,
        rounds=rounds,
        converged=xp.max(row_powers, axis=-1) <= budget,
        row_powers_mw=row_powers,
        cumulative_weights=cumulative,
    )


# ----------------------------------------------------------------------
# Single-user SVD water-filling (paper §7 comparator)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSvdAllocation:
    """Stacked SVD precoding solutions for a batch of single-client links."""

    v: np.ndarray  # (batch, n_tx, n_streams)
    stream_powers_mw: np.ndarray  # (batch, n_streams)
    singular_values: np.ndarray  # (batch, n_streams)

    def capacity_bps_hz(self, noise_mw: float):
        """Shannon capacity of the parallel streams, per item."""
        xp = array_namespace(self.stream_powers_mw, self.singular_values)
        snrs = self.stream_powers_mw * self.singular_values**2 / noise_mw
        return xp.sum(xp.log2(1.0 + snrs), axis=-1)


def svd_waterfilling(
    h, total_power_mw: float, noise_mw: float
) -> BatchSvdAllocation:
    """SVD precoding + water-filling power allocation (total power
    constraint, paper §7 comparator), solved for all items at once.

    ``h`` stacks single-client MIMO channels ``(batch, n_rx, n_tx)``.
    Streams ride the right singular vectors; powers solve the classic
    water-filling problem ``p_i = max(0, mu - 1/g_i)``, ``sum p_i = P``,
    over the singular-value channels.  A mode with zero gain is unusable:
    its floor ``1/g`` is ``inf``, so it sorts last, no water level clears
    it, and it gets no power.  Raises :class:`ValueError` if an item has
    no usable mode at all.
    """
    if total_power_mw <= 0 or noise_mw <= 0:
        raise ValueError("powers must be positive")
    h = _as_channel_stack(h)
    xp = array_namespace(h)
    __, singular_values, vh = xp.linalg.svd(h, full_matrices=False)
    gains = singular_values**2 / noise_mw  # per-stream SNR per unit power
    usable = gains > 0
    if not xp.all(xp.any(usable, axis=-1)):
        raise ValueError("channel has no usable singular modes")

    with xp.errstate(divide="ignore"):
        inv_gains = xp.where(usable, 1.0 / gains, xp.inf)
    order = xp.argsort(inv_gains, axis=-1)
    sorted_inv = xp.take_along_axis(inv_gains, order, axis=-1)
    n = sorted_inv.shape[-1]

    # Walk k = n..1, taking each item's first (largest-k) water level that
    # clears the k-th channel; a prefix holding an unusable mode sums to
    # inf and never clears it.
    item_shape = tuple(sorted_inv.shape[:-1])
    mu = xp.zeros(item_shape, dtype=xp.float_dtype)
    n_active = xp.full(item_shape, n)
    found = xp.zeros(item_shape, dtype=xp.bool_dtype)
    for k in range(n, 0, -1):
        candidate_mu = (total_power_mw + xp.sum(sorted_inv[..., :k], axis=-1)) / k
        take = ~found & (candidate_mu > sorted_inv[..., k - 1])
        mu = xp.where(take, candidate_mu, mu)
        n_active = xp.where(take, k, n_active)
        found = found | take

    powers_sorted = xp.clip(mu[..., None] - sorted_inv, 0.0, None)
    powers_sorted = xp.where(
        xp.arange(n) < n_active[..., None], powers_sorted, 0.0
    )
    powers = xp.zeros_like(powers_sorted)
    xp.put_along_axis(powers, order, powers_sorted, axis=-1)

    v = xp.conj(xp.swapaxes(vh, -1, -2)) * xp.sqrt(powers)[..., None, :]
    return BatchSvdAllocation(
        v=v, stream_powers_mw=powers, singular_values=singular_values
    )
