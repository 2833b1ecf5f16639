"""Reverse water-filling (paper §3.1.2, eqs. 7-9).

Given the most-violating antenna (row ``k*`` of the precoding matrix), we
must *remove* enough power from the row to restore the per-antenna budget
``P`` while losing as little sum rate as possible.  The paper's Lagrangian
solution gives the power reduction of stream ``j`` as

    ``P_j = [ (1 + 1/rho_j) * |v_kj|^2  -  1/lambda ]+``

where ``rho_j`` is the stream's current SINR and ``1/lambda`` plays the role
of the water level: streams whose (SINR-weighted) row power pokes above the
level are shaved down to it, streams below it are untouched.  Two paper
requirements shape the solver:

* (i) **no stream may reach zero power** -- a zeroed column would drop the
  stream entirely, so reductions are capped at ``(1 - min_weight^2)`` of the
  element's power;
* (ii) **only reductions are allowed** (``P_j >= 0``) -- increases could
  re-violate antennas that were already fixed and prevent convergence.

The level is found in closed form by
:func:`repro.core.batch.reverse_waterfill`; this single-row form is that
kernel on a batch of one, so both backends share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import reverse_waterfill as _reverse_waterfill_stack


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of one reverse water-filling on one antenna row."""

    weights: np.ndarray  # per-stream scaling weights w_j in (0, 1]
    reductions_mw: np.ndarray  # per-stream power removed from this row
    water_level: float  # 1/lambda at the solution
    capped: bool  # True if the min-weight floor was binding

    @property
    def feasible(self) -> bool:
        """Whether the requested budget was actually reached."""
        return not self.capped


def reverse_waterfill(
    row_powers_mw: np.ndarray,
    sinrs: np.ndarray,
    power_budget_mw: float,
    min_weight: float = 0.1,
) -> WaterfillResult:
    """Compute scaling weights for one violating antenna row.

    Parameters
    ----------
    row_powers_mw:
        ``|v_kj|^2`` for each stream ``j`` on the violating antenna ``k``.
    sinrs:
        Current stream SINRs ``rho_j`` (post-ZF, so SNRs).
    power_budget_mw:
        The per-antenna constraint ``P`` the row must meet.
    min_weight:
        Floor on each weight so no stream is eliminated (paper req. (i)).

    Returns
    -------
    WaterfillResult
        ``weights`` multiply the *columns* of the precoder (so the ZF
        property is preserved); ``weights[j] = sqrt(1 - P_j / |v_kj|^2)``.
    """
    q = np.asarray(row_powers_mw, dtype=float)
    rho = np.asarray(sinrs, dtype=float)
    if q.shape != rho.shape or q.ndim != 1:
        raise ValueError("row_powers_mw and sinrs must be 1-D with equal length")
    result = _reverse_waterfill_stack(q[None], rho[None], power_budget_mw, min_weight)
    return WaterfillResult(
        weights=result.weights[0],
        reductions_mw=result.reductions_mw[0],
        water_level=float(result.water_level[0]),
        capped=bool(result.capped[0]),
    )
