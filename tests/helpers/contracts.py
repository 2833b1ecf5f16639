"""Documented per-backend equivalence contracts.

The backend equivalence story has two tiers (see ``docs/api.md``):

bit-identical
    ``vectorized`` == ``array_api`` on the default NumPy/float64
    namespace, at every ``batch_size`` and ``jobs``.  Checked with ``np.array_equal`` (the
    :data:`EXACT_CONTRACT` here encodes the same thing for callers that
    want one code path through ``assert_close_result``).

tolerance contract
    Every other namespace/dtype configuration.  The contracts below are
    the *documented* guarantees those configurations must meet against
    the vectorized reference, and ``tests/test_tolerance_tier.py``
    enforces them.

Rationale for the numbers:

* **torch CPU / float64** -- same IEEE doubles, different kernels (MKL vs
  OpenBLAS SVD, pairwise vs sequential summation).  Deviations are a few
  ULPs through the precoder + log2 chain; ``rtol=1e-8`` (about 1e8 times
  machine epsilon of slack) absorbs kernel differences while still
  catching any real algorithmic divergence.
* **float32** (either namespace) -- machine epsilon 1.19e-7 amplified by
  the SVD/waterfill/log2 chain; empirically the array_api-on-NumPy
  float32 path lands within ~1e-6 relative of the float64 reference on
  smooth capacity series, so ``rtol=1e-4`` gives two orders of headroom.
* **padded round scoring** -- the round engine solves each round's slots
  as one zero-padded ``(n_slots, A, A)`` stack, whose SVD and matmuls round
  differently from the unpadded ``(K, N)`` blocks the grouped-by-shape
  reference (``helpers/score_oracle.py``) solves.  Capacities moved by at
  most 3e-15 relative across the recorded goldens; over 1,500 random
  plans capacities moved by at most 1.1e-14 and per-stream SINRs by
  1.3e-13 relative.  ``rtol=1e-9`` leaves four orders of headroom and
  still catches any stream scored against the wrong precoder or
  interference.  Integer round fields (streams, antennas) stay exact.
* **ordering-sensitive experiments** -- pipelines that branch on
  comparisons of continuous scores (greedy argmax antenna selection,
  MCS threshold lookup, carrier-sense capture verdicts).  A sub-ULP score
  difference can flip a discrete decision and change individual samples
  by whole MCS steps, so elementwise bounds are the wrong contract; the
  guarantee is distributional -- each checked quantile within
  ``quantile_atol`` of the reference (plus one sketch bin of slack).

All tolerances bound *backend* deviation, not reproduction accuracy; the
figures' accuracy against the paper is the exact configuration's business.
"""

from __future__ import annotations

from .closeness import MetricTolerance, ToleranceContract

__all__ = [
    "EXACT_CONTRACT",
    "PADDED_SCORE_CONTRACT",
    "TORCH_CPU_F64_CONTRACT",
    "NUMPY_F32_CONTRACT",
    "ORDERING_SENSITIVE",
    "contract_for",
]

# Experiments whose series pass through discrete decisions (threshold,
# argmax, or capture comparisons) between the floating-point compute and
# the reported sample -- the distributional tier applies there.
ORDERING_SENSITIVE = frozenset(
    {
        "fig07",  # greedy flat-argmax client-antenna mapping
        "fig12",  # carrier-sense capture verdicts gate the tx sets
        "fig13",  # MCS/decodability thresholds define the deadzone count
        "fig14",  # tagged selection search branches on capacity compares
        "fig15",  # round-based MAC: capture + DRR branch per round
        "fig16",  # eight-AP round-based MAC, same branching
        "hidden_terminals",  # NAV/busy verdicts are thresholded
        "latency_vs_load",  # queue service order branches on MCS rates
        "mobility_capacity",  # staleness re-selection branches
        "ablation_tag_width",  # tag-collision verdicts are discrete
    }
)

EXACT_CONTRACT = ToleranceContract(name="exact")
"""Zero tolerance: what bit-identical backends must trivially satisfy."""

PADDED_SCORE_CONTRACT = ToleranceContract(
    name="padded-score", default=MetricTolerance(rtol=1e-9)
)
"""The padded one-pass round scoring against the grouped-by-shape oracle."""

_TORCH_F64 = MetricTolerance(rtol=1e-8, atol=1e-11)
_TORCH_F64_DISTRIBUTIONAL = MetricTolerance(
    rtol=1e-8, atol=1e-11, elementwise=False, quantile_atol=0.05
)

TORCH_CPU_F64_CONTRACT = ToleranceContract(
    name="torch-cpu-float64", default=_TORCH_F64
)
"""Smooth series on torch CPU doubles: kernel-level ULP noise only."""

_F32 = MetricTolerance(rtol=1e-4, atol=1e-5)
_F32_DISTRIBUTIONAL = MetricTolerance(
    rtol=1e-4, atol=1e-5, elementwise=False, quantile_atol=0.25
)

NUMPY_F32_CONTRACT = ToleranceContract(name="float32", default=_F32)
"""Single precision on either namespace: epsilon-amplified smooth series."""


def contract_for(experiment: str, namespace: str, dtype: str) -> ToleranceContract:
    """The documented contract for one experiment under one xp config.

    The exact configuration (numpy/float64) gets :data:`EXACT_CONTRACT`;
    float32 on either namespace gets the float32 tier; torch/float64 the
    kernel-noise tier.  Ordering-sensitive experiments swap the default
    tolerance for its distributional variant on every inexact
    configuration.
    """
    if namespace == "numpy" and dtype == "float64":
        return EXACT_CONTRACT
    if dtype == "float32":
        base, default = NUMPY_F32_CONTRACT, _F32_DISTRIBUTIONAL
    else:
        base, default = TORCH_CPU_F64_CONTRACT, _TORCH_F64_DISTRIBUTIONAL
    if experiment in ORDERING_SENSITIVE:
        return ToleranceContract(
            name=f"{base.name}:{experiment}:distributional", default=default
        )
    return ToleranceContract(name=f"{base.name}:{experiment}", default=base.default)
