"""Correctness gate for every ``Runner.run`` the benchmark makes.

Part one holds for any seed: the series keys and shapes are the ones the
experiment documents, every value is finite and non-negative, fractions lie
in [0, 1], and the no-handoff baseline never hands off.  Part two applies to
the warm-up run at :data:`workloads.REFERENCE_SEED`: each series' median
must match ``reference.json`` to :data:`MEDIAN_RTOL`.

The tolerance is loose enough for a legitimate numerics change: scaling the
water-fill weights by 1 + 3e-9 (the closed-form water-fill's bound) moves
no median by more than 2e-8.  It is tight enough for a broken kernel:
loosening the water-fill bisection tolerance from 1e-9 to 1e-4 moves the
office_capacity and three_ap_network capacity medians by 1.6e-6 to 3.7e-6,
and capping power balancing at one round moves medians on every workload
by 8e-3 or more.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

MEDIAN_RTOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def describe(series: dict) -> dict:
    """The reference record of one run: per-series trailing shape + median."""
    return {
        key: {
            "shape": list(np.shape(values)[1:]),
            "median": float(np.median(values)),
        }
        for key, values in sorted(series.items())
    }


def invariant_failures(series: dict, n_topologies: int, expected: dict) -> list[str]:
    """Seed-independent checks; returns one message per violation."""
    failures = []
    if sorted(series) != sorted(expected):
        failures.append(f"series keys {sorted(series)} != {sorted(expected)}")
        return failures
    for key, values in series.items():
        values = np.asarray(values, dtype=float)
        shape = (n_topologies, *expected[key]["shape"])
        if values.shape != shape:
            failures.append(f"{key}: shape {values.shape} != {shape}")
            continue
        if not np.all(np.isfinite(values)):
            failures.append(f"{key}: non-finite values")
        elif np.any(values < 0):
            failures.append(f"{key}: negative values")
        if key.endswith("outage_fraction") and np.any(values > 1):
            failures.append(f"{key}: fraction above 1")
        if key == "nearest_anchor_handoffs" and np.any(values != 0):
            failures.append(f"{key}: the no-handoff baseline handed off")
    return failures


def median_failures(series: dict, expected: dict) -> list[str]:
    """Per-series medians against the reference record."""
    failures = []
    for key, record in expected.items():
        got = float(np.median(series[key]))
        want = record["median"]
        if not np.isclose(got, want, rtol=MEDIAN_RTOL, atol=1e-12):
            failures.append(f"{key}: median {got!r} != reference {want!r}")
    return failures
