"""Recorded reference outputs of the retired per-topology engines.

``goldens.json`` holds what the per-topology ``RoundBasedEvaluator``,
``ChannelModel``, fig12 ``count_streams`` and ``NetworkSimulation`` of
repro 3.0.0 produced for the cases the tests name, as ``float.hex``
strings so every value round-trips exactly.  The batched engines were
bit-identical to those references when they were recorded; the tests
assert they still are (``array_equal``, no tolerances).

The ``*_series`` keys hold the ``float.hex`` series of the
``latency_vs_load``, ``mobility_capacity`` and ``roaming_handoff``
experiments as repro 5.0.0 produced them, when every sweep point still ran
as its own engine (``tests/test_vectorized_equivalence.py`` names the
specs).  ``roaming_handoff_coordinated_series``, ``fig14_series``,
``ablation_tag_width_series`` and ``network_handoffs`` (the event engine's
roaming handoff log, tag builds and result) were recorded from repro 7.0.0,
the last release with one association state object per batch item.
``mobility_capacity_random_waypoint_series`` was recorded from repro 8.0.0,
the last release with one mobility state object per item and one lattice
node dict per shadowing field.  ``network_coordinated`` (the event engine's
coordinated-scheduling veto under roaming), ``network_csi_error`` and
``fig15_dynamic_jobs`` (fig15 ``dynamic`` at ``jobs=1``, which ``jobs=2``
must match) were recorded from repro 12.0.0, the last release whose event
engine kept its own copy of the stages it shares with the round engine.

Layout: one top-level key per case family.  A round-engine run is a dict of
per-round lists (``capacity``, ``n_streams``, ``active_antennas``,
``per_ap_streams``, ``sounding_us`` and, under finite load, ``traffic``);
complex arrays are ``{"re": ..., "im": ...}`` pairs.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np


@lru_cache(maxsize=None)
def goldens() -> dict:
    """The decoded JSON document (hex strings still encoded)."""
    return json.loads(Path(__file__).with_name("goldens.json").read_text())


def _decode(value):
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return float.fromhex(value)


def floats(value) -> np.ndarray:
    """Decode a (nested) list of ``float.hex`` strings, or a complex pair."""
    if isinstance(value, dict):
        real = floats(value["re"])
        out = np.empty(real.shape, dtype=complex)
        out.real = real
        out.imag = floats(value["im"])
        return out
    return np.asarray(_decode(value), dtype=float)


def _equal(actual, expected) -> bool:
    return np.array_equal(np.asarray(actual, dtype=float), floats(expected))


def assert_rounds_match(result, golden: dict) -> None:
    """Every recorded per-round column of ``result`` (a ``RoundBasedResult``)
    equals the golden run exactly."""
    log, item = result.log, result.item
    assert log.n_rounds == len(golden["capacity"])
    assert _equal(result.column("capacity_bps_hz"), golden["capacity"])
    assert result.column("n_streams").tolist() == golden["n_streams"]
    assert result.column("active_antennas").tolist() == golden["active_antennas"]
    assert result.column("per_ap_streams").tolist() == golden["per_ap_streams"]
    assert _equal(result.column("sounding_us"), golden["sounding_us"])
    if "traffic" not in golden:
        return
    traffic = golden["traffic"]
    assert _equal(result.column("arrived_bytes"), traffic["arrived"])
    assert _equal(result.column("served_bytes"), traffic["served"])
    assert _equal(result.column("queue_bytes"), traffic["queue"])
    assert len(traffic["delays"]) == log.n_rounds
    for r, (delays, categories, served) in enumerate(zip(
        traffic["delays"], traffic["categories"], traffic["served_per_client"]
    )):
        span = log.delay_span(item, r)
        assert _equal(log.delays_s[span], delays)
        assert log.delay_categories[span].astype(int).tolist() == categories
        assert _equal(result.column("served_per_client")[r], served)


def assert_network_matches(result, golden: dict) -> None:
    """A ``SimulationResult`` equals the golden event-engine run exactly."""
    assert _equal(result.per_client_bits_per_hz, golden["per_client"])
    assert result.txop_count == golden["txop_count"]
    assert result.stream_count == golden["stream_count"]
    assert _equal(result.mean_concurrent_streams, golden["mean_concurrent"])
    assert _equal(result.collision_fraction, golden["collision_fraction"])
    if "traffic" not in golden:
        assert result.traffic is None
        return
    traffic, summary = golden["traffic"], result.traffic
    assert _equal(summary.arrived_bytes, traffic["arrived"])
    assert _equal(summary.served_bytes, traffic["served"])
    assert _equal(summary.queue_bytes, traffic["queue"])
    assert _equal(summary.delays_s, traffic["delays"])
    assert summary.delay_categories.astype(int).tolist() == traffic["categories"]
    assert _equal(summary.served_per_client, traffic["served_per_client"])
