"""Network simulation: the paper's quasi-static round protocol (batched; a
single topology is a batch of one) plus the closed-loop discrete-event
CSMA/CA + MU-MIMO extension, in CAS (baseline 802.11ac) or MIDAS mode."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class EventQueue:
    """A priority queue of ``(time_us, callback)`` events.

    Times are absolute microseconds.  Ties break by insertion order, which
    keeps runs deterministic for a fixed seed.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._counter = itertools.count()
        self._now_us = 0.0

    @property
    def now_us(self) -> float:
        """Time of the most recently dispatched event."""
        return self._now_us

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_us: float, callback: Callable[[float], None]) -> None:
        """Enqueue ``callback(time_us)`` to run at ``time_us``.

        Scheduling in the past is a programming error and raises.
        """
        if time_us < self._now_us:
            raise ValueError(
                f"cannot schedule at {time_us} us; clock already at {self._now_us} us"
            )
        heapq.heappush(self._heap, (time_us, next(self._counter), callback))

    def run_until(self, end_us: float) -> int:
        """Dispatch events in time order until the queue drains or the next
        event lies beyond ``end_us``.  Returns the number of events run."""
        dispatched = 0
        while self._heap and self._heap[0][0] <= end_us:
            time_us, __, callback = heapq.heappop(self._heap)
            self._now_us = time_us
            callback(time_us)
            dispatched += 1
        self._now_us = max(self._now_us, end_us)
        return dispatched


# EventQueue must exist before these imports: network.py pulls it from this
# partially initialized package.
from .batch import (  # noqa: E402
    CarrierSenseBatch,
    MacMode,
    RoundBasedEvaluatorBatch,
    RoundBasedResult,
    RoundLog,
)
from .network import NetworkSimulation, SimulationResult  # noqa: E402
from .radio_state import ActiveTransmission, TransmissionLog  # noqa: E402

__all__ = [
    "CarrierSenseBatch",
    "EventQueue",
    "MacMode",
    "NetworkSimulation",
    "RoundBasedEvaluatorBatch",
    "RoundBasedResult",
    "RoundLog",
    "SimulationResult",
    "ActiveTransmission",
    "TransmissionLog",
]
