"""802.11 MAC substrate plus the MIDAS DAS-aware MAC (paper §3.2).

The baseline pieces (slotted CSMA/CA backoff, NAV virtual carrier sense,
EDCA access categories, frame durations) follow 802.11ac's 5 GHz MAC; the
MIDAS pieces (per-antenna channel state, opportunistic antenna selection)
are the paper's contribution and are deliberately small deltas on top --
that is the point of the design.  Per-antenna physical carrier sensing is
:class:`repro.sim.batch.CarrierSenseBatch`.
"""

from .backoff import BackoffState
from .edca import AccessCategory
from .frames import FrameDurations
from .nav import NavTable

__all__ = [
    "BackoffState",
    "AccessCategory",
    "FrameDurations",
    "NavTable",
]
