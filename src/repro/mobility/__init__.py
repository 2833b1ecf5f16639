"""Client mobility & CSI staleness: moving channels for every engine.

The paper's headline claim for MIDAS's closed-form reverse water-filling is
that it runs inside a channel coherence time and so beats slow numerical
optima *on moving channels* (Fig. 11).  This package supplies the moving
part: registered mobility models (``static``, ``random_waypoint``,
``gauss_markov``, ``trace`` -- see
:func:`register_mobility <repro.api.registry.register_mobility>`) drive
per-round client position updates, the large-scale channel is re-evaluated
along each trajectory, per-client Doppler follows actual speed, and the
engines model CSI staleness end-to-end: precoders are computed from the CSI
captured at the last sounding and scored against the current channel, with
a configurable re-sounding period charged through
:mod:`repro.phy.sounding`.

Quick use::

    from repro.sim import MacMode, RoundBasedEvaluatorBatch

    [result] = RoundBasedEvaluatorBatch(
        [scenario], MacMode.MIDAS, seeds=[0], mobility="gauss_markov",
        mobility_kwargs={"speed_mps": 1.2}, resound_period_rounds=4,
    ).run(40)
    result.mean_capacity_bps_hz, result.mean_sounding_us

or declaratively, ``RunSpec("mobility_capacity", mobility="gauss_markov")``.
"""

from .models import (
    GaussMarkovMobility,
    MobilityModel,
    RandomWaypointMobility,
    StaticMobility,
    TraceMobility,
    mobility_names,
    resolve_mobility,
)
from .state import MobilityState, build_mobility_state

__all__ = [
    "GaussMarkovMobility",
    "MobilityModel",
    "RandomWaypointMobility",
    "StaticMobility",
    "TraceMobility",
    "mobility_names",
    "resolve_mobility",
    "MobilityState",
    "build_mobility_state",
]
