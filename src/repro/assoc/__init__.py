"""Client<->AP association & multi-AP coordination layer.

See :mod:`repro.assoc.policies` for the policy registry and
:mod:`repro.assoc.state` for the stacked state the engines consume.
"""

from .policies import (
    AssociationPolicy,
    HysteresisHandoffPolicy,
    NearestAnchorPolicy,
    StrongestRssiPolicy,
)
from .state import (
    BatchAssociationState,
    CoordinationMode,
    association_names,
    build_batch_association_state,
    resolve_association,
    resolve_coordination,
)

__all__ = [
    "AssociationPolicy",
    "BatchAssociationState",
    "CoordinationMode",
    "HysteresisHandoffPolicy",
    "NearestAnchorPolicy",
    "StrongestRssiPolicy",
    "association_names",
    "build_batch_association_state",
    "resolve_association",
    "resolve_coordination",
]
