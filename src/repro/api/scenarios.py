"""The office environments as a registry.

The paper's two office environments are registered by name so specs, CLIs,
and user code can select them with a string instead of importing factory
functions.  Experiments import the scenario factories from
:mod:`repro.topology.scenarios` directly.  Third-party environments plug in
with the same decorator::

    @register_environment("warehouse")
    def warehouse() -> OfficeEnvironment: ...
"""

from __future__ import annotations

from ..topology.scenarios import OfficeEnvironment, office_a, office_b
from .registry import ENVIRONMENTS, register_environment

register_environment("office_a")(office_a)
register_environment("office_b")(office_b)


def environment_named(name: str) -> OfficeEnvironment:
    """Instantiate the registered environment ``name``."""
    return ENVIRONMENTS.get(name)()


def resolve_environment(value, default: str = "office_b") -> OfficeEnvironment:
    """Resolve an environment given as a name, an instance, or ``None``.

    ``None`` falls back to ``default``; :class:`OfficeEnvironment` instances
    pass through unchanged (legacy call sites construct them directly).
    """
    if value is None:
        return environment_named(default)
    if isinstance(value, OfficeEnvironment):
        return value
    return environment_named(value)
