"""Named-plugin registries for precoders, environments, and experiments.

A :class:`Registry` maps string keys to callables (or richer definition
objects) and replaces the ad-hoc if/elif dispatch and hand-maintained dicts
the experiment layer grew up with.  Registration is decorator-driven::

    @register_precoder("balanced")
    def balanced(h, per_antenna_power_mw, noise_mw): ...

Lookups of unknown names raise :class:`UnknownNameError`, which lists every
registered name -- and subclasses both :class:`KeyError` and
:class:`ValueError` so existing callers catching either keep working.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

T = TypeVar("T")


class UnknownNameError(KeyError, ValueError):
    """Lookup of a name that was never registered."""

    def __init__(self, kind: str, name: str, known: list[str]):
        self.kind = kind
        self.name = name
        self.known = known
        hint = ", ".join(known) if known else "<registry is empty>"
        super().__init__(f"unknown {kind} {name!r}; registered: {hint}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __reduce__(self):  # default reduction passes args=(message,) to __init__
        return (UnknownNameError, (self.kind, self.name, self.known))


class DuplicateNameError(ValueError):
    """Registration under a name that is already taken."""


class Registry(Generic[T]):
    """An ordered name -> object mapping with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._items: dict[str, T] = {}

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator registering the wrapped object under ``name``."""
        if not isinstance(name, str) or not name:
            raise TypeError(f"{self.kind} name must be a non-empty string")

        def wrap(obj: T) -> T:
            self.add(name, obj)
            return obj

        return wrap

    def add(self, name: str, obj: T) -> T:
        """Imperative registration (the decorator's workhorse)."""
        if name in self._items:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered"
            )
        self._items[name] = obj
        return obj

    def get(self, name: str) -> T:
        try:
            return self._items[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def names(self) -> list[str]:
        return sorted(self._items)

    def items(self):
        return self._items.items()

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


#: The built-in registries backing the public API.
PRECODERS: Registry = Registry("precoder")
ENVIRONMENTS: Registry = Registry("environment")
EXPERIMENTS: Registry = Registry("experiment")
TRAFFIC: Registry = Registry("traffic model")
MOBILITY: Registry = Registry("mobility model")
ASSOCIATION: Registry = Registry("association policy")
COORDINATION: Registry = Registry("coordination mode")


def register_precoder(name: str):
    """Register ``fn(h, per_antenna_power_mw, noise_mw) -> v`` as a precoder.

    ``fn`` solves a stacked channel ``(batch, n_clients, n_antennas)`` and
    returns stacked precoders ``(batch, n_antennas, n_streams)``; each item
    must not depend on the rest of the stack (a single channel is a batch
    of one).
    """
    return PRECODERS.register(name)


def register_environment(name: str):
    """Register an :class:`OfficeEnvironment` factory."""
    return ENVIRONMENTS.register(name)


def register_traffic(name: str):
    """Register ``fn(rate_mbps, **kwargs) -> TrafficModel`` as an arrival
    process (see :mod:`repro.traffic`)."""
    return TRAFFIC.register(name)


def register_mobility(name: str):
    """Register ``fn(**kwargs) -> MobilityModel`` as a client mobility model
    (see :mod:`repro.mobility`)."""
    return MOBILITY.register(name)


def register_association(name: str):
    """Register ``fn(**kwargs) -> AssociationPolicy`` as a client<->AP
    association policy (see :mod:`repro.assoc`).  The policy owns the
    client->AP map: it is re-evaluated at every sounding, and the engines
    consume its membership, tag, and handoff state instead of computing
    their own."""
    return ASSOCIATION.register(name)
