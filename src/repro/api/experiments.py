"""Experiment definitions: the pluggable unit the :class:`Runner` executes.

An experiment is a set of pure functions over plain parameter dicts:

``accept_batch(topo_seeds, params) -> (n,) bool`` (optional)
    The acceptance gate of a rejection-sampled experiment (placement
    constraints, overhearing rules): one verdict per seed, in order.  The
    runner gates derived-seed chunks with it until ``n_topologies`` seeds
    pass, and builds only those.  An experiment without it accepts every
    seed.  Verdict ``i`` must not depend on the batch it was computed in.

``build_batch(topo_seeds, params) -> dict[str, np.ndarray]``
    Evaluate a batch of accepted topology seeds (stacked channel
    synthesis + batched linear algebra), returning named columns: one
    ``(len(topo_seeds), ...)`` array per name, row ``i`` for seed ``i``.
    It never rejects (reject seeds in ``accept_batch`` instead).  This is
    the only evaluation hook: a single topology is a batch of one, and
    the runner calls it with contiguous seed chunks whose size depends on
    ``batch_size`` and ``jobs``.  Row ``i`` must not depend on the batch
    it was computed in (its size, order, or neighbours), and every chunk
    must return the same names.

Both hooks must be module-level callables so worker processes can resolve
them.

``finalize(columns, params) -> ExperimentResult``
    Reduce the accepted seeds' columns into named series.  The runner
    concatenates the chunks' columns name by name, in derived-seed-stream
    order.  When a seed window accepts no seed, every name reads as an
    empty float series.

Modules register experiments with the :func:`register_experiment`
decorator, either on an :class:`ExperimentDef` factory call or on a class
carrying ``name``/``description``/``defaults``/``build_batch``/``finalize``
(and optionally ``accept_batch``) attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .registry import EXPERIMENTS
from .result import ExperimentResult

AcceptBatchFn = Callable[[Sequence[int], dict], np.ndarray]
BatchBuildFn = Callable[[Sequence[int], dict], Mapping[str, np.ndarray]]
FinalizeFn = Callable[[Mapping[str, np.ndarray], dict], ExperimentResult]

_RESERVED_PARAMS = {"seed"}


@dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: defaults plus build_batch/finalize callables
    and an optional accept_batch gate."""

    name: str
    description: str
    build_batch: BatchBuildFn
    finalize: FinalizeFn
    defaults: Mapping[str, Any] = field(default_factory=dict)
    accept_batch: AcceptBatchFn | None = None

    def __post_init__(self):
        if not callable(self.build_batch):
            raise TypeError(
                f"experiment {self.name!r} must define a callable build_batch "
                f"hook, got {type(self.build_batch).__name__}"
            )
        if self.accept_batch is not None and not callable(self.accept_batch):
            raise TypeError(
                f"experiment {self.name!r} accept_batch must be callable or "
                f"None, got {type(self.accept_batch).__name__}"
            )
        if "n_topologies" not in self.defaults:
            raise ValueError(
                f"experiment {self.name!r} must declare an n_topologies default"
            )
        bad = _RESERVED_PARAMS & set(self.defaults)
        if bad:
            raise ValueError(
                f"experiment {self.name!r} defaults may not include {sorted(bad)}"
            )


def register_experiment(obj):
    """Register an :class:`ExperimentDef` (or a class describing one).

    Usable as a decorator on a definition class::

        @register_experiment
        class Fig03:
            name = "fig03"
            description = "..."
            defaults = {"n_topologies": 60}
            build_batch = staticmethod(_build_batch)
            finalize = staticmethod(_finalize)

    or called directly with an :class:`ExperimentDef`.
    """
    if isinstance(obj, ExperimentDef):
        defn = obj
    else:
        defn = ExperimentDef(
            name=obj.name,
            description=obj.description,
            build_batch=getattr(obj, "build_batch", None),
            finalize=obj.finalize,
            defaults=dict(obj.defaults),
            accept_batch=getattr(obj, "accept_batch", None),
        )
    EXPERIMENTS.add(defn.name, defn)
    return obj


def get_experiment_def(name: str) -> ExperimentDef:
    """Registered definition for ``name`` (loading the built-ins first)."""
    load_builtin_experiments()
    return EXPERIMENTS.get(name)


def experiment_names() -> list[str]:
    """All registered experiment names (loading the built-ins first)."""
    load_builtin_experiments()
    return EXPERIMENTS.names()


def load_builtin_experiments() -> None:
    """Import the built-in experiment modules so they self-register.

    Idempotent; safe to call from worker processes spawned without the
    parent's module state.
    """
    from .. import experiments  # noqa: F401  (import triggers registration)
