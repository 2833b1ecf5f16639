"""Public session API: ``RunSpec`` -> ``Runner`` -> ``RunResult``.

One declarative spec replaces one bespoke experiment module::

    from repro.api import RunSpec, Runner

    result = Runner(jobs=4).run(RunSpec("fig09", n_topologies=60, seed=0))
    print(result.summary())

Pluggability comes from three decorator-driven registries --
:func:`register_precoder`, :func:`register_environment` and
:func:`register_experiment` -- so new algorithms and workloads drop in by
name without touching the runner.
"""

from .experiments import (
    ExperimentDef,
    experiment_names,
    get_experiment_def,
    load_builtin_experiments,
    register_experiment,
)
from .precoders import (
    capacity_for,
    capacity_for_batch,
    precoder_matrix,
    precoder_matrix_batch,
)
from .registry import (
    ASSOCIATION,
    COORDINATION,
    ENVIRONMENTS,
    EXPERIMENTS,
    MOBILITY,
    PRECODERS,
    TRAFFIC,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    register_association,
    register_environment,
    register_mobility,
    register_precoder,
    register_traffic,
)
from .result import ExperimentResult, RunResult
from .runner import Runner, resolve_params
from .scenarios import environment_named, resolve_environment
from .spec import RunSpec

__all__ = [
    "ExperimentDef",
    "experiment_names",
    "get_experiment_def",
    "load_builtin_experiments",
    "register_experiment",
    "capacity_for",
    "capacity_for_batch",
    "precoder_matrix",
    "precoder_matrix_batch",
    "ASSOCIATION",
    "COORDINATION",
    "ENVIRONMENTS",
    "EXPERIMENTS",
    "MOBILITY",
    "PRECODERS",
    "TRAFFIC",
    "DuplicateNameError",
    "Registry",
    "UnknownNameError",
    "register_association",
    "register_environment",
    "register_mobility",
    "register_precoder",
    "register_traffic",
    "ExperimentResult",
    "RunResult",
    "Runner",
    "resolve_params",
    "environment_named",
    "resolve_environment",
    "RunSpec",
]
