"""RPL007 near-misses: every registration ships build_batch."""

import numpy as np

from repro.api.experiments import ExperimentDef, register_experiment


def _build_batch(topo_seeds, params):
    return {"capacity": np.asarray(topo_seeds, dtype=float)}


def _finalize(columns, params):
    return columns


@register_experiment
class BatchedExperiment:
    name = "fixture_batched"
    description = "fixture"
    defaults = {"n_topologies": 4}
    build_batch = staticmethod(_build_batch)
    finalize = staticmethod(_finalize)


register_experiment(
    ExperimentDef(
        name="fixture_def_batched",
        description="fixture",
        build_batch=_build_batch,
        finalize=_finalize,
        defaults={"n_topologies": 4},
    )
)
