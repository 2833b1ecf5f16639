"""RPL007 near-misses: every registration ships build_batch."""

from repro.api.experiments import ExperimentDef, register_experiment


def _build_batch(topo_seeds, params):
    return [{"capacity": float(s)} for s in topo_seeds]


def _finalize(outcomes, params):
    return outcomes


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
