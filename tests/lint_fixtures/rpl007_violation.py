"""Seeded RPL007 violations: registered experiments with no batch hook."""

from repro.api.experiments import ExperimentDef, register_experiment


def _build(topo_seed, params):
    return {"capacity": float(topo_seed)}


def _finalize(outcomes, params):
    return outcomes


# VIOLATION: no build_batch -- the Runner has no hook to evaluate through.
@register_experiment
class UnbatchedExperiment:
    name = "fixture_unbatched"
    description = "fixture"
    defaults = {"n_topologies": 4}
    build = staticmethod(_build)
    finalize = staticmethod(_finalize)


# VIOLATION: a loop_fallback attribute is not an opt-out.
@register_experiment
class DeclaredFallbackExperiment:
    loop_fallback = "event-driven engine; no batched formulation yet"
    name = "fixture_fallback"
    description = "fixture"
    defaults = {"n_topologies": 4}
    build = staticmethod(_build)
    finalize = staticmethod(_finalize)


# VIOLATION: nor is a loop-fallback marker comment.
# repro-lint: loop-fallback (per-topology by construction)
register_experiment(
    ExperimentDef(
        name="fixture_def_fallback",
        description="fixture",
        build=_build,
        finalize=_finalize,
        defaults={"n_topologies": 4},
    )
)
