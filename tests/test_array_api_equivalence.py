"""``backend="array_api"`` on the NumPy namespace vs the vectorized backend.

The acceptance bar for the dispatch layer: running the batched engine
through ``repro.xp`` on the default NumPy/float64 namespace must be
``array_equal`` to ``backend="vectorized"`` for *every* experiment with a
batch hook -- the dispatch indirection itself is not allowed to cost a
single bit.  (Equality across ``batch_size`` and ``jobs`` is pinned by
``test_vectorized_equivalence``; chaining through it makes every exact
configuration mutually exact.)

Also covered here: the runner-level integration seams -- eager
missing-torch errors, xp-config validation, pool workers computing on
the runner's namespace, cache-key sharing between exact backends (and separation
for inexact configs), and the CLI flags.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.api import RunSpec, Runner
from repro.xp import BackendUnavailableError
from test_vectorized_equivalence import EXPERIMENT_CASES

TORCH_MISSING = importlib.util.find_spec("torch") is None


@pytest.mark.parametrize(
    "experiment,spec_kwargs,params",
    EXPERIMENT_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(EXPERIMENT_CASES)],
)
def test_array_api_on_numpy_is_bit_identical_to_vectorized(
    experiment, spec_kwargs, params
):
    spec = RunSpec(experiment, seed=7, params=params, **spec_kwargs)
    vectorized = Runner(backend="vectorized").run(spec)
    array_api = Runner(backend="array_api").run(spec)
    assert set(vectorized.series) == set(array_api.series)
    for key in vectorized.series:
        assert np.array_equal(vectorized.series[key], array_api.series[key]), key


# ----------------------------------------------------------------------
# Runner integration seams
# ----------------------------------------------------------------------
def test_xp_config_is_rejected_on_non_array_api_backends():
    with pytest.raises(ValueError, match="array_api"):
        Runner(backend="vectorized", dtype="float32")
    with pytest.raises(ValueError, match="array_api"):
        Runner(backend="vectorized", namespace="torch")
    with pytest.raises(ValueError, match="array_api"):
        Runner(backend="vectorized", device="cuda")


@pytest.mark.parametrize("experiment", ["fig09", "fig10"])
def test_pool_workers_compute_on_the_runners_namespace(experiment):
    # jobs=2 evaluates every chunk in a worker process, which must activate
    # the runner's namespace itself: a worker left on the default float64
    # namespace would reproduce the float64 run instead of the float32 one.
    spec = RunSpec(experiment, n_topologies=4, seed=7)
    serial = Runner(backend="array_api", dtype="float32").run(spec).series
    pooled = Runner(backend="array_api", dtype="float32", jobs=2).run(spec).series
    float64 = Runner(backend="array_api").run(spec).series
    assert set(pooled) == set(serial)
    for key in serial:
        assert np.array_equal(pooled[key], serial[key]), key
    assert any(not np.array_equal(serial[key], float64[key]) for key in serial)


def test_invalid_xp_configs_fail_at_construction():
    # Eager resolution: a bad config must not wait for .run() to explode.
    with pytest.raises(ValueError, match="dtype"):
        Runner(backend="array_api", dtype="float16")
    with pytest.raises(ValueError, match="device"):
        Runner(backend="array_api", device="cuda")  # numpy namespace is CPU-only


@pytest.mark.skipif(not TORCH_MISSING, reason="torch is installed here")
def test_missing_torch_fails_eagerly_with_the_extra_named():
    with pytest.raises(BackendUnavailableError, match=r"repro-midas\[torch\]"):
        Runner(backend="array_api", namespace="torch")
    # The numpy namespace keeps working after the failed construction.
    result = Runner(backend="array_api").run(RunSpec("fig03", n_topologies=2, seed=1))
    assert result.series


def test_array_api_rejects_definition_without_build_batch():
    # There is no loop fallback left to degrade to: every backend evaluates
    # through build_batch, so a definition without one fails at
    # construction, naming the experiment.
    from repro.api.experiments import ExperimentDef

    with pytest.raises(TypeError, match="_loop_only_xp_probe"):
        ExperimentDef(
            name="_loop_only_xp_probe",
            description="loop-only probe experiment",
            build_batch="not callable",
            finalize=lambda columns, params: columns,
            defaults={"n_topologies": 2},
        )


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_exact_array_api_shares_cache_entries_with_vectorized(tmp_path):
    spec = RunSpec("fig03", n_topologies=3, seed=1)
    first = Runner(backend="vectorized", cache_dir=tmp_path).run(spec)
    # Bit-equal backends share keys: the array_api runner must *hit* the
    # vectorized entry, not write a second one.
    second = Runner(backend="array_api", cache_dir=tmp_path).run(spec)
    assert len(list(tmp_path.iterdir())) == 1
    for key in first.series:
        assert np.array_equal(first.series[key], second.series[key])


def test_inexact_configs_get_their_own_cache_entries(tmp_path):
    spec = RunSpec("fig03", n_topologies=3, seed=1)
    exact = Runner(backend="array_api", cache_dir=tmp_path).run(spec)
    blurred = Runner(backend="array_api", dtype="float32", cache_dir=tmp_path).run(
        spec
    )
    # float32 results are *not* bit-equal; sharing a key would poison the
    # exact backends' cache.
    assert len(list(tmp_path.iterdir())) == 2
    assert not all(
        np.array_equal(exact.series[k], blurred.series[k]) for k in exact.series
    )
    # And the float32 entry round-trips for the same config.
    again = Runner(backend="array_api", dtype="float32", cache_dir=tmp_path).run(spec)
    assert len(list(tmp_path.iterdir())) == 2
    for key in blurred.series:
        assert np.array_equal(blurred.series[key], again.series[key])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_accepts_the_array_api_backend_flags(capsys, tmp_path):
    from repro.experiments.registry import main

    out = tmp_path / "fig03.json"
    code = main(
        [
            "fig03",
            "--topologies",
            "2",
            "--seed",
            "3",
            "--backend",
            "array_api",
            "--dtype",
            "float32",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert "fig03" in capsys.readouterr().out


def test_cli_rejects_xp_flags_without_the_array_api_backend():
    from repro.experiments.registry import main

    with pytest.raises(ValueError, match="array_api"):
        main(["fig03", "--topologies", "2", "--dtype", "float32"])
