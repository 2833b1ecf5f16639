"""Shared non-fixture test helpers.

Kept out of ``conftest.py`` so test modules can import them explicitly --
``from conftest import ...`` is ambiguous when several conftests (tests/,
benchmarks/) are on ``sys.path``.

The package also hosts the tolerance tier's closeness framework
(:mod:`helpers.closeness`) and the documented per-backend equivalence
contracts (:mod:`helpers.contracts`); the most-used names are re-exported
here.
"""

from __future__ import annotations

import functools

import numpy as np

from .closeness import (  # noqa: F401  (re-export)
    ClosenessError,
    MetricTolerance,
    ToleranceContract,
    assert_close_result,
    assert_close_series,
)
from .contracts import (  # noqa: F401  (re-export)
    EXACT_CONTRACT,
    NUMPY_F32_CONTRACT,
    TORCH_CPU_F64_CONTRACT,
    contract_for,
)


def run_experiment(
    name: str,
    *,
    n_topologies: int | None = None,
    seed: int = 0,
    environment: str | None = None,
    precoder: str | None = None,
    **params,
):
    """Run a registered experiment through a default serial :class:`Runner`.

    ``environment``/``precoder`` map onto the :class:`RunSpec` fields and
    every other keyword becomes an experiment parameter, so tests read
    ``run_experiment("fig15", n_topologies=2, dynamic=True)``.
    """
    from repro.api import Runner, RunSpec

    spec = RunSpec(
        name,
        n_topologies=n_topologies,
        seed=seed,
        environment=environment,
        precoder=precoder,
        params=params,
    )
    return Runner().run(spec)


def experiment_runner(name: str):
    """A ``run(n_topologies=..., seed=...)`` callable for ``name``.

    Shared by the benchmarks (whose figure files pass a bare callable to
    ``run_once``); one adapter, one place to maintain it.
    """
    run = functools.partial(run_experiment, name)
    run.__name__ = name  # type: ignore[attr-defined]
    return run


def random_channel(seed: int, n_clients: int = 4, n_antennas: int = 4) -> np.ndarray:
    """A well-conditioned random complex channel with DAS-like row scales."""
    rng = np.random.default_rng(seed)
    scales = 10 ** rng.uniform(-5.0, -3.0, size=(n_clients, 1))
    fading = (
        rng.standard_normal((n_clients, n_antennas))
        + 1j * rng.standard_normal((n_clients, n_antennas))
    ) / np.sqrt(2)
    return scales * fading
