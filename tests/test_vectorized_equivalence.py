"""Batch-composition invariance: an item's result never depends on its batch.

The Runner evaluates through an experiment's one ``build_batch`` hook,
handing it contiguous seed chunks whose size depends on ``batch_size`` and
``jobs`` (``batch_size=1`` is one seed per call).  The contract is that a
topology's result must not depend on the batch it is computed in -- its
size, its order, or its neighbours: every registered precoder solves each
item of a stack exactly as it solves that item alone, batched channel
synthesis equals batches of one topology, and every registered experiment
gives the same series at any ``batch_size`` and under ``jobs > 1``.
Everything here asserts ``array_equal`` -- no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.goldens import floats, goldens
from helpers.svd_oracle import svd_waterfilling
from repro.api import (
    PRECODERS,
    RunSpec,
    Runner,
    get_experiment_def,
    precoder_matrix,
    precoder_matrix_batch,
)
from repro.channel.batch import ChannelBatch
from repro.config import RadioConfig
from repro.core import batch as core_batch
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, paired_scenarios

RADIO = RadioConfig()


def _channel_stack(batch: int, n_clients: int, n_antennas: int, seed: int = 0):
    """Random channels with DAS-like per-row dynamic range (kept within the
    conditioning every registered solver, incl. WMMSE, can handle)."""
    rng = np.random.default_rng(seed)
    scale = 10 ** rng.uniform(-4, -2, (batch, n_clients, 1))
    return scale * (
        rng.standard_normal((batch, n_clients, n_antennas))
        + 1j * rng.standard_normal((batch, n_clients, n_antennas))
    )


# ----------------------------------------------------------------------
# Precoders
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def das_channels():
    """A small stack of *real* DAS channels -- the distribution every
    registered solver (incl. the touchier iterative ones) is built for."""
    env = office_b()
    seeds = [3, 14, 159]
    deployment = paired_scenarios(env, [(0.0, 0.0)], seeds=seeds)[AntennaMode.DAS].deployment
    return ChannelBatch(deployment, env.radio, seeds).channel_matrices()


@pytest.mark.parametrize("name", sorted(PRECODERS.names()))
def test_every_registered_precoder_matches_bit_for_bit(name, das_channels):
    h = das_channels
    p, noise = RADIO.per_antenna_power_mw, RADIO.noise_mw
    stacked = precoder_matrix_batch(name, h, p, noise)
    for index, item in enumerate(h):
        assert np.array_equal(stacked[index], precoder_matrix(name, item, p, noise))


def test_one_registry_holds_every_precoder():
    assert set(PRECODERS.names()) == {
        "naive", "balanced", "total_power", "optimal_zf", "wmmse", "full_optimal",
    }


def test_batched_power_balance_metadata_matches():
    h = _channel_stack(32, 4, 4, seed=5)
    p, noise = RADIO.per_antenna_power_mw, RADIO.noise_mw
    stacked = core_batch.power_balanced_precoder(h, p, noise)
    assert stacked.rounds.max() >= 1  # the sweep actually exercised repairs
    assert stacked.rounds.min() < stacked.rounds.max()  # items finish apart
    for index, item in enumerate(h):
        alone = core_batch.power_balanced_precoder(item[None], p, noise)
        assert np.array_equal(stacked.v[index], alone.v[0])
        assert stacked.rounds[index] == alone.rounds[0]
        assert stacked.converged[index] == alone.converged[0]
        assert np.array_equal(stacked.row_powers_mw[index], alone.row_powers_mw[0])
        assert np.array_equal(
            stacked.cumulative_weights[index], alone.cumulative_weights[0]
        )


@pytest.mark.parametrize("budget", [0.5, 3.0, 50.0])
def test_batched_reverse_waterfill_matches_all_branches(budget):
    # Budgets chosen to hit the capped, closed-form, and trivial branches.
    rng = np.random.default_rng(9)
    q = rng.uniform(0.0, 5.0, (40, 4))
    rho = rng.uniform(0.0, 30.0, (40, 4))
    stacked = core_batch.reverse_waterfill(q, rho, budget)
    for i in range(len(q)):
        alone = core_batch.reverse_waterfill(q[i][None], rho[i][None], budget)
        assert np.array_equal(stacked.weights[i], alone.weights[0])
        assert np.array_equal(stacked.reductions_mw[i], alone.reductions_mw[0])
        assert stacked.water_level[i] == alone.water_level[0]
        assert stacked.capped[i] == alone.capped[0]


def _assert_matches_svd_oracle(h, total, noise):
    stacked = core_batch.svd_waterfilling(h, total, noise)
    capacities = stacked.capacity_bps_hz(noise)
    for i, item in enumerate(h):
        v, powers, singular_values = svd_waterfilling(item, total, noise)
        assert np.array_equal(stacked.v[i], v)
        assert np.array_equal(stacked.stream_powers_mw[i], powers)
        snrs = powers * singular_values**2 / noise
        assert capacities[i] == np.sum(np.log2(1.0 + snrs))


def test_batched_svd_waterfilling_matches():
    h = _channel_stack(16, 3, 5, seed=2)
    _assert_matches_svd_oracle(h, 4 * RADIO.per_antenna_power_mw, RADIO.noise_mw)


def test_batched_svd_waterfilling_matches_on_rank_deficient_items():
    # Unusable (zero-gain) modes take an infinite water-filling floor in
    # the same stack as healthy items: duplicated rows, zero rows and zero
    # columns, plus random ones.
    rng = np.random.default_rng(11)
    h = _channel_stack(300, 3, 3, seed=8)
    kind = rng.integers(0, 4, len(h))
    h[kind == 1, 1] = h[kind == 1, 0]  # duplicated row
    h[kind == 2, 2] = 0.0  # zero row
    h[kind == 3, :, 0] = 0.0  # zero column
    h[0] = [[1, 2, 0], [1, 2, 0], [0, 0, 3]]
    _assert_matches_svd_oracle(h, 10.0, 1.0)
    assert (core_batch.svd_waterfilling(h, 10.0, 1.0).stream_powers_mw == 0).any()
    # One item with no usable mode fails the stack, as it fails alone.
    h[5] = 0.0
    with pytest.raises(ValueError, match="usable singular"):
        core_batch.svd_waterfilling(h, 10.0, 1.0)


def test_batch_precoders_reject_single_matrices():
    h = _channel_stack(1, 2, 2)[0]
    with pytest.raises(ValueError):
        core_batch.naive_scaled_precoder(h, 1.0)
    with pytest.raises(ValueError):
        precoder_matrix_batch("naive", h, 1.0, 1e-9)
    with pytest.raises(ValueError, match="stacked"):
        core_batch.svd_waterfilling(h, 1.0, 1e-9)


# ----------------------------------------------------------------------
# Channel batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [AntennaMode.CAS, AntennaMode.DAS])
def test_channel_batch_matches_batches_of_one(mode):
    env = office_b()
    seeds = [11, 22, 33, 44]
    deployment = paired_scenarios(env, [(0.0, 0.0)], seeds=seeds)[mode].deployment
    batch = ChannelBatch(deployment, env.radio, seeds)
    singles = [
        ChannelBatch(deployment.take([i]), env.radio, seeds=[seed])
        for i, seed in enumerate(seeds)
    ]
    grid = np.random.default_rng(1).uniform(-12.0, 12.0, (40, 2))

    stacked_h = batch.channel_matrices()
    stacked_rssi = batch.client_rx_power_dbm()
    stacked_snr = batch.snr_db_map(grid)
    stacked_cross = batch.antenna_cross_power_dbm()
    for i, single in enumerate(singles):
        assert np.array_equal(stacked_h[i], single.channel_matrices()[0])
        assert np.array_equal(stacked_rssi[i], single.client_rx_power_dbm()[0])
        assert np.array_equal(stacked_snr[i], single.snr_db_map(grid)[0])
        assert np.array_equal(stacked_cross[i], single.antenna_cross_power_dbm()[0])

    batch.advance(0.05)
    for i, single in enumerate(singles):
        single.advance(0.05)
        assert np.array_equal(batch.channel_matrices()[i], single.channel_matrices()[0])


# ----------------------------------------------------------------------
# Runner end-to-end
# ----------------------------------------------------------------------
#: Every registered experiment at a tiny size; the slow network-sim
#: experiments run with reduced rounds.
EXPERIMENT_CASES = [
    ("fig03", {"n_topologies": 4}, {}),
    ("fig07", {"n_topologies": 4}, {}),
    ("fig08", {"n_topologies": 3}, {}),
    ("fig09", {"n_topologies": 3}, {}),
    ("fig09", {"n_topologies": 3, "precoder": "wmmse"}, {}),
    ("fig10", {"n_topologies": 4}, {}),
    ("fig11", {"n_topologies": 2}, {}),
    ("fig12", {"n_topologies": 2}, {"rounds_per_topology": 3}),
    ("fig13", {"n_topologies": 2}, {"grid_step_m": 2.0}),
    ("fig14", {"n_topologies": 6}, {}),
    ("fig15", {"n_topologies": 2}, {"rounds_per_topology": 3}),
    ("fig15", {"n_topologies": 2}, {"rounds_per_topology": 2, "dynamic": True, "duration_s": 0.02}),
    ("fig16", {"n_topologies": 1}, {"rounds_per_topology": 2}),
    ("hidden_terminals", {"n_topologies": 2}, {"grid_step_m": 2.0}),
    ("ablation_csi_error", {"n_topologies": 3}, {"error_stds": [0.0, 0.1]}),
    ("ablation_das_radius", {"n_topologies": 3}, {"fractions": [[0.5, 0.75]]}),
    ("ablation_precoders", {"n_topologies": 2}, {"include_full_optimal": False}),
    ("ablation_tag_width", {"n_topologies": 4}, {"widths": [1, 2]}),
    (
        "latency_vs_load",
        {"n_topologies": 2},
        {"offered_loads_mbps": [15.0, 60.0], "rounds_per_topology": 6},
    ),
    (
        "latency_vs_load",
        {"n_topologies": 2, "traffic": "on_off"},
        {"offered_loads_mbps": [30.0], "rounds_per_topology": 6},
    ),
    (
        "mobility_capacity",
        {"n_topologies": 2},
        {"speeds_mps": [0.0, 2.0], "rounds_per_topology": 6},
    ),
    (
        "roaming_handoff",
        {"n_topologies": 2},
        {"speeds_mps": [2.0, 6.0], "rounds_per_topology": 6, "clients_per_ap": 2},
    ),
]


@pytest.mark.parametrize(
    "experiment,spec_kwargs,params",
    EXPERIMENT_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(EXPERIMENT_CASES)],
)
def test_vectorized_backend_is_bit_identical(experiment, spec_kwargs, params):
    spec = RunSpec(experiment, seed=7, params=params, **spec_kwargs)
    reference = Runner().run(spec).series
    for label, runner in {
        "batch_size=1": Runner(batch_size=1),
        "jobs=2": Runner(jobs=2),
    }.items():
        series = runner.run(spec).series
        assert set(series) == set(reference), label
        for key in reference:
            assert np.array_equal(series[key], reference[key]), (label, key)


def test_every_registered_experiment_defines_the_hook():
    # build_batch is the only evaluation hook.
    from repro.api import experiment_names

    for name in experiment_names():
        assert callable(get_experiment_def(name).build_batch), name


#: Rejection-sampled (fig15, both engines) and finite-load sweeps: the cases
#: where batch composition has the most room to leak into a result.  The
#: seed window (stream indices ``start, count`` under root seed 7) holds at
#: least two accepted topologies, so reordering a batch has neighbours to
#: swap (fig15's overhearing gate accepts about one draw in twenty).
COMPOSITION_CASES = [
    ("fig15", 3, {"rounds_per_topology": 3}, (30, 16)),
    (
        "fig15",
        2,
        {"rounds_per_topology": 2, "dynamic": True, "duration_s": 0.02},
        (30, 16),
    ),
    (
        "latency_vs_load",
        3,
        {"offered_loads_mbps": [15.0, 60.0], "rounds_per_topology": 6},
        (0, 3),
    ),
    (
        "mobility_capacity",
        3,
        {"speeds_mps": [0.0, 2.0], "rounds_per_topology": 6},
        (0, 3),
    ),
    (
        "roaming_handoff",
        3,
        {"speeds_mps": [2.0, 6.0], "rounds_per_topology": 6, "clients_per_ap": 2},
        (0, 3),
    ),
]
COMPOSITION_IDS = [
    "fig15-quasi_static",
    "fig15-dynamic",
    "latency_vs_load",
    "mobility_capacity",
    "roaming_handoff",
]


@pytest.mark.parametrize(
    "experiment,n_topologies,params,window", COMPOSITION_CASES, ids=COMPOSITION_IDS
)
def test_results_are_invariant_to_batch_composition(
    experiment, n_topologies, params, window
):
    spec = RunSpec(experiment, n_topologies=n_topologies, seed=7, params=params)
    runners = {
        "batch_size=1": Runner(backend="vectorized", batch_size=1),
        "batch_size=3": Runner(backend="vectorized", batch_size=3),
        "batch_size=default": Runner(backend="vectorized"),
        "jobs=2": Runner(jobs=2),
    }
    results = {label: runner.run(spec).series for label, runner in runners.items()}
    reference = results.pop("batch_size=default")
    for label, series in results.items():
        assert set(series) == set(reference), label
        for key in reference:
            assert np.array_equal(series[key], reference[key]), (label, key)


@pytest.mark.parametrize(
    "experiment,n_topologies,params,window", COMPOSITION_CASES, ids=COMPOSITION_IDS
)
def test_build_batch_outcomes_ignore_order_and_neighbours(
    experiment, n_topologies, params, window
):
    from repro import rng as rng_mod
    from repro.api import resolve_params

    defn = get_experiment_def(experiment)
    resolved = resolve_params(defn, RunSpec(experiment, seed=7, params=params))
    seeds = rng_mod.derived_seeds(7, *window)
    if defn.accept_batch is not None:
        verdicts = defn.accept_batch(seeds, resolved)
        seeds = [seed for seed, ok in zip(seeds, verdicts) if ok]
    assert len(seeds) >= 2
    forward = defn.build_batch(seeds, resolved)
    backward = defn.build_batch(seeds[::-1], resolved)[::-1]
    alone = [defn.build_batch([seed], resolved)[0] for seed in seeds]
    for outcome, other, single in zip(forward, backward, alone):
        for key in outcome:
            assert np.array_equal(outcome[key], other[key]), key
            assert np.array_equal(outcome[key], single[key]), key


#: The rejection-sampled experiments, each with its acceptance gate.
GATED_CASES = [
    ("fig12", 3, {"rounds_per_topology": 3}),
    ("fig15", 3, {"rounds_per_topology": 3}),
    ("fig16", 2, {"rounds_per_topology": 2}),
    ("hidden_terminals", 3, {"grid_step_m": 2.0}),
]


@pytest.mark.parametrize(
    "experiment,n_topologies,params", GATED_CASES, ids=[c[0] for c in GATED_CASES]
)
def test_gated_sweeps_are_invariant_to_chunking(experiment, n_topologies, params):
    """Gate rounds and build chunks of any size, in-process or over the
    pool, accept the same seeds and produce the same series."""
    spec = RunSpec(experiment, n_topologies=n_topologies, seed=7, params=params)
    reference = Runner().run(spec).series
    for label, runner in {
        "batch_size=1": Runner(batch_size=1),
        "batch_size=7": Runner(batch_size=7),
        "jobs=2": Runner(jobs=2),
    }.items():
        series = runner.run(spec).series
        assert set(series) == set(reference), label
        for key in reference:
            assert len(series[key]) == n_topologies, (label, key)
            assert np.array_equal(series[key], reference[key]), (label, key)


@pytest.mark.parametrize(
    "experiment,n_topologies,params", GATED_CASES, ids=[c[0] for c in GATED_CASES]
)
def test_gate_verdicts_ignore_order_and_neighbours(experiment, n_topologies, params):
    from repro import rng as rng_mod
    from repro.api import resolve_params

    defn = get_experiment_def(experiment)
    resolved = resolve_params(defn, RunSpec(experiment, seed=7, params=params))
    seeds = rng_mod.derived_seeds(7, 24, 24)  # holds accepted and rejected seeds
    forward = np.asarray(defn.accept_batch(seeds, resolved))
    backward = np.asarray(defn.accept_batch(seeds[::-1], resolved))[::-1]
    alone = [bool(defn.accept_batch([seed], resolved)[0]) for seed in seeds]
    assert forward.dtype == bool and forward.shape == (len(seeds),)
    np.testing.assert_array_equal(forward, backward)
    np.testing.assert_array_equal(forward, alone)
    if experiment != "fig16":  # fig16's 60 m region places every seed
        assert 0 < forward.sum() < len(seeds)


#: The sweep experiments put their points on the batch axis.  The series of
#: these specs were recorded (``float.hex``) when each sweep point still ran
#: as its own engine, and must not move by one ulp.  The coordinated roaming
#: sweep, fig14 and the tag-width ablation were recorded from repro 7.0.0,
#: while association still kept one state object per item and tags came
#: from a per-item table.  The random-waypoint capacity sweep (with its
#: zero-speed point) was recorded from repro 8.0.0, the last release with
#: one mobility state object per item and one node dict per shadowing field.
SWEEP_GOLDEN_SPECS = {
    "latency_vs_load_series": RunSpec(
        "latency_vs_load", n_topologies=2, seed=5,
        params={"offered_loads_mbps": [15.0, 60.0, 120.0], "rounds_per_topology": 6},
    ),
    "mobility_capacity_series": RunSpec(
        "mobility_capacity", n_topologies=2, seed=5,
        params={"speeds_mps": [0.0, 2.0], "rounds_per_topology": 6},
    ),
    "mobility_capacity_random_waypoint_series": RunSpec(
        "mobility_capacity", n_topologies=2, seed=5, mobility="random_waypoint",
        params={"speeds_mps": [0.0, 2.0], "rounds_per_topology": 6},
    ),
    "roaming_handoff_series": RunSpec(
        "roaming_handoff", n_topologies=2, seed=5,
        params={"speeds_mps": [2.0, 6.0], "rounds_per_topology": 6, "clients_per_ap": 2},
    ),
    "roaming_handoff_coordinated_series": RunSpec(
        "roaming_handoff", n_topologies=2, seed=5,
        params={
            "speeds_mps": [2.0, 6.0], "rounds_per_topology": 6, "clients_per_ap": 2,
            "coordination": "coordinated_scheduling",
        },
    ),
    "fig14_series": RunSpec("fig14", n_topologies=6, seed=5),
    "ablation_tag_width_series": RunSpec(
        "ablation_tag_width", n_topologies=4, seed=5, params={"widths": [1, 2]}
    ),
}


@pytest.mark.parametrize("key", sorted(SWEEP_GOLDEN_SPECS))
def test_sweep_experiments_match_goldens(key):
    expected = goldens()[key]
    for runner in (Runner(), Runner(batch_size=1)):
        series = runner.run(SWEEP_GOLDEN_SPECS[key]).series
        assert set(series) == set(expected)
        for name, values in expected.items():
            assert np.array_equal(series[name], floats(values)), name


@pytest.mark.parametrize("backend", ["gpu", "loop"])
def test_runner_rejects_unknown_backend(backend):
    with pytest.raises(ValueError, match=r"backend.*\('vectorized', 'array_api'\)"):
        Runner(backend=backend)


def test_run_cli_rejects_loop_backend(capsys):
    from repro.experiments.registry import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fig03", "--topologies", "2", "--backend", "loop"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'loop'" in capsys.readouterr().err


def test_vectorized_backend_composes_with_caching(tmp_path):
    spec = RunSpec("fig03", n_topologies=3, seed=1)
    first = Runner(cache_dir=tmp_path).run(spec)
    # A one-seed-per-call runner hits the stacked runner's cache entry:
    # results are bit-equal, so the cache key ignores batch_size.
    second = Runner(batch_size=1, cache_dir=tmp_path).run(spec)
    for key in first.series:
        assert np.array_equal(first.series[key], second.series[key])
    assert len(list(tmp_path.iterdir())) == 1
