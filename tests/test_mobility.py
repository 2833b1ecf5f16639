"""Mobility subsystem tests: models, state, engine threading, staleness.

The two contracts every test here circles around:

* ``mobility=None`` and ``mobility="static"`` are bit-identical to each
  other and to the pre-mobility engines (the frozen-topology path is
  untouched), and
* finite-speed series are bit-identical between the scalar and vectorized
  round engines (``array_equal``, no tolerances).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import MOBILITY, RunSpec, Runner
from repro.config import SimConfig
from repro.mobility import (
    GaussMarkovMobility,
    MobilityState,
    RandomWaypointMobility,
    StaticMobility,
    TraceMobility,
    build_mobility_state,
    mobility_names,
    resolve_mobility,
)
from helpers import mobility_oracle
from helpers.goldens import assert_network_matches, assert_rounds_match, goldens
from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
from repro.sim.network import NetworkSimulation
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario, three_ap_scenario

ENV = office_b()
SEEDS = [0, 1, 2]

MOVING_CASES = [
    ("gauss_markov", {"speed_mps": 1.5}),
    ("random_waypoint", {"speed_mps": 2.0}),
]


GOLDEN = goldens()


def _deployment(*seeds):
    return single_ap_scenario(ENV, AntennaMode.DAS, seeds=seeds or [0]).deployment


def one_state(model, deployment, rng):
    """The stacked mobility state of one topology: a batch of one."""
    return MobilityState([model], deployment, [rng])


def one_topology(scenario, mode, seed, **kwargs):
    """The round engine on one topology: a batch of one."""
    return RoundBasedEvaluatorBatch(scenario, mode, seeds=[seed], **kwargs)


class TestRegistry:
    def test_builtin_names(self):
        for name in ("static", "random_waypoint", "gauss_markov", "trace"):
            assert name in mobility_names()
            assert name in MOBILITY

    def test_resolve_by_name_with_kwargs(self):
        model = resolve_mobility("gauss_markov", speed_mps=2.0)
        assert isinstance(model, GaussMarkovMobility)
        assert model.speed_mps == 2.0

    def test_resolve_passthrough_instance(self):
        model = StaticMobility()
        assert resolve_mobility(model) is model
        with pytest.raises(ValueError):
            resolve_mobility(model, speed_mps=1.0)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="gauss_markov"):
            resolve_mobility("levy_flight")


class TestModels:
    def test_static_is_static(self):
        assert StaticMobility().is_static
        assert not GaussMarkovMobility().is_static

    def test_random_waypoint_speed_mps_sets_range(self):
        model = RandomWaypointMobility(speed_mps=2.0)
        assert model.speed_min_mps == pytest.approx(1.0)
        assert model.speed_max_mps == pytest.approx(3.0)

    def test_random_waypoint_invalid_speeds(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(speed_min_mps=3.0, speed_max_mps=1.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(speed_mps=-1.0)

    def test_gauss_markov_validation(self):
        with pytest.raises(ValueError):
            GaussMarkovMobility(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovMobility(speed_mps=-0.1)

    def test_gauss_markov_speed_std_scales_with_speed(self):
        assert GaussMarkovMobility(speed_mps=0.0).speed_std_mps == 0.0
        assert GaussMarkovMobility(speed_mps=2.0).speed_std_mps == pytest.approx(0.6)

    @pytest.mark.parametrize("name,kwargs", MOVING_CASES)
    def test_clients_move_and_stay_in_roaming_box(self, name, kwargs):
        deployment = _deployment()
        model = resolve_mobility(name, **kwargs)
        state = one_state(model, deployment, np.random.default_rng(0))
        start = state.positions[0].copy()
        lo, hi = (corner[0] for corner in model.roaming_bounds(deployment))
        for __ in range(200):
            state.advance(0.02)
            assert np.all(state.positions[0] >= lo - 1e-9)
            assert np.all(state.positions[0] <= hi + 1e-9)
        assert not np.allclose(state.positions[0], start)
        assert np.all(state.speeds_mps >= 0)

    def test_gauss_markov_mean_speed_tracks_parameter(self):
        deployment = _deployment()
        model = GaussMarkovMobility(speed_mps=1.2)
        state = one_state(model, deployment, np.random.default_rng(1))
        speeds = []
        for __ in range(500):
            state.advance(0.02)
            speeds.append(state.speeds_mps[0].copy())
        assert np.mean(speeds) == pytest.approx(1.2, rel=0.2)

    def test_zero_speed_gauss_markov_parks_clients(self):
        deployment = _deployment()
        state = one_state(
            GaussMarkovMobility(speed_mps=0.0), deployment, np.random.default_rng(2)
        )
        start = state.positions[0].copy()
        for __ in range(20):
            state.advance(0.02)
        np.testing.assert_array_equal(state.positions[0], start)
        np.testing.assert_array_equal(state.speeds_mps[0], np.zeros(len(start)))

    def test_trace_playback_interpolates(self):
        deployment = _deployment()
        n = deployment.n_clients
        points = [
            [[0.0, float(i), 0.0], [1.0, float(i), 10.0]] for i in range(n)
        ]
        state = one_state(
            TraceMobility(points=points), deployment, np.random.default_rng(0)
        )
        state.advance(0.5)
        np.testing.assert_allclose(state.positions[0, :, 1], 5.0)
        np.testing.assert_allclose(state.speeds_mps[0], 10.0)
        # Clamped past the recorded span.
        state.advance(2.0)
        np.testing.assert_allclose(state.positions[0, :, 1], 10.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceMobility(points=())
        with pytest.raises(ValueError, match="increase"):
            TraceMobility(points=[[[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]])
        deployment = _deployment()
        one_client = TraceMobility(points=[[[0.0, 0.0, 0.0]]])
        with pytest.raises(ValueError, match="clients"):
            one_state(one_client, deployment, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_trace_rejects_non_finite_rows(self, bad, column):
        row = [0.5, 1.0, 2.0]
        row[column] = bad
        with pytest.raises(ValueError, match="client 1: .*finite"):
            TraceMobility(points=[[[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], row]])

    def test_trace_equality_compares_logs(self):
        log = [[[0.0, 1.0, 2.0], [1.0, 3.0, 4.0]]]
        assert TraceMobility(points=log) == TraceMobility(points=log)
        assert TraceMobility(points=log) != TraceMobility(points=[[[0.0, 1.0, 2.0]]])
        assert TraceMobility(points=log) != GaussMarkovMobility()


class TestMobilityState:
    def test_doppler_from_speed(self):
        deployment = _deployment()
        state = one_state(
            GaussMarkovMobility(speed_mps=1.5), deployment, np.random.default_rng(0)
        )
        state.advance(0.02)
        assert state.doppler_hz(0.05).shape == (1, deployment.n_clients)
        np.testing.assert_array_equal(
            state.doppler_hz(0.05), state.speeds_mps / 0.05
        )
        with pytest.raises(ValueError):
            state.doppler_hz(0.0)

    def test_static_model_rejected(self):
        with pytest.raises(ValueError, match="static"):
            one_state(StaticMobility(), _deployment(), np.random.default_rng(0))

    def test_build_helper_sentinels(self):
        deployment = _deployment()
        rng = np.random.default_rng(0)
        assert build_mobility_state(None, [None], deployment, [rng]) is None
        assert build_mobility_state("static", [None], deployment, [rng]) is None
        state = build_mobility_state(
            "gauss_markov", [{"speed_mps": 1.0}], deployment, [rng]
        )
        assert isinstance(state, MobilityState)
        assert state.positions.shape == (1, deployment.n_clients, 2)

    def test_equal_models_share_one_group(self):
        state = build_mobility_state(
            "gauss_markov",
            [{"speed_mps": 1.0}, {"speed_mps": 2.0}, {"speed_mps": 1.0}, {}],
            _deployment(0, 1, 2, 3),
            [np.random.default_rng(s) for s in range(4)],
        )
        groups = [items.tolist() for __, items, *__ in state._groups]
        assert groups == [[0, 2], [1], [3]]

    def test_negative_step_rejected(self):
        state = one_state(GaussMarkovMobility(), _deployment(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            state.advance(-0.01)


def _trace_for(n_clients: int) -> TraceMobility:
    rng = np.random.default_rng(99)
    return TraceMobility(
        points=[
            np.column_stack(([0.0, 0.05, 0.4], rng.uniform(-10, 10, (3, 2)))).tolist()
            for __ in range(n_clients)
        ]
    )


#: A pool of item models: gauss_markov under two kwargs sets, random
#: waypoint parked and fast enough to reach several waypoints in one step,
#: and trace playback.
_MODEL_POOL = [
    GaussMarkovMobility(speed_mps=1.5),
    GaussMarkovMobility(speed_mps=0.7, alpha=0.4, heading_std_rad=1.5),
    RandomWaypointMobility(speed_mps=0.0),
    RandomWaypointMobility(speed_mps=40.0),
    RandomWaypointMobility(),
    _trace_for(_deployment().n_clients),
]


class TestStackedMatchesPerItemOracle:
    """One stacked state over a mixed batch moves every item exactly as the
    per-item state of repro 8.0.0 moved it alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, len(_MODEL_POOL) - 1), min_size=1, max_size=6),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.003, 0.02, 0.02, 0.25, 1.7]),
                st.none() | st.lists(st.booleans(), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(
        picks=[0, 3, 1, 2, 5, 4],
        advances=[
            (0.02, None),
            (0.0, None),
            (1.7, [True, False, True, True, False, True]),
            (0.003, None),
            (0.25, [False, True, False, True, True, False]),
        ],
    )
    def test_positions_speeds_clocks_and_draws(self, picks, advances):
        models = [_MODEL_POOL[p] for p in picks]
        deployment = _deployment(*(b % 2 for b in range(len(models))))
        stacked = MobilityState(
            models, deployment, [np.random.default_rng(100 + b) for b in range(len(models))]
        )
        oracles = [
            mobility_oracle.MobilityState(
                model, deployment.take([b]), np.random.default_rng(100 + b)
            )
            for b, model in enumerate(models)
        ]
        for dt_s, mask in advances:
            items = None if mask is None else np.flatnonzero(mask[: len(models)])
            moved = stacked.advance(dt_s, items=items)
            chosen = range(len(models)) if items is None else items
            for b in chosen:
                oracles[b].advance(dt_s)
            np.testing.assert_array_equal(moved, stacked.positions[list(chosen)])
            for b, oracle in enumerate(oracles):
                np.testing.assert_array_equal(stacked.positions[b], oracle.positions)
                np.testing.assert_array_equal(stacked.speeds_mps[b], oracle.speeds_mps)
                assert stacked.time_s[b] == oracle.time_s
                assert (
                    stacked._rngs[b].bit_generator.state == oracle.rng.bit_generator.state
                )


class TestStaticBitIdentity:
    """``mobility=None`` == ``mobility="static"`` on every engine, and the
    first round of a moving run (sounded, not yet moved) matches static."""

    def test_round_engine_static_sentinel(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[3])
        [a] = one_topology(scenario, MacMode.MIDAS, 3).run(6)
        [b] = one_topology(scenario, MacMode.MIDAS, 3, mobility="static").run(6)
        for name in ("capacity_bps_hz", "n_streams"):
            assert np.array_equal(a.column(name), b.column(name))
        assert np.all(a.column("sounding_us") == 0.0)
        assert np.all(b.column("sounding_us") == 0.0)

    def test_batch_engine_static_sentinel(self):
        scenarios = three_ap_scenario(ENV, seeds=SEEDS)[AntennaMode.DAS]
        a = RoundBasedEvaluatorBatch(scenarios, MacMode.MIDAS, seeds=SEEDS).run(4)
        b = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS, mobility="static"
        ).run(4)
        for ra, rb in zip(a, b):
            assert np.array_equal(
                ra.column("capacity_bps_hz"), rb.column("capacity_bps_hz")
            )

    def test_network_sim_static_sentinel(self):
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        sim = SimConfig(duration_s=0.03)
        a = NetworkSimulation(scenario, MacMode.MIDAS, sim, seed=0).run()
        b = NetworkSimulation(
            scenario, MacMode.MIDAS, sim, seed=0, mobility="static"
        ).run()
        np.testing.assert_array_equal(
            a.per_client_bits_per_hz, b.per_client_bits_per_hz
        )
        assert a.txop_count == b.txop_count

    def test_first_round_matches_static(self):
        # Round 0 of a mobility run is freshly sounded and nothing has
        # moved yet, so its plan/precoders/SINRs must equal the static
        # run's round 0 exactly (tags re-derive to the same tables).
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[5])
        static = one_topology(scenario, MacMode.MIDAS, 5)
        moving = one_topology(
            scenario, MacMode.MIDAS, 5,
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 2.0},
            resound_period_rounds=3,
        )
        a = static.evaluate_round(0)
        b = moving.evaluate_round(0)
        assert np.array_equal(a["capacity_bps_hz"], b["capacity_bps_hz"])
        assert np.array_equal(a["n_streams"], b["n_streams"])


class TestFiniteSpeedGoldens:
    """Moving-client runs reproduce the retired per-topology engine."""

    @pytest.mark.parametrize("name,kwargs", MOVING_CASES)
    @pytest.mark.parametrize("mode,antenna_mode", [
        (MacMode.MIDAS, AntennaMode.DAS),
        (MacMode.CAS, AntennaMode.CAS),
    ])
    def test_three_ap_batch_matches_goldens(self, name, kwargs, mode, antenna_mode):
        scenarios = three_ap_scenario(ENV, seeds=SEEDS)[antenna_mode]
        batch = RoundBasedEvaluatorBatch(
            scenarios, mode, seeds=SEEDS, mobility=name, mobility_kwargs=kwargs,
            resound_period_rounds=3,
        ).run(8)
        for result, golden in zip(batch, GOLDEN["mobility"][f"{name}-{mode.value}"]):
            assert_rounds_match(result, golden)

    def test_mobility_with_traffic_matches_goldens(self):
        scenarios = single_ap_scenario(ENV, AntennaMode.DAS, seeds=SEEDS)
        common = dict(
            traffic="poisson", traffic_kwargs={"rate_mbps": 10.0},
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.2},
            resound_period_rounds=2,
        )
        batch = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS, **common
        ).run(8)
        for result, golden in zip(batch, GOLDEN["mobility_traffic"]):
            assert_rounds_match(result, golden)

    def test_item_mask_matches_goldens(self):
        scenarios = single_ap_scenario(ENV, AntennaMode.DAS, seeds=SEEDS)
        mask = np.array([True, False, True])
        results = RoundBasedEvaluatorBatch(
            scenarios, MacMode.MIDAS, seeds=SEEDS,
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.5},
            resound_period_rounds=2,
        ).run(6, item_mask=mask)
        assert results[1] is None
        for i in (0, 2):
            assert_rounds_match(results[i], GOLDEN["mobility_item_mask"][i])


class TestStaleness:
    def test_resound_period_charges_sounding_only_on_sounding_rounds(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[1])
        [result] = one_topology(
            scenario, MacMode.MIDAS, 1,
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.0},
            resound_period_rounds=3,
        ).run(9)
        charged = result.column("sounding_us") > 0
        assert charged.tolist() == [True, False, False] * 3
        assert result.total_sounding_us == pytest.approx(
            result.column("sounding_us").sum()
        )
        assert result.mean_sounding_us > 0

    def test_stale_csi_costs_capacity_at_speed(self):
        # With pedestrian Doppler at 5 GHz the channel decorrelates within
        # a few coherence blocks, so precoding on 8-round-old CSI must lose
        # capacity against per-round re-sounding on the same trajectory.
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[2])
        kwargs = dict(
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.5},
        )
        [fresh] = one_topology(
            scenario, MacMode.MIDAS, 2, resound_period_rounds=1, **kwargs
        ).run(24)
        [stale] = one_topology(
            scenario, MacMode.MIDAS, 2, resound_period_rounds=8, **kwargs
        ).run(24)
        assert stale.mean_capacity_bps_hz < fresh.mean_capacity_bps_hz

    def test_invalid_resound_period(self):
        scenario = single_ap_scenario(ENV, AntennaMode.DAS, seeds=[0])
        with pytest.raises(ValueError):
            one_topology(scenario, MacMode.MIDAS, 0, resound_period_rounds=0)

    def test_network_sim_mobility_runs(self):
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        result = NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.03), seed=0,
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.5},
            resound_interval_s=0.01,
        ).run()
        assert result.txop_count > 0
        assert result.network_capacity_bps_hz > 0
        assert_network_matches(result, GOLDEN["network"]["three_ap_mobility_interval"])

    def test_network_sim_mobility_without_interval_runs(self):
        # No re-sounding interval: every TXOP sounds fresh CSI and the
        # tags re-derive per TXOP (anchor handoff without staleness).
        scenario = three_ap_scenario(ENV, seeds=[0])[AntennaMode.DAS]
        result = NetworkSimulation(
            scenario, MacMode.MIDAS, SimConfig(duration_s=0.03), seed=0,
            mobility="gauss_markov", mobility_kwargs={"speed_mps": 1.5},
        ).run()
        assert result.txop_count > 0
        assert result.network_capacity_bps_hz > 0
        assert_network_matches(result, GOLDEN["network"]["three_ap_mobility_fresh"])


class TestRunSpecMobility:
    def test_mobility_omitted_from_canonical_json_when_unset(self):
        spec = RunSpec("fig09", n_topologies=2)
        assert "mobility" not in spec.to_dict()
        assert "mobility" not in spec.canonical_json()

    def test_mobility_round_trips(self):
        spec = RunSpec("mobility_capacity", n_topologies=2, mobility="gauss_markov")
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
        assert spec.spec_hash() != spec.replace(mobility=None).spec_hash()

    def test_static_accepted_everywhere(self):
        base = RunSpec("fig07", n_topologies=1, seed=0)
        a = Runner().run(base)
        b = Runner().run(base.replace(mobility="static"))
        for key in a.series:
            np.testing.assert_array_equal(a.series[key], b.series[key])

    def test_moving_model_rejected_without_parameter(self):
        with pytest.raises(ValueError, match="mobility override"):
            Runner().run(
                RunSpec("fig07", n_topologies=1, mobility="gauss_markov")
            )

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            Runner().run(RunSpec("mobility_capacity", n_topologies=1,
                                 mobility="warp_drive"))

    def test_static_rejected_by_mobility_capacity(self):
        with pytest.raises(ValueError, match="mobility_capacity sweeps client speed"):
            Runner().run(
                RunSpec("mobility_capacity", n_topologies=1,
                        mobility="static",
                        params={"rounds_per_topology": 2,
                                "speeds_mps": [1.0]})
            )

    def test_trace_rejected_by_mobility_capacity(self):
        # Trace playback has no speed to sweep; the experiment must say so
        # instead of surfacing the trace factory's own construction error.
        with pytest.raises(ValueError, match="speed_mps"):
            Runner().run(
                RunSpec("mobility_capacity", n_topologies=1,
                        mobility="trace",
                        params={"rounds_per_topology": 2,
                                "speeds_mps": [1.0]})
            )


class TestMobilityCapacityExperiment:
    SPEC = RunSpec(
        "mobility_capacity",
        n_topologies=2,
        seed=0,
        params={"rounds_per_topology": 6, "speeds_mps": [0.0, 2.0]},
    )

    def test_backends_bit_identical(self):
        single = Runner(batch_size=1).run(self.SPEC)
        vec = Runner().run(self.SPEC)
        assert set(single.series) == {
            "cas_capacity_bps_hz", "cas_sounding_fraction",
            "midas_capacity_bps_hz", "midas_sounding_fraction",
        }
        for key in single.series:
            np.testing.assert_array_equal(single.series[key], vec.series[key])
        assert single.series["midas_capacity_bps_hz"].shape == (2, 2)

    def test_empty_speed_axis_rejected(self):
        spec = self.SPEC.replace(params={"rounds_per_topology": 6, "speeds_mps": []})
        with pytest.raises(ValueError, match="speeds_mps is empty"):
            Runner().run(spec)

    def test_sounding_fraction_in_unit_interval(self):
        result = Runner().run(self.SPEC)
        for system in ("cas", "midas"):
            fractions = result.series[f"{system}_sounding_fraction"]
            assert np.all(fractions > 0)
            assert np.all(fractions < 1)