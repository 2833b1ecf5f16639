"""The seed tree as arrays and the batched PCG64 uniform stream.

:class:`repro.rng.SeedBatch` rows are checked against
:class:`numpy.random.SeedSequence` and :class:`repro.rng.PCG64Lanes`
against ``Generator.random``, value for value.  The budget of the
hypothesis oracles follows the active profile (``--hypothesis-profile ci``
raises it).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro import rng as rng_mod
from repro.topology import deployment, scenarios

entropies = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**130),
    st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
)
spawn_keys = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)
counters = st.one_of(st.integers(0, 4), st.integers(2**32 - 3, 2**32 + 3))


def _reference(entropy, spawn_key):
    return np.random.SeedSequence(entropy, spawn_key=spawn_key)


def _generator(entropy, spawn_key):
    return np.random.default_rng(_reference(entropy, spawn_key))


class TestStateWords:
    @settings(deadline=None)
    @given(
        st.lists(st.tuples(entropies, spawn_keys, counters), min_size=1, max_size=10),
        st.lists(st.integers(0, 3), min_size=1, max_size=2),
    )
    @example(roots=[(2**32 - 1, (), 2**32 - 1)], counts=[2, 1])
    @example(roots=[(5, (2**33,), 0), (2**64 + 5, (), 0), ((7, 3), (1, 2), 1)], counts=[1])
    def test_rows_match_seed_sequence(self, roots, counts):
        nodes = [rng_mod.SeedNode(e, key, n) for e, key, n in roots]
        batch = rng_mod.SeedBatch.from_seeds(nodes)
        paths = [(e, key, n) for e, key, n in roots]  # each row's node and counter
        for count in counts:
            for row, (entropy, key, _) in enumerate(paths):
                np.testing.assert_array_equal(
                    batch.state_words()[row],
                    _reference(entropy, key).generate_state(4, np.uint64),
                )
            children = batch.spawn(count)
            paths = [(e, key + (i,), 0) for e, key, n in paths for i in range(n, n + count)]
            assert children.spawn_keys() == [key for _, key, _ in paths]
            np.testing.assert_array_equal(
                children.state_words(),
                np.reshape(
                    [_reference(e, key).generate_state(4, np.uint64) for e, key, _ in paths],
                    (-1, 4),
                ),
            )
            batch = children
        # Caller-held nodes advanced exactly as SeedNode.spawn does.
        assert [node.n_children_spawned for node in nodes] == [n + counts[0] for _, _, n in roots]

    @settings(deadline=None)
    @given(st.lists(entropies, min_size=1, max_size=8), st.sampled_from([1, 3, 9]))
    def test_other_state_requests_match(self, entropy, n_words):
        batch = rng_mod.SeedBatch.from_seeds(entropy).spawn(2)
        for row, (e, key) in enumerate(zip(batch.entropy, batch.spawn_keys())):
            for dtype in (np.uint32, np.uint64):
                np.testing.assert_array_equal(
                    batch.state_words(n_words, dtype)[row],
                    _reference(e, key).generate_state(n_words, dtype),
                )

    def test_per_row_counts_and_rows(self):
        batch = rng_mod.SeedBatch.from_seeds([3, 4, 5])
        children = batch.spawn([2, 0, 3])
        assert children.spawn_keys() == [(0,), (1,), (0,), (1,), (2,)]
        assert list(children.entropy) == [3, 3, 5, 5, 5]
        again = batch.spawn(1)  # the counters continue
        assert again.spawn_keys() == [(2,), (0,), (3,)]
        assert children[1::2].spawn_keys() == [(1,), (1,)]
        assert children[[4, 0]].spawn_keys() == [(2,), (0,)]
        with pytest.raises(ValueError):
            batch.spawn(-1)

    def test_empty_batch(self):
        batch = rng_mod.SeedBatch.from_seeds([]).spawn(3)
        assert len(batch) == 0
        assert batch.state_words().shape == (0, 4)
        assert batch.lanes().random((2, 3)).shape == (0, 2, 3)


class TestCallerHeldSeeds:
    def test_generator_and_sequence_advance_like_spawn_seeds(self):
        held = [np.random.default_rng(4), np.random.SeedSequence(9), rng_mod.SeedNode(2, (1,))]
        reference = [np.random.default_rng(4), np.random.SeedSequence(9), rng_mod.SeedNode(2, (1,))]
        children = rng_mod.SeedBatch.from_seeds(held).spawn(2)
        expected = [kid for seed in reference for kid in rng_mod.spawn_seeds(seed, 2)]
        assert children.spawn_keys() == [kid.spawn_key for kid in expected]
        for generator, kid in zip(children.generators(), expected):
            np.testing.assert_array_equal(generator.random(3), rng_mod.make_rng(kid).random(3))
        assert held[0].bit_generator.seed_seq.n_children_spawned == 2
        assert held[1].n_children_spawned == held[2].n_children_spawned == 2

    def test_a_repeated_generator_spawns_in_row_order(self):
        parent = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        children = rng_mod.SeedBatch.from_seeds([parent, 5, parent]).spawn(2)
        expected = [
            *rng_mod.spawn_seeds(reference, 2),
            *rng_mod.spawn_seeds(5, 2),
            *rng_mod.spawn_seeds(reference, 2),
        ]
        assert children.spawn_keys() == [kid.spawn_key for kid in expected]
        assert parent.bit_generator.seed_seq.n_children_spawned == 4
        # Spawning never touches the parent's own stream.
        np.testing.assert_array_equal(parent.random(4), reference.random(4))

    def test_other_pool_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="pool size"):
            rng_mod.SeedBatch.from_seeds([np.random.SeedSequence(1, pool_size=8)])

    def test_generators_are_views_of_their_rows(self):
        children = rng_mod.SeedBatch.from_seeds([7]).spawn(3)
        [generator] = children[[2]].generators()
        node = generator.bit_generator.seed_seq
        assert isinstance(node, rng_mod.SeedNode)
        assert (node.entropy, node.spawn_key) == (7, (2,))
        np.testing.assert_array_equal(generator.random(4), _generator(7, (2,)).random(4))
        # Spawning through the generator continues the row's node.
        np.testing.assert_array_equal(
            generator.spawn(1)[0].random(3), _generator(7, (2, 0)).random(3)
        )

    def test_generators_are_counted(self):
        telemetry = obs.Telemetry()
        with obs.use(telemetry):
            rng_mod.SeedBatch.from_seeds([1, 2]).spawn(3).generators()
            rng_mod.SeedBatch.from_seeds([1, 2]).lanes().random(4)
        assert telemetry.counters["rng.generators_spawned"] == 6


class TestPCG64Lanes:
    @settings(deadline=None)
    @given(st.lists(st.tuples(entropies, spawn_keys), min_size=1, max_size=6))
    def test_seeded_state_matches_pcg64(self, nodes):
        lanes = rng_mod.SeedBatch.from_seeds([rng_mod.SeedNode(e, k) for e, k in nodes]).lanes()
        for lane, (entropy, key) in enumerate(nodes):
            expected = np.random.PCG64(_reference(entropy, key)).state["state"]
            assert lanes.state(lane) == expected

    @settings(deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.lists(st.booleans(), min_size=n, max_size=n),
                        st.one_of(st.integers(0, 40), st.integers(1000, 2600)),
                    ),
                    min_size=1,
                    max_size=5,
                ),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_ragged_masks_match_generator_random(self, plan, seed):
        n, steps = plan
        batch = rng_mod.SeedBatch.from_seeds([seed]).spawn(n)
        lanes = batch.lanes()
        generators = [_generator(seed, key) for key in batch.spawn_keys()]
        for mask, count in steps:
            chosen = np.flatnonzero(mask)
            draws = lanes.random((count,), lanes=chosen)
            assert draws.shape == (len(chosen), count)
            for row, lane in enumerate(chosen.tolist()):
                np.testing.assert_array_equal(draws[row], generators[lane].random(count))
        for lane, generator in enumerate(generators):
            assert lanes.state(lane) == generator.bit_generator.state["state"]

    def test_shapes_are_c_order_like_generator_random(self):
        lanes = rng_mod.SeedBatch.from_seeds([5, 6]).lanes()
        draws = lanes.random((3, 2, 4))
        assert draws.shape == (2, 3, 2, 4)
        for row, seed in enumerate((5, 6)):
            np.testing.assert_array_equal(
                draws[row], np.random.default_rng(seed).random((3, 2, 4))
            )

    def test_many_lanes_over_several_passes(self):
        seeds = list(range(300))
        draws = rng_mod.SeedBatch.from_seeds(seeds).lanes().random(700)
        for seed in (0, 123, 299):
            np.testing.assert_array_equal(draws[seed], np.random.default_rng(seed).random(700))


def _fig09_work(n_topologies, monkeypatch):
    """Per-item Python of one fig09 run: the ``spawn_seeds`` calls, the
    DAS layout calls, the placement lanes' draw calls and the generators
    its scenario synthesis builds."""
    import repro

    counts = {"spawn_seeds": 0, "das_antenna_layout": 0, "placement_draws": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(rng_mod, "spawn_seeds", "spawn_seeds")
    counting(scenarios, "das_antenna_layout", "das_antenna_layout")
    real_random = rng_mod.PCG64Lanes.random

    def counted_random(self, *args, **kwargs):
        counts["placement_draws"] += 1
        return real_random(self, *args, **kwargs)

    monkeypatch.setattr(rng_mod.PCG64Lanes, "random", counted_random)
    repro.Runner().run(repro.RunSpec("fig09", n_topologies=n_topologies, seed=1))
    work = dict(counts)
    seeds = rng_mod.derived_seeds(1, 0, n_topologies)
    telemetry = obs.Telemetry()
    with obs.use(telemetry):
        scenarios.single_ap_scenario(scenarios.office_b(), deployment.AntennaMode.DAS, seeds=seeds)
    work["scenario_generators"] = telemetry.counters["rng.generators_spawned"]
    return work


def test_fig09_per_item_python_does_not_scale_with_items(monkeypatch):
    small = _fig09_work(64, monkeypatch)
    monkeypatch.undo()
    large = _fig09_work(512, monkeypatch)
    assert small == large
    assert small["scenario_generators"] == 0
    assert small["das_antenna_layout"] == 2  # one per antenna count


def _leaf_consumers(monkeypatch):
    """Run fig09's build for a few seeds and record, per consumer, the
    ``(entropy, spawn_key)`` of every seed-tree leaf that becomes a stream:
    in fig09 the placement leaves are uniform lanes and the channel leaves
    (shadowing sites, fading) generators.  The paired CAS and DAS channels
    of one topology are one consumer: they share their leaves by design."""
    from repro.experiments import fig08_09_capacity

    leaves = []

    def record(kind, method):
        real = getattr(rng_mod.SeedBatch, method)

        def wrapper(self, *args, **kwargs):
            leaves.extend((kind, e, k) for e, k in zip(self.entropy, self.spawn_keys()))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(rng_mod.SeedBatch, method, wrapper)

    record("placement", "lanes")
    record("channel", "generators")
    fig08_09_capacity._build_batch(
        [3, 8], {"environment": "office_b", "antenna_counts": (2,), "precoder": "balanced"}
    )
    return leaves


def test_fig09_leaf_map(monkeypatch):
    """Which spawn-key path feeds which consumer, per topology seed."""
    leaves = _leaf_consumers(monkeypatch)
    for seed in (3, 8):
        mine = sorted((kind, key) for kind, e, key in leaves if e == seed)
        assert mine == sorted(
            [
                ("placement", (0,)),  # clients
                ("placement", (1,)),  # DAS antennas
                ("channel", (0, 0)),  # CAS: the one shadowing site
                ("channel", (1,)),  # CAS fading
                ("channel", (0, 0)),  # DAS: shadowing site 0 of 2
                ("channel", (0, 1)),  # DAS: shadowing site 1 of 2
                ("channel", (1,)),  # DAS fading
            ]
        )


@pytest.mark.xfail(
    strict=True,
    reason="the DAS placement leaf (1,) is the ChannelBatch fading leaf (1,) "
    "of the same topology seed; mending it re-pins every DAS series",
)
def test_no_two_consumers_of_one_topology_share_a_leaf(monkeypatch):
    leaves = _leaf_consumers(monkeypatch)
    kinds = {}
    for kind, entropy, key in leaves:
        kinds.setdefault((entropy, key), set()).add(kind)
    assert all(len(found) == 1 for found in kinds.values()), kinds
