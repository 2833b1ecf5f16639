"""Determinism plumbing tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = rng_mod.make_rng(42).random(8)
        b = rng_mod.make_rng(42).random(8)
        np.testing.assert_array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert rng_mod.make_rng(gen) is gen


class TestSpawn:
    def test_children_are_independent_of_count(self):
        first = rng_mod.spawn(rng_mod.make_rng(7), 2)[0].random(4)
        again = rng_mod.spawn(rng_mod.make_rng(7), 5)[0].random(4)
        np.testing.assert_array_equal(first, again)

    def test_children_differ_from_each_other(self):
        kids = rng_mod.spawn(rng_mod.make_rng(7), 2)
        assert not np.allclose(kids[0].random(8), kids[1].random(8))

    def test_negative_count_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            rng_mod.spawn(rng_mod.make_rng(0), -1)


class TestSeedStream:
    def test_stable_per_index(self):
        assert rng_mod.derived_seed(3, 10) == rng_mod.derived_seed(3, 10)

    def test_stream_matches_derived(self):
        stream = rng_mod.derived_seeds(3, 0, 5)
        assert stream == [rng_mod.derived_seed(3, i) for i in range(5)]
        assert stream == [
            int(np.random.SeedSequence((3, i)).generate_state(1)[0]) for i in range(5)
        ]

    def test_different_roots_differ(self):
        assert rng_mod.derived_seeds(1, 0, 4) != rng_mod.derived_seeds(2, 0, 4)


class TestDerivedSeeds:
    def test_batch_matches_stream_prefix(self):
        batch = rng_mod.derived_seeds(9, 0, 6)
        assert batch[:4] == rng_mod.derived_seeds(9, 0, 4)
        assert batch == [rng_mod.derived_seed(9, i) for i in range(6)]

    def test_offset_batch_matches_indices(self):
        assert rng_mod.derived_seeds(9, 3, 4) == [
            rng_mod.derived_seed(9, i) for i in range(3, 7)
        ]

    def test_empty_batch(self):
        assert rng_mod.derived_seeds(0, 0, 0) == []

    def test_negative_count_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            rng_mod.derived_seeds(0, 0, -1)


def _old_spawn(rng, count):
    """The historical generator tree: every node, interior or leaf, held a
    generator of its own."""
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


class TestSpawnSeeds:
    """Leaf-only seed trees draw exactly what the old generator trees drew."""

    @staticmethod
    def _old_channel_leaves(seed, n_sites):
        shadow, fading = _old_spawn(rng_mod.make_rng(seed), 2)
        return _old_spawn(shadow, n_sites), fading

    @staticmethod
    def _new_channel_leaves(seed, n_sites):
        shadow, fading = rng_mod.spawn_seeds(seed, 2)
        sites = rng_mod.spawn_seeds(shadow, n_sites)
        return [rng_mod.make_rng(s) for s in sites], rng_mod.make_rng(fading)

    def test_int_seed_leaves_match_old_tree(self):
        for seed in (0, 7, 2**40 + 3):
            old_sites, old_fading = self._old_channel_leaves(seed, 4)
            new_sites, new_fading = self._new_channel_leaves(seed, 4)
            for old, new in zip(old_sites, new_sites):
                np.testing.assert_array_equal(
                    old.standard_normal(16), new.standard_normal(16)
                )
            np.testing.assert_array_equal(old_fading.random(8), new_fading.random(8))

    def test_leaf_is_the_spawn_key_path(self):
        # Site s of the shadowing child is the node (0, s) under the seed.
        leaf = rng_mod.spawn_seeds(rng_mod.spawn_seeds(5, 2)[0], 3)[2]
        direct = np.random.SeedSequence(5, spawn_key=(0, 2))
        np.testing.assert_array_equal(
            rng_mod.make_rng(leaf).random(6), rng_mod.make_rng(direct).random(6)
        )

    def test_generator_seed_shared_parent_spawned_twice(self):
        # A caller-held parent handed to two consumers in turn: the second
        # consumer's children continue the parent's spawn counter.
        old_parent = np.random.default_rng(11)
        new_parent = np.random.default_rng(11)
        old_draws = []
        new_draws = []
        for _ in range(2):
            old_sites, old_fading = self._old_channel_leaves(old_parent, 3)
            new_sites, new_fading = self._new_channel_leaves(new_parent, 3)
            old_draws.append([g.random(5) for g in (*old_sites, old_fading)])
            new_draws.append([g.random(5) for g in (*new_sites, new_fading)])
        np.testing.assert_array_equal(old_draws, new_draws)
        # The second pass drew different streams from the first.
        assert not np.array_equal(new_draws[0], new_draws[1])
        old_count = old_parent.bit_generator.seed_seq.n_children_spawned
        new_count = new_parent.bit_generator.seed_seq.n_children_spawned
        assert old_count == new_count == 4
        # Spawning never touches the parent's own stream.
        np.testing.assert_array_equal(old_parent.random(4), new_parent.random(4))

    def test_spawn_matches_spawn_seeds(self):
        kids = rng_mod.spawn(rng_mod.make_rng(3), 3)
        nodes = rng_mod.spawn_seeds(3, 3)
        for kid, node in zip(kids, nodes):
            np.testing.assert_array_equal(kid.random(4), rng_mod.make_rng(node).random(4))

    def test_channel_batch_advances_caller_generator_by_two(self):
        from repro.channel.batch import ChannelBatch
        from repro.topology.deployment import AntennaMode
        from repro.topology.scenarios import office_b, single_ap_scenario

        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[2])
        parent = np.random.default_rng(4)
        reference = np.random.default_rng(4)
        ChannelBatch(scenario.deployment, scenario.radio, [parent])
        _old_spawn(reference, 2)
        assert (
            parent.bit_generator.seed_seq.n_children_spawned
            == reference.bit_generator.seed_seq.n_children_spawned
            == 2
        )
        np.testing.assert_array_equal(parent.random(4), reference.random(4))

    def test_make_rng_accepts_seed_sequence(self):
        node = rng_mod.spawn_seeds(8, 1)[0]
        np.testing.assert_array_equal(
            rng_mod.make_rng(node).random(4), np.random.default_rng(node).random(4)
        )

    def test_negative_count_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            rng_mod.spawn_seeds(0, -1)


class TestEngineLeaves:
    """Engines build a generator only for the children that draw."""

    @staticmethod
    def _generators_built(build):
        from repro import obs

        telemetry = obs.Telemetry()
        with obs.use(telemetry):
            build()
        return telemetry.counters["rng.generators_spawned"]

    def test_round_engine_builds_csi_leaf_only_with_csi_noise(self):
        from repro.channel.shadowing import group_antenna_sites
        from repro.config import SimConfig
        from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
        from repro.topology.deployment import AntennaMode
        from repro.topology.scenarios import office_b, single_ap_scenario

        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[2])
        n_sites = len(set(group_antenna_sites(scenario.deployment.antenna_positions[0])))

        def build(**kwargs):
            return lambda: RoundBasedEvaluatorBatch(
                scenario, MacMode.MIDAS, seeds=[3], **kwargs
            )

        # Full buffer, static clients, perfect CSI: only the site fields draw
        # (the carrier-sense cross powers read shadowing, never fading).
        assert self._generators_built(build()) == n_sites
        noisy = build(sim=SimConfig(csi_error_std=0.1))
        assert self._generators_built(noisy) == n_sites + 1

    def test_csi_leaf_draws_what_the_old_tree_drew(self):
        old_csi = _old_spawn(rng_mod.make_rng(9), 4)[1]
        new_csi = rng_mod.make_rng(rng_mod.spawn_seeds(9, 4)[1])
        np.testing.assert_array_equal(old_csi.random(6), new_csi.random(6))


ENTROPY_EDGES = [0, 2**32 - 1, 2**32, 2**64 + 5, (7, 3), (2**40, 2**32 + 1), [1, 2, 3, 4, 5]]

entropies = st.one_of(
    st.integers(0, 2**130),
    st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
)
spawn_keys = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


class TestSeedNodeHash:
    """The vectorized hash is NumPy's ``SeedSequence`` hash, word for word."""

    @settings(max_examples=150, deadline=None)
    @given(entropy=entropies, spawn_key=spawn_keys)
    @example(entropy=0, spawn_key=())
    @example(entropy=2**32 - 1, spawn_key=(2**32,))
    @example(entropy=2**32, spawn_key=(0, 2**33 + 7))
    @example(entropy=2**64 + 5, spawn_key=(2**32, 5, 2**40))
    @example(entropy=(3, 2**32), spawn_key=(1, 2, 3))
    def test_state_matches_seed_sequence(self, entropy, spawn_key):
        reference = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        node = rng_mod.SeedNode(entropy, spawn_key)
        for n_words, dtype in ((1, np.uint32), (4, np.uint64), (9, np.uint32), (5, np.uint64)):
            np.testing.assert_array_equal(
                node.generate_state(n_words, dtype), reference.generate_state(n_words, dtype)
            )
        np.testing.assert_array_equal(
            rng_mod.make_rng(node).random(4), np.random.default_rng(reference).random(4)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(entropies, spawn_keys), min_size=1, max_size=12))
    def test_one_batch_hashes_mixed_lengths(self, pairs):
        nodes = [rng_mod.SeedNode(entropy, key) for entropy, key in pairs]
        for generator, (entropy, key) in zip(rng_mod.make_rngs(nodes), pairs):
            reference = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
            np.testing.assert_array_equal(generator.random(3), reference.random(3))

    def test_spawned_children_match_seed_sequence_children(self):
        for entropy in ENTROPY_EDGES:
            node = rng_mod.SeedNode(entropy)
            reference = np.random.SeedSequence(entropy)
            for _ in range(2):  # the second spawn continues the counter
                for depth in range(3):
                    kids = node.spawn(2)
                    ref_kids = reference.spawn(2)
                    assert [k.spawn_key for k in kids] == [k.spawn_key for k in ref_kids]
                    for kid, ref_kid in zip(rng_mod.make_rngs(kids), ref_kids):
                        np.testing.assert_array_equal(
                            kid.random(3), np.random.default_rng(ref_kid).random(3)
                        )
                    node, reference = kids[1], ref_kids[1]
            assert node.n_children_spawned == reference.n_children_spawned

    def test_spawn_index_past_32_bits(self):
        node = rng_mod.SeedNode(5, (1,), n_children_spawned=2**32 - 1)
        kids = node.spawn(2)
        assert [kid.spawn_key for kid in kids] == [(1, 2**32 - 1), (1, 2**32)]
        for kid in kids:
            reference = np.random.SeedSequence(5, spawn_key=kid.spawn_key)
            np.testing.assert_array_equal(kid.generate_state(4), reference.generate_state(4))

    def test_node_is_a_numpy_seed_sequence(self):
        node = rng_mod.SeedNode(11, (2,))
        assert isinstance(node, np.random.bit_generator.ISpawnableSeedSequence)
        generator = np.random.default_rng(node)
        assert generator.bit_generator.seed_seq is node
        reference = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(2,)))
        np.testing.assert_array_equal(generator.random(4), reference.random(4))
        # Spawning through a generator built on a node continues its counter.
        child = generator.spawn(1)[0]
        np.testing.assert_array_equal(child.random(3), reference.spawn(1)[0].random(3))
        assert rng_mod.spawn_seeds(generator, 1)[0].spawn_key == (2, 1)

    def test_bad_entropy_rejected(self):
        with pytest.raises(ValueError):
            rng_mod.make_rng(-1)
        with pytest.raises(TypeError):
            rng_mod.make_rng(rng_mod.SeedNode(3, (1.5,)))

    def test_generate_state_dtype_checked(self):
        with pytest.raises(ValueError):
            rng_mod.SeedNode(1).generate_state(2, np.int32)


class TestDerivedSeedBatches:
    def test_batch_across_the_32_bit_index_boundary(self):
        start = 2**32 - 3
        batch = rng_mod.derived_seeds(4, start, 6)
        assert batch == [rng_mod.derived_seed(4, i) for i in range(start, start + 6)]
        assert batch == [
            int(np.random.SeedSequence((4, i)).generate_state(1)[0])
            for i in range(start, start + 6)
        ]

    def test_large_root(self):
        root = 2**70 + 9
        assert rng_mod.derived_seeds(root, 0, 3) == [
            int(np.random.SeedSequence((root, i)).generate_state(1)[0]) for i in range(3)
        ]

    def test_counts_each_derived_seed(self):
        from repro import obs

        telemetry = obs.Telemetry()
        with obs.use(telemetry):
            rng_mod.derived_seeds(1, 0, 7)
        assert telemetry.counters["rng.seeds_derived"] == 7


class TestBatchComposition:
    """A leaf's generator does not depend on the batch it is built in."""

    @staticmethod
    def _leaves():
        return [
            leaf
            for seed in (0, 5, 2**33, 2**64 + 5)
            for child in rng_mod.spawn_seeds(seed, 2)
            for leaf in (child, *rng_mod.spawn_seeds(child, 3))
        ]

    def test_any_batching_gives_the_same_streams(self):
        alone = [rng_mod.make_rng(leaf).random(4) for leaf in self._leaves()]
        together = [g.random(4) for g in rng_mod.make_rngs(self._leaves())]
        np.testing.assert_array_equal(alone, together)
        leaves = self._leaves()
        order = np.random.default_rng(0).permutation(len(leaves))
        shuffled = rng_mod.make_rngs([leaves[i] for i in order])
        np.testing.assert_array_equal([g.random(4) for g in shuffled], np.asarray(alone)[order])

    def test_mixed_inputs_pass_through(self):
        held = np.random.default_rng(1)
        sequence = np.random.SeedSequence(2, spawn_key=(4,))
        built = rng_mod.make_rngs([held, sequence, 3, rng_mod.SeedNode(2, (4,))])
        assert built[0] is held
        np.testing.assert_array_equal(built[1].random(3), built[3].random(3))
        np.testing.assert_array_equal(built[2].random(3), np.random.default_rng(3).random(3))

    def test_scenario_items_do_not_depend_on_the_batch(self):
        from repro.topology.deployment import AntennaMode
        from repro.topology.scenarios import office_b, three_ap_scenario

        seeds = [4, 9, 2**40, 17]
        full = three_ap_scenario(office_b(), seeds=seeds)[AntennaMode.DAS].deployment
        for item, seed in enumerate(seeds):
            alone = three_ap_scenario(office_b(), seeds=[seed])[AntennaMode.DAS].deployment
            np.testing.assert_array_equal(full.antenna_positions[item], alone.antenna_positions[0])
            np.testing.assert_array_equal(full.client_positions[item], alone.client_positions[0])
