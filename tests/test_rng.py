"""Determinism plumbing tests."""

import itertools

import numpy as np

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
        stream = list(itertools.islice(rng_mod.seed_stream(3), 5))
        assert stream == [rng_mod.derived_seed(3, i) for i in range(5)]

    def test_different_roots_differ(self):
        a = list(itertools.islice(rng_mod.seed_stream(1), 4))
        b = list(itertools.islice(rng_mod.seed_stream(2), 4))
        assert a != b


class TestDerivedSeeds:
    def test_batch_matches_stream_prefix(self):
        batch = rng_mod.derived_seeds(9, 0, 6)
        assert batch == list(itertools.islice(rng_mod.seed_stream(9), 6))

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
