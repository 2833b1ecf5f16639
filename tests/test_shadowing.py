"""Shadowing field tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import shadowing_oracle as oracle
from repro.channel.batch import ChannelBatch
from repro.channel.shadowing import (
    LatticeNodeStore,
    group_antenna_sites,
    group_antenna_sites_batch,
    sample_site_fields,
)
from repro.topology import geometry
from repro.topology.deployment import AntennaMode, Deployment
from repro.topology.scenarios import office_b, single_ap_scenario


def one_field(rng, sigma_db, correlation_m) -> LatticeNodeStore:
    """A lattice node store of one shadowing field (one item, one site)."""
    return LatticeNodeStore([[rng]], sigma_db, correlation_m)


def sample(store, points) -> np.ndarray:
    """The one field's shadowing in dB at each point, ``(n_points,)``."""
    return sample_site_fields(store, np.asarray(points, dtype=float))[0, 0]


class TestShadowingField:
    def test_zero_sigma_is_zero_everywhere(self):
        field = one_field(np.random.default_rng(0), 0.0, 8.0)
        np.testing.assert_array_equal(sample(field, [(1, 2), (3, 4)]), [0.0, 0.0])

    def test_consistent_resampling(self):
        field = one_field(np.random.default_rng(0), 6.0, 8.0)
        pts = [(1.0, 2.0), (-3.0, 0.5)]
        np.testing.assert_array_equal(sample(field, pts), sample(field, pts))

    def test_marginal_std_close_to_sigma(self):
        field = one_field(np.random.default_rng(1), 6.0, 8.0)
        rng = np.random.default_rng(2)
        # Sample far-apart points so they are nearly independent draws.
        pts = rng.uniform(-500, 500, (600, 2))
        values = sample(field, pts)
        assert np.std(values) == pytest.approx(6.0, rel=0.15)

    def test_nearby_points_are_correlated(self):
        sigma = 6.0
        diffs_near, diffs_far = [], []
        for seed in range(60):
            field = one_field(np.random.default_rng(seed), sigma, 8.0)
            base, near, far = sample(field, [(10.0, 10.0), (10.5, 10.0), (300.0, 300.0)])
            diffs_near.append(base - near)
            diffs_far.append(base - far)
        assert np.std(diffs_near) < np.std(diffs_far) * 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            one_field(np.random.default_rng(0), -1.0, 8.0)
        with pytest.raises(ValueError):
            one_field(np.random.default_rng(0), 5.0, 0.0)


class TestSiteGrouping:
    def test_colocated_antennas_share_site(self):
        sites = group_antenna_sites([(0, 0), (0.03, 0), (0.06, 0)])
        assert len(set(sites)) == 1

    def test_distributed_antennas_get_distinct_sites(self):
        sites = group_antenna_sites([(0, 0), (8, 0), (0, 9)])
        assert len(set(sites)) == 3

    def test_mixed_grouping(self):
        sites = group_antenna_sites([(0, 0), (0.05, 0), (10, 0), (10.05, 0)])
        assert sites[0] == sites[1]
        assert sites[2] == sites[3]
        assert sites[0] != sites[2]

    def test_chained_triplet_single_linkage(self):
        # A-B and B-C are each within tolerance while A-C is not: true
        # single-linkage puts all three in one site.  The old greedy pass
        # visited A first, pulled in B, and then orphaned C into its own
        # site because C was only close to (already-assigned) B.
        sites = group_antenna_sites([(0.0, 0.0), (0.8, 0.0), (1.6, 0.0)])
        assert len(set(sites)) == 1

    def test_chain_order_independent(self):
        # Same chained triplet in every visiting order: one site each time.
        triplet = np.array([(0.0, 0.0), (0.8, 0.0), (1.6, 0.0)])
        for order in ([0, 1, 2], [1, 0, 2], [2, 0, 1], [0, 2, 1]):
            sites = group_antenna_sites(triplet[order])
            assert len(set(sites)) == 1, order

    def test_site_ids_keep_first_visit_order(self):
        # Cluster ids must come out in first-antenna order (the generator
        # spawn order the channel model relies on), including for clusters
        # merged through a chain.
        sites = group_antenna_sites(
            [(0.0, 0.0), (20.0, 0.0), (1.6, 0.0), (0.8, 0.0)]
        )
        np.testing.assert_array_equal(sites, [0, 1, 0, 0])


class TestVectorizedSampling:
    """The vectorized sampler must match the historical point-by-point walk
    exactly -- same lattice draws (first-visit order), same interpolation."""

    @pytest.mark.parametrize("n_points", [3, 500])
    def test_matches_scalar_reference(self, n_points):
        rng = np.random.default_rng(4)
        points = rng.uniform(-25, 25, (n_points, 2))
        fast = one_field(np.random.default_rng(77), 9.0, 8.0)
        reference = oracle.ShadowingField(np.random.default_rng(77), 9.0, 8.0)
        np.testing.assert_array_equal(
            sample(fast, points), oracle.walk_sample(reference, points)
        )
        # A second overlapping query reuses stored nodes identically.
        more = rng.uniform(-25, 25, (n_points, 2))
        np.testing.assert_array_equal(
            sample(fast, more), oracle.walk_sample(reference, more)
        )
        assert oracle.store_nodes(fast, 0) == reference.nodes
        assert fast.generator(0).bit_generator.state == reference.rng.bit_generator.state


def _components_oracle(points, tolerance_m=1.0):
    """Brute-force single-linkage sites: flood-fill from each unvisited
    antenna in index order, so site ids follow first antennas."""
    n = len(points)
    site = [-1] * n
    next_site = 0
    for start in range(n):
        if site[start] >= 0:
            continue
        site[start] = next_site
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                if site[j] < 0 and math.sqrt(dx * dx + dy * dy) <= tolerance_m:
                    site[j] = next_site
                    frontier.append(j)
        next_site += 1
    return site


#: A half-metre lattice: duplicates and pairs exactly 1.0 m apart are common.
_COORD = st.integers(-6, 6).map(lambda v: v / 2.0)


@st.composite
def _layout_stacks(draw):
    """A stack of same-size layouts mixing DAS-like lattice layouts (chains,
    duplicates, exact-tolerance pairs) and CAS half-wavelength arrays."""
    n = draw(st.integers(1, 6))
    items = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            items.append(draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)))
        else:
            x, y = draw(st.tuples(_COORD, _COORD))
            items.append([(x + 0.0286 * k, y) for k in range(n)])
    return np.array(items, dtype=float)


class TestStackedSiteGrouping:
    @settings(max_examples=200, deadline=None)
    @given(_layout_stacks())
    @example(np.array([[(0.0, 0.0)]]))
    @example(np.array([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.5, 0.0)]]))
    @example(np.array([[(0.0, 0.0), (0.0, 0.0), (5.0, 5.0)], [(0.0, 0.0), (0.0286, 0.0), (0.0572, 0.0)]]))
    def test_matches_connected_components_oracle(self, stack):
        sites = group_antenna_sites_batch(stack)
        assert sites.shape == stack.shape[:2]
        for b, layout in enumerate(stack):
            expected = _components_oracle(layout.tolist())
            np.testing.assert_array_equal(sites[b], expected)
            np.testing.assert_array_equal(group_antenna_sites(layout), expected)

    def test_exact_tolerance_pair_links(self):
        # The rule is `dist <= tolerance`: 1.0 m apart is one site.
        np.testing.assert_array_equal(
            group_antenna_sites([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]), [0, 0, 1]
        )

    def test_empty_layout_stack(self):
        assert group_antenna_sites_batch(np.zeros((3, 0, 2))).shape == (3, 0)


def _old_spawn(rng, count):
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


def _chained_deployments():
    """Mixed site counts in one stack: a chain plus a far antenna (2 sites),
    four distributed antennas (4 sites) and a co-located array (1 site)."""
    layouts = [
        [(0.0, 0.0), (0.8, 0.0), (1.6, 0.0), (12.0, 0.0)],
        [(0.0, 0.0), (6.0, 0.0), (0.0, 7.0), (-8.0, 0.0)],
        [(0.0, 0.0), (0.0286, 0.0), (0.0572, 0.0), (0.0858, 0.0)],
    ]
    clients = np.random.default_rng(5).uniform(-15, 15, (len(layouts), 3, 2))
    return Deployment(
        ap_positions=np.zeros((len(layouts), 1, 2)),
        antenna_positions=layouts,
        antenna_ap=[0] * 4,
        client_positions=clients,
        client_ap=[0] * 3,
        mode=AntennaMode.DAS,
    )


class TestStackedNodeCache:
    """One stacked lattice pass leaves every site field's nodes (keys and
    values) and generator state exactly where the historical per-item,
    per-site walk left them."""

    SEEDS = [3, 41, 2**33 + 1]

    @staticmethod
    def _reference_fields(antenna_positions, radio, seed):
        shadow, _fading = _old_spawn(np.random.default_rng(seed), 2)
        site_of = group_antenna_sites(antenna_positions)
        site_rngs = _old_spawn(shadow, int(site_of.max()) + 1)
        fields = [
            oracle.ShadowingField(
                rng, radio.shadowing_sigma_db, radio.shadowing_correlation_m
            )
            for rng in site_rngs
        ]
        return site_of, fields

    def _check(self, deployment, radio, survey=None):
        moved = deployment.client_positions + 3.7
        channel = ChannelBatch(deployment, radio, self.SEEDS[: len(deployment)])
        channel.antenna_cross_power_dbm()
        channel.update_client_positions(moved)
        survey_db = None if survey is None else channel.shadowing_db(survey)
        for b in range(len(deployment)):
            antennas = deployment.antenna_positions[b]
            site_of, fields = self._reference_fields(antennas, radio, self.SEEDS[b])
            for field in fields:
                field.sample(deployment.client_positions[b])
            for field in fields:
                field.sample(antennas)
            for field in fields:
                field.sample(moved[b])
            if survey is not None:
                expected = np.stack([fields[s].sample(survey) for s in site_of], axis=1)
                np.testing.assert_array_equal(survey_db[b], expected)
            store = channel._shadowing
            assert store.site_counts[b] == len(fields)
            for s, reference in enumerate(fields):
                field = int(store.field_offsets[b]) + s
                assert oracle.store_nodes(store, field) == reference.nodes
                assert (
                    store.generator(field).bit_generator.state
                    == reference.rng.bit_generator.state
                )

    def test_cas_one_site(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=range(3))
        self._check(scenario.deployment, scenario.radio)

    def test_das_one_site_per_antenna(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=range(3))
        self._check(scenario.deployment, scenario.radio)

    def test_chained_and_mixed_site_counts(self):
        self._check(_chained_deployments(), office_b().radio)

    def test_rows_past_an_items_sites_are_zero(self):
        store = LatticeNodeStore(
            [[np.random.default_rng(s) for s in range(3)], [np.random.default_rng(9)]],
            6.0,
            8.0,
        )
        values = sample_site_fields(store, [(1.0, 2.0), (30.0, -4.0)])
        assert values.shape == (2, 3, 2)
        np.testing.assert_array_equal(values[1, 1:], 0.0)
        assert np.all(values[0] != 0.0)

    def test_survey_grid_over_64_keys(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=range(2))
        grid = geometry.grid_points((-12.0, 12.0), (-12.0, 12.0), 1.0)
        assert grid.size * 2 > 64
        self._check(scenario.deployment, scenario.radio, survey=grid)


#: Lattice-scale coordinates on both sides of the origin: with 2.5 m cells,
#: draws revisit cells often and also reach new terrain.
_SPOT = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)


@st.composite
def _store_sessions(draw):
    """Site counts per item and a sequence of sampling calls: each one
    shared survey points or a per-item stack, over every item or a subset
    (some of it by negative index)."""
    n_items = draw(st.integers(1, 4))
    site_counts = draw(st.lists(st.integers(1, 3), min_size=n_items, max_size=n_items))
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        n_points = draw(st.integers(0, 5))
        items = draw(
            st.none()
            | st.lists(st.integers(0, n_items - 1), min_size=1, max_size=n_items, unique=True)
        )
        if items is not None:
            # Some items by their negative index, counted from the end.
            negate = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
            items = [b - n_items if neg else b for b, neg in zip(items, negate)]
        rows = n_items if items is None else len(items)
        shape = (n_points, 2) if draw(st.booleans()) else (rows, n_points, 2)
        flat = draw(st.lists(_SPOT, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        calls.append((items, np.array(flat, dtype=float).reshape(shape)))
    return site_counts, calls


class TestLatticeNodeStore:
    """The stacked store draws, stores and returns exactly what one dict
    per field did (repro 8.0.0), for every field of the batch."""

    @settings(max_examples=150, deadline=None)
    @given(_store_sessions())
    @example(
        (
            [2, 1, 3],
            [
                (None, np.array([[-11.5, -3.0], [-0.5, 0.5], [4.0, -9.0]])),
                ([2, 0], np.array([[[-11.0, -2.5], [12.0, 12.0]], [[3.0, 3.0], [-0.5, 0.4]]])),
                (None, np.array([[[-11.5, -3.0]], [[7.0, -7.0]], [[-0.5, 0.5]]])),
                ([1], np.array([[-11.5, -3.0], [9.0, 1.0]])),
                ([-1, 0], np.array([[-11.0, -2.5], [5.0, 5.0], [-7.0, 11.0]])),
            ],
        )
    )
    def test_matches_dict_oracle(self, session):
        site_counts, calls = session
        seeds = [[7 * b + s for s in range(n)] for b, n in enumerate(site_counts)]
        store = LatticeNodeStore(seeds, 6.0, 2.5)
        fields = [[oracle.ShadowingField(seed, 6.0, 2.5) for seed in item] for item in seeds]
        for items, points in calls:
            chosen = range(len(seeds)) if items is None else items
            expected = oracle.sample_site_fields([fields[b] for b in chosen], points)
            np.testing.assert_array_equal(
                sample_site_fields(store, points, items=items), expected
            )
        for b, item in enumerate(fields):
            for s, reference in enumerate(item):
                field = int(store.field_offsets[b]) + s
                assert oracle.store_nodes(store, field) == reference.nodes
                assert (
                    store.generator(field).bit_generator.state
                    == reference.rng.bit_generator.state
                )
        assert np.all(np.diff(store.keys) > 0)

    def test_item_without_sites_draws_nothing(self):
        store = LatticeNodeStore([[], [5]], 6.0, 8.0)
        reference = oracle.ShadowingField(5, 6.0, 8.0)
        points = np.array([[(1.0, 2.0), (-9.0, 3.0)], [(4.0, -7.0), (30.0, 1.0)]])
        values = sample_site_fields(store, points)
        assert values.shape == (2, 1, 2)
        np.testing.assert_array_equal(values[0], 0.0)
        np.testing.assert_array_equal(values[1, 0], reference.sample(points[1]))

    def test_only_fields_with_missing_nodes_draw(self):
        store = LatticeNodeStore([[0, 1], [2]], 6.0, 8.0)
        sample_site_fields(store, [[(1.0, 1.0)], [(1.0, 1.0)]])
        states = [store.generator(f).bit_generator.state for f in range(3)]
        sample_site_fields(store, [[(2.0, 3.0)], [(40.0, 1.0)]])
        assert [store.generator(f).bit_generator.state for f in range(2)] == states[:2]
        assert store.generator(2).bit_generator.state != states[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected_without_drawing(self, bad):
        field = one_field(np.random.default_rng(0), 6.0, 8.0)
        with pytest.raises(ValueError, match="finite"):
            sample(field, [(1.0, 2.0), (bad, 0.0)])
        assert field.keys.size == 0
        assert field._generators == [None]

    def test_lattice_index_range_checked(self):
        field = one_field(np.random.default_rng(0), 6.0, 8.0)
        lo = -8.0 * 2**20  # lowest cell index, -2**20
        hi = 8.0 * (2**20 - 2) + 4.0  # highest cell whose +1 corner still packs
        values = sample(field, [(lo, hi), (hi, lo), (0.0, 0.0)])
        assert np.all(np.isfinite(values))
        assert field.keys.size == 12  # no two corners collide
        nodes = oracle.store_nodes(field, 0)
        assert min(k // 2**31 for k in nodes) == -(2**20)
        for point in [(lo - 4.0, 0.0), (0.0, lo - 4.0), (hi + 4.0, 0.0), (0.0, hi + 4.0)]:
            with pytest.raises(ValueError, match="within"):
                sample(field, [point])
        assert field.keys.size == 12

    def test_field_count_checked(self):
        with pytest.raises(ValueError, match="2\\*\\*20 fields"):
            LatticeNodeStore([[0] * (2**20 + 1)], 6.0, 8.0)

    def test_repeated_items_rejected(self):
        store = LatticeNodeStore([[0], [1]], 6.0, 8.0)
        with pytest.raises(ValueError, match="repeat"):
            sample_site_fields(store, [(1.0, 1.0)], items=[1, 1])
        with pytest.raises(ValueError, match="repeat"):
            sample_site_fields(store, [(1.0, 1.0)], items=[-1, 1])
        assert store.keys.size == 0

    def test_out_of_range_items_rejected(self):
        store = LatticeNodeStore([[0], [1]], 6.0, 8.0)
        for items in ([2], [-3]):
            with pytest.raises(IndexError):
                sample_site_fields(store, [(1.0, 1.0)], items=items)
        assert store.keys.size == 0
