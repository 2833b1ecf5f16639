"""Composite channel model tests, on a batch of one topology."""

import numpy as np
import pytest

from helpers.goldens import floats, goldens
from helpers.shadowing_oracle import channel_site_fields
from repro.channel.batch import ChannelBatch, apply_csi_error
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


def one_channel(deployment, radio, seed):
    """One topology's channel: a batch of one."""
    return ChannelBatch(deployment, radio, seeds=[seed])


@pytest.fixture(scope="module")
def scenario():
    return single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[5])


@pytest.fixture(scope="module")
def model(scenario):
    return one_channel(scenario.deployment, scenario.radio, seed=5)


class TestChannelMatrix:
    def test_shape(self, scenario, model):
        h = model.channel_matrices()
        assert h.shape == (1, scenario.deployment.n_clients, scenario.deployment.n_antennas)

    def test_complex_dtype(self, model):
        assert np.iscomplexobj(model.channel_matrices())

    def test_deterministic_by_seed(self, scenario):
        a = one_channel(scenario.deployment, scenario.radio, seed=9).channel_matrices()
        b = one_channel(scenario.deployment, scenario.radio, seed=9).channel_matrices()
        np.testing.assert_array_equal(a, b)

    def test_reads_draw_nothing_from_the_fading_stream(self, scenario):
        read = one_channel(scenario.deployment, scenario.radio, seed=9)
        first = read.channel_matrices().copy()
        np.testing.assert_array_equal(read.channel_matrices(), first)
        read.advance(0.05)
        direct = one_channel(scenario.deployment, scenario.radio, seed=9)
        direct.advance(0.05)
        np.testing.assert_array_equal(read.channel_matrices(), direct.channel_matrices())

    def test_host_complex128_snapshot(self, model):
        h = model.channel_matrices()
        assert type(h) is np.ndarray and h.dtype == np.complex128

    def test_advance_changes_matrix(self, scenario):
        m = one_channel(scenario.deployment, scenario.radio, seed=9)
        before = m.channel_matrices().copy()
        m.advance(0.5)
        assert not np.allclose(before, m.channel_matrices())

    def test_advance_tracks_time(self, scenario):
        m = one_channel(scenario.deployment, scenario.radio, seed=9)
        m.advance(0.25)
        assert m.time_s == pytest.approx(0.25)

    def test_magnitude_matches_large_scale_gain(self, scenario):
        m = one_channel(scenario.deployment, scenario.radio, seed=9)
        h = m.channel_matrices()
        gain_linear = 10 ** (m.client_gain_db() / 10.0)
        # Fading is unit power, so |h|^2 should be the right order of magnitude.
        ratio = np.abs(h) ** 2 / gain_linear
        assert np.median(ratio) == pytest.approx(1.0, abs=0.9)


class TestLargeScaleMaps:
    def test_gain_decreases_with_distance(self, scenario):
        radio = scenario.radio.with_(shadowing_sigma_db=0.0, cable_loss_db_per_m=0.0)
        m = one_channel(scenario.deployment, radio, seed=1)
        antenna = scenario.deployment.antenna_positions[0, 0]
        near = antenna + np.array([1.0, 0.0])
        far = antenna + np.array([12.0, 0.0])
        gain = m.large_scale_gain_db([near, far])[0]
        assert gain[0, 0] > gain[1, 0]

    def test_rx_power_offsets_gain_by_tx_power(self, model, scenario):
        pts = [(1.0, 1.0)]
        gain = model.large_scale_gain_db(pts)
        rx = model.rx_power_dbm(pts)
        np.testing.assert_allclose(rx - gain, scenario.radio.per_antenna_power_dbm)

    def test_snr_map_offsets_by_noise(self, model, scenario):
        from repro import units

        pts = [(2.0, 2.0)]
        snr = model.snr_db_map(pts)
        rx = model.rx_power_dbm(pts)
        np.testing.assert_allclose(
            snr, rx - units.mw_to_dbm(scenario.radio.noise_mw)
        )

    def test_cable_loss_zero_for_cas(self):
        cas = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[5])
        m = one_channel(cas.deployment, cas.radio, seed=5)
        assert np.all(m.cable_loss_db < 0.1)

    def test_cable_loss_positive_for_das(self, model, scenario):
        expected_min = 5.0 * scenario.radio.cable_loss_db_per_m
        assert np.all(model.cable_loss_db >= expected_min - 1e-9)

    def test_antenna_cross_power_diagonal_infinite(self, model):
        cross = model.antenna_cross_power_dbm()[0]
        assert np.all(np.isinf(np.diag(cross)))

    def test_antenna_cross_power_shape(self, model, scenario):
        n = scenario.deployment.n_antennas
        assert model.antenna_cross_power_dbm().shape == (1, n, n)

    def test_client_rx_power_uses_cached_gains(self, model, scenario):
        rssi = model.client_rx_power_dbm()
        np.testing.assert_allclose(
            rssi, scenario.radio.per_antenna_power_dbm + model.client_gain_db()
        )


class TestCsiError:
    def test_zero_error_returns_same_object(self):
        h = np.ones((2, 2), dtype=complex)
        assert apply_csi_error(h, 0.0, np.random.default_rng(0)) is h

    def test_error_scales_with_magnitude(self):
        rng = np.random.default_rng(0)
        h = np.full((200, 200), 10.0 + 0j)
        noisy = apply_csi_error(h, 0.1, rng)
        rel = np.abs(noisy - h) / np.abs(h)
        assert np.mean(rel) == pytest.approx(0.1, rel=0.25)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            apply_csi_error(np.ones((1, 1), dtype=complex), -0.1, np.random.default_rng(0))


class TestVectorizedGainLoops:
    """The per-site vectorization of the old per-antenna loops must be a pure
    refactor: equality against a reference per-antenna walk, draw for draw."""

    @staticmethod
    def _reference_gain_db(scenario, seed, rx_points):
        """The historical per-antenna implementation of large_scale_gain_db,
        replayed on identically-seeded oracle fields."""
        from repro.channel import walls
        from repro.channel.pathloss import LogDistancePathLoss
        from repro.topology import geometry

        model = one_channel(scenario.deployment, scenario.radio, seed=seed)
        radio = scenario.radio
        pts = geometry.as_points(rx_points)
        pathloss = LogDistancePathLoss.from_radio(radio)
        dists = geometry.pairwise_distances(pts, scenario.deployment.antenna_positions[0])
        gain = -pathloss.loss_db(dists)
        if radio.wall_loss_db > 0:
            gain -= walls.wall_loss_db(
                pts,
                scenario.deployment.antenna_positions[0],
                radio.wall_spacing_m,
                radio.wall_loss_db,
                max_walls=radio.max_wall_count,
            )
        site_of = model._site_of_antenna[0]
        fields = channel_site_fields(seed, int(site_of.max()) + 1, radio)
        for field in fields:  # the model sampled its clients at construction
            field.sample(scenario.deployment.client_positions[0])
        for k in range(scenario.deployment.n_antennas):
            gain[:, k] += fields[site_of[k]].sample(pts)
        gain -= model._cable_loss_db[0][None, :]
        return gain

    def test_large_scale_gain_matches_per_antenna_reference(self, scenario):
        points = np.random.default_rng(2).uniform(-10, 10, (30, 2))
        vectorized = one_channel(
            scenario.deployment, scenario.radio, seed=11
        ).large_scale_gain_db(points)[0]
        reference = self._reference_gain_db(scenario, 11, points)
        np.testing.assert_array_equal(vectorized, reference)

    def test_cas_and_das_site_structures(self):
        # CAS: one shared field; DAS: one per antenna.  Both must match the
        # per-antenna reference exactly.
        env = office_b()
        for mode in (AntennaMode.CAS, AntennaMode.DAS):
            scenario = single_ap_scenario(env, mode, seeds=[21])
            points = scenario.deployment.client_positions[0]
            vectorized = one_channel(
                scenario.deployment, scenario.radio, seed=21
            ).large_scale_gain_db(points)[0]
            reference = self._reference_gain_db(scenario, 21, points)
            np.testing.assert_array_equal(vectorized, reference)

    def test_antenna_cross_power_matches_per_antenna_reference(self, scenario):
        model = one_channel(scenario.deployment, scenario.radio, seed=13)
        reference_model = one_channel(scenario.deployment, scenario.radio, seed=13)
        pts = scenario.deployment.antenna_positions[0]
        # Reference: recompute the shadowing sum with an explicit antenna loop
        # over identically-seeded oracle fields that first sampled the
        # clients, as the model did at construction.
        site_of = model._site_of_antenna[0]
        fields = channel_site_fields(13, int(site_of.max()) + 1, scenario.radio)
        expected_shadow = np.zeros((len(pts), scenario.deployment.n_antennas))
        for field in fields:
            field.sample(scenario.deployment.client_positions[0])
        for k in range(scenario.deployment.n_antennas):
            expected_shadow[:, k] = fields[site_of[k]].sample(pts)
        np.testing.assert_array_equal(model.shadowing_db(pts)[0], expected_shadow)
        np.testing.assert_array_equal(
            model.antenna_cross_power_dbm(),
            reference_model.antenna_cross_power_dbm(),
        )

    def test_negative_items_match_their_positive_numbers(self):
        scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=range(3))
        by_sign = ChannelBatch(scenario.deployment, scenario.radio, seeds=[1, 2, 3])
        by_number = ChannelBatch(scenario.deployment, scenario.radio, seeds=[1, 2, 3])
        rng = np.random.default_rng(4)
        for points in (rng.uniform(-10, 10, (6, 2)), rng.uniform(-10, 10, (6, 2))):
            for _ in range(2):  # a revisit reads the stored nodes back
                np.testing.assert_array_equal(
                    by_sign.shadowing_db(points, items=[-1, 0]),
                    by_number.shadowing_db(points, items=[2, 0]),
                )
        np.testing.assert_array_equal(by_sign._shadowing.keys, by_number._shadowing.keys)
        assert np.all(np.diff(by_sign._shadowing.keys) > 0)
        with pytest.raises(ValueError, match="repeat"):
            by_sign.shadowing_db(points, items=[-1, 2])


class TestGoldens:
    """A batch of one reproduces the retired per-topology model exactly."""

    GOLDEN = goldens()["channel_model"]

    def test_snapshot_maps(self, scenario):
        m = one_channel(scenario.deployment, scenario.radio, seed=5)
        assert np.array_equal(m.channel_matrices()[0], floats(self.GOLDEN["h"]))
        assert np.array_equal(
            m.client_rx_power_dbm()[0], floats(self.GOLDEN["client_rx_power_dbm"])
        )
        assert np.array_equal(
            m.antenna_cross_power_dbm()[0], floats(self.GOLDEN["cross_power_dbm"])
        )
        assert np.array_equal(m.cable_loss_db[0], floats(self.GOLDEN["cable_loss_db"]))
        m.advance(0.05)
        assert np.array_equal(
            m.channel_matrices()[0], floats(self.GOLDEN["h_after_advance"])
        )

    def test_gain_maps(self, scenario):
        points = np.random.default_rng(2).uniform(-10, 10, (30, 2))
        gain = one_channel(scenario.deployment, scenario.radio, seed=11).large_scale_gain_db(
            points
        )
        assert np.array_equal(gain[0], floats(self.GOLDEN["gain_db_seed11"]))
        for mode, key in (
            (AntennaMode.CAS, "cas21_client_gain_db"),
            (AntennaMode.DAS, "das21_client_gain_db"),
        ):
            other = single_ap_scenario(office_b(), mode, seeds=[21])
            gain = one_channel(other.deployment, other.radio, seed=21).large_scale_gain_db(
                other.deployment.client_positions[0]
            )
            assert np.array_equal(gain[0], floats(self.GOLDEN[key]))
