"""Small-scale fading model tests."""

import numpy as np
import pytest
from scipy.special import j0

from repro import units
from repro.channel.batch import ChannelBatch, stacked_correlation
from repro.channel.fading import correlation_sqrt, sample_fading
from repro.config import RadioConfig
from repro.topology.deployment import AntennaMode, Deployment

WAVELENGTH = 0.057


def fading_channel(
    n_rx, antenna_positions, seed=0, doppler=10.0, rician_k=0.0, angular_spread_deg=20.0
):
    """A batch of one channel with ``n_rx`` co-located receivers and no
    shadowing or cable loss, so its small-scale state is easy to read back
    (:func:`unit_fading`)."""
    radio = RadioConfig(
        doppler_hz=doppler,
        rician_k=rician_k,
        angular_spread_deg=angular_spread_deg,
        shadowing_sigma_db=0.0,
        cable_loss_db_per_m=0.0,
    )
    antennas = np.asarray(antenna_positions, dtype=float)
    deployment = Deployment(
        ap_positions=[[(0.0, 0.0)]],
        antenna_positions=antennas[None],
        antenna_ap=np.zeros(len(antennas), dtype=int),
        client_positions=np.tile([[3.0, 4.0]], (1, n_rx, 1)),
        client_ap=np.zeros(n_rx, dtype=int),
        mode=AntennaMode.DAS,
    )
    return ChannelBatch(deployment, radio, seeds=[seed])


def unit_fading(channel) -> np.ndarray:
    """The unit-power fading matrix ``(n_rx, n_tx)`` of a batch of one: the
    channel with its large-scale amplitude divided out."""
    amplitude = np.sqrt(units.db_to_linear(channel.client_gain_db()))
    return (channel.channel_matrices() / amplitude)[0]


class TestSampleFading:
    def test_shape(self):
        h = sample_fading(np.random.default_rng(0), 3, 5)
        assert h.shape == (3, 5)

    def test_unit_average_power(self):
        h = sample_fading(np.random.default_rng(0), 200, 200)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rician_k_preserves_power(self):
        h = sample_fading(np.random.default_rng(0), 200, 200, rician_k=5.0)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            sample_fading(np.random.default_rng(0), 2, 2, rician_k=-1.0)


def correlation(points, spread_deg=None):
    """One layout's tx-side correlation: ``stacked_correlation`` on a batch
    of one (``spread_deg=None`` is isotropic Jakes scattering)."""
    return stacked_correlation(np.asarray(points, dtype=float)[None], WAVELENGTH, spread_deg)[0]


class TestCorrelationModels:
    def test_jakes_diagonal_is_one(self):
        corr = correlation([(0, 0), (WAVELENGTH / 2, 0)])
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-9)

    def test_jakes_matches_bessel(self):
        d = WAVELENGTH / 2
        corr = correlation([(0, 0), (d, 0)])
        assert corr[0, 1] == pytest.approx(float(j0(np.pi)), abs=0.05)

    def test_angular_spread_decreases_with_distance(self):
        pts = [(0, 0), (WAVELENGTH / 2, 0), (5 * WAVELENGTH, 0)]
        corr = correlation(pts, 15.0)
        assert corr[0, 1] > corr[0, 2]

    def test_angular_spread_higher_correlation_for_narrow_spread(self):
        pts = [(0, 0), (WAVELENGTH / 2, 0)]
        assert correlation(pts, 8.0)[0, 1] > correlation(pts, 40.0)[0, 1]

    def test_distributed_antennas_nearly_uncorrelated(self):
        corr = correlation([(0, 0), (5.0, 0)], 15.0)
        assert abs(corr[0, 1]) < 0.01

    def test_psd(self):
        pts = [(0, 0), (WAVELENGTH / 2, 0), (WAVELENGTH, 0), (3 * WAVELENGTH / 2, 0)]
        for corr in (correlation(pts), correlation(pts, 15.0)):
            eigvals = np.linalg.eigvalsh(corr)
            assert np.all(eigvals >= -1e-9)

    def test_spread_selects_the_model(self):
        """``None`` is Jakes' ``J0(2 pi d / lambda)``; a spread is the
        Gaussian ``exp(-2 (pi d sigma / lambda)^2)`` (both already PSD for
        two antennas, so the projection leaves them as they are)."""
        d = WAVELENGTH / 2
        pts = [(0, 0), (d, 0)]
        assert correlation(pts)[0, 1] == pytest.approx(float(j0(2 * np.pi * d / WAVELENGTH)))
        sigma = np.radians(15.0)
        assert correlation(pts, 15.0)[0, 1] == pytest.approx(
            np.exp(-2.0 * (np.pi * d * sigma / WAVELENGTH) ** 2)
        )

    @pytest.mark.parametrize("spread_deg", [None, 15.0])
    def test_stacked_batch_equals_each_layout_alone(self, spread_deg):
        layouts = np.random.default_rng(3).uniform(-0.2, 0.2, (5, 4, 2))
        stacked = stacked_correlation(layouts, WAVELENGTH, spread_deg)
        for item, layout in enumerate(layouts):
            np.testing.assert_array_equal(stacked[item], correlation(layout, spread_deg))

    def test_sqrt_squares_back(self):
        corr = correlation([(0, 0), (WAVELENGTH / 2, 0), (WAVELENGTH, 0)], 15.0)
        root = correlation_sqrt(corr)
        np.testing.assert_allclose(root @ root.conj().T, corr, atol=1e-9)

    def test_invalid_spread_rejected(self):
        with pytest.raises(ValueError):
            correlation([(0, 0)], 0.0)


class TestFadingEvolution:
    ANTENNAS = [(0, 0), (6, 0), (0, 7)]

    def _channel(self, doppler=10.0, n_rx=3):
        return fading_channel(n_rx, self.ANTENNAS, doppler=doppler)

    def test_current_shape(self):
        assert unit_fading(self._channel()).shape == (3, 3)

    def test_zero_dt_is_identity(self):
        channel = self._channel()
        before = channel.channel_matrices().copy()
        channel.advance(0.0)
        np.testing.assert_array_equal(channel.channel_matrices(), before)

    def test_zero_doppler_freezes(self):
        channel = self._channel(doppler=0.0)
        before = channel.channel_matrices().copy()
        channel.advance(10.0)
        np.testing.assert_array_equal(channel.channel_matrices(), before)

    def test_small_dt_high_correlation(self):
        channel = self._channel(doppler=5.0)
        before = unit_fading(channel)
        channel.advance(1e-4)
        after = unit_fading(channel)
        corr = np.abs(np.vdot(before, after)) / (
            np.linalg.norm(before) * np.linalg.norm(after)
        )
        assert corr > 0.99

    def test_long_dt_decorrelates(self):
        # 64 receivers: independent 192-entry draws correlate ~0.07, far
        # from the 0.5 bound whatever the seed.
        channel = self._channel(doppler=10.0, n_rx=64)
        before = unit_fading(channel)
        for __ in range(20):
            channel.advance(1.0)
        after = unit_fading(channel)
        corr = np.abs(np.vdot(before, after)) / (
            np.linalg.norm(before) * np.linalg.norm(after)
        )
        assert corr < 0.5

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            self._channel().advance(-1.0)

    def test_correlated_cas_array(self):
        # Antennas half a wavelength apart must produce correlated columns.
        spacing = RadioConfig().wavelength_m / 2
        channel = fading_channel(
            4000, [(0, 0), (spacing, 0)], seed=1, angular_spread_deg=10.0
        )
        g = unit_fading(channel)
        sample_corr = np.abs(np.mean(g[:, 0] * np.conj(g[:, 1])))
        assert sample_corr > 0.5


class TestTemporalEvolution:
    """The Gauss-Markov update must preserve the marginal fading statistics
    over arbitrarily many steps -- otherwise long mobility runs would slowly
    cool (or heat) every channel they touch."""

    def _ensemble(self, advance):
        channel = fading_channel(1500, [(0, 0), (6, 0), (0, 7)], seed=3, doppler=12.0)
        for __ in range(60):
            advance(channel)
        return unit_fading(channel)

    def test_rayleigh_variance_preserved_global_doppler(self):
        g = self._ensemble(lambda channel: channel.advance(0.02))
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.05)
        # Real/imag parts stay zero-mean circular Gaussian halves.
        assert np.mean(g.real) == pytest.approx(0.0, abs=0.02)
        assert np.var(g.real) == pytest.approx(0.5, rel=0.1)

    def test_rayleigh_variance_preserved_per_client_doppler(self):
        fd = np.linspace(0.0, 40.0, 1500)[None]  # parked through vehicular
        g = self._ensemble(lambda channel: channel.advance(0.02, doppler_hz=fd))
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.05)
        # The fast rows must not have drifted away from unit power either.
        fast = g[1000:]
        assert np.mean(np.abs(fast) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_rician_variance_preserved(self):
        channel = fading_channel(
            1500, [(0, 0), (6, 0)], seed=4, doppler=12.0, rician_k=4.0
        )
        for __ in range(40):
            channel.advance(0.02, doppler_hz=np.full((1, 1500), 15.0))
        assert np.mean(np.abs(unit_fading(channel)) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_zero_doppler_rows_frozen_under_per_client_advance(self):
        channel = fading_channel(4, [(0, 0), (6, 0)], seed=5, doppler=8.0)
        before = channel.channel_matrices()[0].copy()
        channel.advance(0.02, doppler_hz=np.array([[0.0, 0.0, 25.0, 25.0]]))
        after = channel.channel_matrices()[0]
        np.testing.assert_array_equal(after[:2], before[:2])
        assert not np.array_equal(after[2:], before[2:])

    def test_negative_doppler_rejected(self):
        channel = fading_channel(2, [(0, 0)], seed=6)
        with pytest.raises(ValueError):
            channel.advance(0.02, doppler_hz=np.array([[-1.0, 3.0]]))


class TestBatchAdvanceComposition:
    """``ChannelBatch.advance`` under per-item, per-client Doppler must give
    every item exactly what a batch of that one item gives, including under
    an ``items`` mask."""

    def _build(self):
        from repro.topology.scenarios import office_a, single_ap_scenario

        env = office_a()
        seeds = [0, 1, 2]
        scenario = single_ap_scenario(env, AntennaMode.DAS, seeds=seeds)
        singles = [
            ChannelBatch(scenario.deployment.take([i]), scenario.radio, seeds=[seed])
            for i, seed in enumerate(seeds)
        ]
        batch = ChannelBatch(scenario.deployment, scenario.radio, seeds)
        return singles, batch

    def test_full_batch_per_item_doppler(self):
        singles, batch = self._build()
        fd = np.random.default_rng(9).uniform(0.0, 50.0, (3, 4))
        for __ in range(3):
            for i, single in enumerate(singles):
                single.advance(0.02, doppler_hz=fd[i][None])
            batch.advance(0.02, doppler_hz=fd)
            stacked = batch.channel_matrices()
            for i, single in enumerate(singles):
                np.testing.assert_array_equal(single.channel_matrices()[0], stacked[i])

    def test_masked_items_subset(self):
        singles, batch = self._build()
        fd = np.random.default_rng(10).uniform(0.0, 50.0, (3, 4))
        batch.advance(0.02, items=[0, 2], doppler_hz=fd[[0, 2]])
        for i in (0, 2):
            singles[i].advance(0.02, doppler_hz=fd[i][None])
        stacked = batch.channel_matrices()
        for i in (0, 2):
            np.testing.assert_array_equal(singles[i].channel_matrices()[0], stacked[i])
        # The skipped item's state (and generator) must be untouched.
        np.testing.assert_array_equal(singles[1].channel_matrices()[0], stacked[1])
