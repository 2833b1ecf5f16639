"""SU beamforming / SVD comparator tests (paper §7)."""

import numpy as np
import pytest

from repro.core import svd_waterfilling
from repro.core.svd import su_beamforming_precoder

NOISE = 1e-9


class TestSuBeamforming:
    def test_full_power_per_antenna(self):
        h = np.array([1 + 1j, 2 - 1j, -0.5 + 0.2j])
        v = su_beamforming_precoder(h, 4.0)
        np.testing.assert_allclose(np.abs(v.ravel()) ** 2, 4.0)

    def test_coherent_combining(self):
        h = np.array([1 + 1j, 2 - 1j, -0.5 + 0.2j])
        v = su_beamforming_precoder(h, 4.0)
        received = h @ v.ravel()
        expected = np.sqrt(4.0) * np.sum(np.abs(h))
        assert abs(received) == pytest.approx(expected)

    def test_beats_single_antenna(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = su_beamforming_precoder(h, 4.0)
        combined = np.abs(h @ v.ravel()) ** 2
        best_single = 4.0 * np.max(np.abs(h)) ** 2
        assert combined > best_single

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            su_beamforming_precoder(np.array([]), 4.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            su_beamforming_precoder(np.array([1.0 + 0j]), 0.0)


class TestSvdWaterfilling:
    """The stacked kernel on a batch of one."""

    def _channel(self, seed=0, n_rx=2, n_tx=4):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        return h[None] * 1e-4

    def test_power_budget_met(self):
        alloc = svd_waterfilling(self._channel(), 8.0, NOISE)
        assert alloc.stream_powers_mw[0].sum() == pytest.approx(8.0, rel=1e-6)

    def test_stronger_modes_get_more_power(self):
        alloc = svd_waterfilling(self._channel(1), 8.0, NOISE)
        powers = alloc.stream_powers_mw[0]
        order = np.argsort(-alloc.singular_values[0])
        assert powers[order[0]] >= powers[order[-1]] - 1e-12

    def test_capacity_beats_equal_split(self):
        h = self._channel(2)
        alloc = svd_waterfilling(h, 8.0, NOISE)
        gains = alloc.singular_values[0] ** 2 / NOISE
        equal = np.sum(np.log2(1 + gains * (8.0 / len(gains))))
        assert alloc.capacity_bps_hz(NOISE)[0] >= equal - 1e-9

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            svd_waterfilling(self._channel(), 0.0, NOISE)
