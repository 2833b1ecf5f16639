"""ZFBF primitive tests (paper eqs. 2a-2b), on batches of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_channel
from helpers.precoding_oracle import equal_power_zfbf, zf_interference_leakage
from repro.core import batch as core_batch
from repro.phy.capacity import per_stream_column_power


def zfbf_directions(h):
    return core_batch.zfbf_directions(np.asarray(h)[None])[0]


def zfbf_equal_power(h, total_power_mw):
    return core_batch.zfbf_equal_power(np.asarray(h)[None], total_power_mw)[0]


class TestDirections:
    def test_unit_columns(self):
        h = random_channel(0)
        v = zfbf_directions(h)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_zero_forcing_property(self):
        h = random_channel(1)
        v = zfbf_directions(h)
        e = h @ v
        off = e - np.diag(np.diag(e))
        assert np.max(np.abs(off)) < 1e-9 * np.max(np.abs(np.diag(e)))

    def test_rectangular_channel(self):
        h = random_channel(2, n_clients=2, n_antennas=4)
        v = zfbf_directions(h)
        assert v.shape == (4, 2)
        e = h @ v
        assert abs(e[0, 1]) < 1e-9 * abs(e[0, 0])

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError):
            zfbf_directions(random_channel(3, n_clients=5, n_antennas=4))

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            zfbf_directions(np.zeros((0, 4), dtype=complex))

    def test_rank_deficient_rejected(self):
        h = np.ones((2, 4), dtype=complex)  # identical rows, rank 1
        with pytest.raises(np.linalg.LinAlgError):
            zfbf_directions(h)

    @staticmethod
    def _weak_second_client(scale):
        h = np.zeros((2, 4), dtype=complex)
        h[0, 0], h[1, 1] = 1.0, scale
        return h

    def test_weak_but_independent_client_accepted(self):
        # Singular-value ratio 1e-9 sits above the 1e-12 rank tolerance.
        v = zfbf_directions(self._weak_second_client(1e-9))
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(v[:2]), np.eye(2), atol=1e-12)

    def test_client_below_rank_tolerance_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            zfbf_directions(self._weak_second_client(1e-13))


class TestEqualPower:
    def test_column_powers_equal_split(self):
        h = random_channel(4)
        v = zfbf_equal_power(h, total_power_mw=8.0)
        np.testing.assert_allclose(per_stream_column_power(v), 2.0, rtol=1e-12)

    def test_total_power(self):
        h = random_channel(5)
        v = zfbf_equal_power(h, total_power_mw=8.0)
        assert per_stream_column_power(v).sum() == pytest.approx(8.0)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            zfbf_equal_power(random_channel(6), 0.0)

    def test_rank_deficient_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            zfbf_equal_power(np.ones((2, 4), dtype=complex), 8.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_zero_forcing_for_random_channels(self, seed):
        h = random_channel(seed)
        v = zfbf_equal_power(h, 8.0)
        assert zf_interference_leakage(h, v) < 1e-8


class TestLeakageMetric:
    def test_perfect_zf_has_tiny_leakage(self):
        h = random_channel(7)
        assert zf_interference_leakage(h, zfbf_directions(h)) < 1e-8

    def test_identity_precoder_leaks(self):
        h = np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)
        assert zf_interference_leakage(h, np.eye(2, dtype=complex)) > 0.5

    def test_column_scaling_preserves_zf(self):
        h = random_channel(8)
        v = zfbf_directions(h)
        scaled = v * np.array([0.3, 0.7, 1.0, 0.1])[None, :]
        assert zf_interference_leakage(h, scaled) < 1e-8


class TestAgainstPseudoInverse:
    @pytest.mark.parametrize("shape", [(4, 4), (2, 4), (3, 5), (1, 3)])
    def test_equal_power_matches_pinv_oracle(self, shape):
        h = random_channel(11, n_clients=shape[0], n_antennas=shape[1])
        np.testing.assert_allclose(
            zfbf_equal_power(h, 8.0), equal_power_zfbf(h, 8.0), rtol=1e-9, atol=0.0
        )

    def test_stack_items_match_oracle(self):
        h = np.stack([random_channel(seed) for seed in range(6)])
        v = core_batch.zfbf_equal_power(h, 8.0)
        for item, vi in zip(h, v):
            np.testing.assert_allclose(vi, equal_power_zfbf(item, 8.0), rtol=1e-9)

    def test_rejects_single_matrices(self):
        with pytest.raises(ValueError, match="stacked"):
            core_batch.zfbf_directions(random_channel(0))
