"""MIDAS power-balanced precoder tests (paper §3.1.2), on batches of one."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_channel
from helpers.precoding_oracle import row_powers, zf_interference_leakage
from repro.core import batch as core_batch
from repro.phy.capacity import stream_sinrs, sum_capacity_bps_hz

P = 6.3  # per-antenna budget, mW
NOISE = 1e-9


def power_balanced_precoder(h, p, noise):
    """The stacked solver on one channel: item 0 of a batch of one."""
    result = core_batch.power_balanced_precoder(h[None], p, noise)
    return SimpleNamespace(
        v=result.v[0],
        rounds=int(result.rounds[0]),
        converged=bool(result.converged[0]),
        row_powers_mw=result.row_powers_mw[0],
        cumulative_weights=result.cumulative_weights[0],
    )


def naive_scaled_precoder(h, p):
    return core_batch.naive_scaled_precoder(h[None], p)[0]


class TestFeasibility:
    def test_per_antenna_constraint_satisfied(self):
        for seed in range(10):
            h = random_channel(seed)
            result = power_balanced_precoder(h, P, NOISE)
            assert result.converged
            assert row_powers(result.v).max() <= P * (1 + 1e-6)

    def test_rounds_bounded_by_antennas(self):
        for seed in range(10):
            h = random_channel(seed)
            result = power_balanced_precoder(h, P, NOISE)
            assert result.rounds <= h.shape[1] + 2

    def test_zero_forcing_preserved(self):
        for seed in range(5):
            h = random_channel(seed)
            result = power_balanced_precoder(h, P, NOISE)
            assert zf_interference_leakage(h, result.v) < 1e-7

    def test_cumulative_weights_at_most_one(self):
        h = random_channel(3)
        result = power_balanced_precoder(h, P, NOISE)
        assert np.all(result.cumulative_weights <= 1.0 + 1e-12)
        assert np.all(result.cumulative_weights > 0)

    def test_no_stream_zeroed(self):
        for seed in range(10):
            h = random_channel(seed)
            result = power_balanced_precoder(h, P, NOISE)
            stream_powers = np.sum(np.abs(result.v) ** 2, axis=0)
            assert np.all(stream_powers > 0)


class TestPerformance:
    def test_beats_naive_in_the_median(self):
        # The greedy row-by-row water-filling is not a pointwise optimum --
        # on rare draws it can land slightly below the naive scaling -- but
        # it must win in aggregate (the paper's Fig 10 claim) and never lose
        # badly on any single channel.
        balanced_caps, naive_caps = [], []
        for seed in range(25):
            h = random_channel(seed)
            balanced = power_balanced_precoder(h, P, NOISE).v
            naive = naive_scaled_precoder(h, P)
            cb = sum_capacity_bps_hz(stream_sinrs(h, balanced, NOISE))
            cn = sum_capacity_bps_hz(stream_sinrs(h, naive, NOISE))
            assert cb >= cn * 0.95
            balanced_caps.append(cb)
            naive_caps.append(cn)
        assert np.median(balanced_caps) > np.median(naive_caps)

    def test_already_feasible_channel_untouched(self):
        # A well-balanced channel needs no rounds.
        h = np.eye(4, dtype=complex) * 1e-4
        result = power_balanced_precoder(h, P, NOISE)
        assert result.rounds == 0
        np.testing.assert_allclose(result.cumulative_weights, 1.0)


class TestValidation:
    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            power_balanced_precoder(random_channel(0), 0.0, NOISE)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            power_balanced_precoder(random_channel(0), P, 0.0)


class TestProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariants_for_random_channels(self, seed):
        h = random_channel(seed)
        result = power_balanced_precoder(h, P, NOISE)
        assert result.converged
        assert row_powers(result.v).max() <= P * (1 + 1e-6)
        assert zf_interference_leakage(h, result.v) < 1e-6

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_rectangular_channels(self, seed, n_clients, n_antennas):
        if n_clients > n_antennas:
            n_clients, n_antennas = n_antennas, n_clients
        h = random_channel(seed, n_clients=n_clients, n_antennas=n_antennas)
        result = power_balanced_precoder(h, P, NOISE)
        assert result.converged
        assert result.v.shape == (n_antennas, n_clients)


class TestStackedContract:
    def test_reported_row_powers_are_eq3(self):
        h = random_channel(4)
        result = power_balanced_precoder(h, P, NOISE)
        np.testing.assert_allclose(result.row_powers_mw, row_powers(result.v), rtol=1e-12)

    def test_naive_meets_the_cap_exactly_on_its_worst_row(self):
        # Eq. 5: one global scaling brings the worst row down to P.
        for seed in range(5):
            v = naive_scaled_precoder(random_channel(seed), P)
            assert row_powers(v).max() == pytest.approx(P, rel=1e-12)
            assert zf_interference_leakage(random_channel(seed), v) < 1e-8

    def test_rejects_single_matrices(self):
        with pytest.raises(ValueError, match="h\\[None\\]"):
            core_batch.power_balanced_precoder(random_channel(0), P, NOISE)
