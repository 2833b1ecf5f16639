"""Numerical optimal / WMMSE / naive comparator tests."""

import numpy as np
import pytest

from helpers import random_channel
from repro.core import batch as core_batch
from repro.core.optimal import full_optimal_precoder, optimal_power_allocation
from repro.core.wmmse import wmmse_precoder
from repro.phy.capacity import per_antenna_row_power, stream_sinrs, sum_capacity_bps_hz

P = 6.3
NOISE = 1e-9


def naive_scaled_precoder(h, p):
    """The stacked naive repair on one channel (a batch of one)."""
    return core_batch.naive_scaled_precoder(h[None], p)[0]


def balanced_precoder(h, p, noise):
    """The stacked power-balanced solver on one channel (a batch of one)."""
    return core_batch.power_balanced_precoder(h[None], p, noise).v[0]


def capacity(h, v):
    return sum_capacity_bps_hz(stream_sinrs(h, v, NOISE))


class TestNaive:
    def test_feasible(self):
        for seed in range(8):
            v = naive_scaled_precoder(random_channel(seed), P)
            assert per_antenna_row_power(v).max() <= P * (1 + 1e-9)

    def test_no_scaling_when_feasible(self):
        h = np.eye(4, dtype=complex) * 1e-4
        v = naive_scaled_precoder(h, P)
        # Equal split of 4P over 4 diagonal streams: each row exactly P.
        np.testing.assert_allclose(per_antenna_row_power(v), P, rtol=1e-9)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            naive_scaled_precoder(random_channel(0), -1.0)


class TestOptimalZf:
    def test_feasible(self):
        for seed in range(5):
            result = optimal_power_allocation(random_channel(seed), P, NOISE)
            assert per_antenna_row_power(result.v).max() <= P * (1 + 1e-6)

    def test_dominates_naive(self):
        for seed in range(8):
            h = random_channel(seed)
            opt = optimal_power_allocation(h, P, NOISE)
            assert opt.capacity_bps_hz >= capacity(h, naive_scaled_precoder(h, P)) - 1e-6

    def test_dominates_or_matches_balanced(self):
        # The convex optimum searches the same feasible family the greedy
        # power balancing walks, so it can never lose by more than tolerance.
        for seed in range(8):
            h = random_channel(seed)
            opt = optimal_power_allocation(h, P, NOISE)
            balanced = balanced_precoder(h, P, NOISE)
            assert opt.capacity_bps_hz >= capacity(h, balanced) * (1 - 5e-3)

    def test_balanced_is_near_optimal(self):
        # The paper's Fig 11 claim: within ~99% of the numerical optimum.
        effs = []
        for seed in range(12):
            h = random_channel(seed)
            opt = optimal_power_allocation(h, P, NOISE)
            balanced = balanced_precoder(h, P, NOISE)
            effs.append(capacity(h, balanced) / max(opt.capacity_bps_hz, 1e-12))
        assert np.median(effs) > 0.97


class TestFullOptimal:
    def test_feasible_and_dominates_naive(self):
        h = random_channel(0)
        result = full_optimal_precoder(h, P, NOISE, maxiter=80)
        assert per_antenna_row_power(result.v).max() <= P * (1 + 1e-6)
        assert result.capacity_bps_hz >= capacity(h, naive_scaled_precoder(h, P)) - 1e-9


class TestWmmse:
    def test_feasible(self):
        h = random_channel(1)
        result = wmmse_precoder(h, P, NOISE, iterations=15)
        assert per_antenna_row_power(result.v).max() <= P * (1 + 1e-6)

    def test_never_below_naive(self):
        # WMMSE starts from the naive point and keeps the best iterate.
        for seed in range(4):
            h = random_channel(seed)
            result = wmmse_precoder(h, P, NOISE, iterations=15)
            assert result.capacity_bps_hz >= capacity(h, naive_scaled_precoder(h, P)) - 1e-9

    def test_deterministic(self):
        h = random_channel(2)
        a = wmmse_precoder(h, P, NOISE, iterations=10)
        b = wmmse_precoder(h, P, NOISE, iterations=10)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.capacity_bps_hz == b.capacity_bps_hz

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wmmse_precoder(random_channel(0), 0.0, NOISE)
