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


#: 4x4 Office A channels (``float.hex`` real and imaginary parts, row-major)
#: on which the mu -> 0 probe of the WMMSE precoder update met an exactly
#: singular weighted matrix: fig08 at seed 0 and fig09 at seed 1, 200
#: topologies, ``precoder="wmmse"``, with the runs' per-antenna budget and
#: noise floor (mW).
SINGULAR_P = float.fromhex("0x1.93d00d2348997p+2")
SINGULAR_NOISE = float.fromhex("0x1.b83b4318002dcp-31")
SINGULAR_WEIGHT_CHANNELS = [
    # fig08-seed0: one stream's MSE weight collapses and A turns singular.
    (
        [
            "-0x1.3d193bffe7c50p-16", "0x1.1e1f1080f4166p-16",
            "0x1.e9ff71d712104p-16", "-0x1.b1f509997a106p-16",
            "0x1.b6b4d3345e806p-13", "0x1.1545cc79bed6ep-15",
            "-0x1.2ec22d2b77bbbp-16", "-0x1.b57751d0e4b63p-17",
            "0x1.a36755213a560p-21", "0x1.56e5f331fe11cp-18",
            "0x1.703d0ceee4987p-20", "0x1.1c25fb5d655c3p-21",
            "0x1.e2a7a77a4c849p-20", "-0x1.a9ece1a7af18cp-17",
            "0x1.958af2039a8bdp-24", "0x1.ec9c9cbc2ab24p-20",
        ],
        [
            "-0x1.b43c86337eeadp-16", "-0x1.173e5766cddd9p-20",
            "0x1.4406197aca760p-18", "-0x1.063898725be7ep-17",
            "0x1.afa53e592c4ccp-15", "0x1.ae42ae841856dp-15",
            "0x1.061eb212a36a8p-14", "-0x1.48ba1753444bcp-13",
            "-0x1.4e404918dc0b1p-17", "0x1.01ef3e726f0ffp-15",
            "0x1.13d7e58ee1259p-20", "-0x1.955e674446f7fp-18",
            "-0x1.62e4b45ce7b8bp-17", "0x1.64e1dac5330eap-15",
            "-0x1.0abee9b261e19p-21", "-0x1.1a186310515f7p-19",
        ],
    ),
    # fig09-seed1: one stream's MSE weight collapses and A turns singular.
    (
        [
            "-0x1.cfeca841c925bp-18", "0x1.6932f6e178c18p-21",
            "-0x1.174f42b1ca3ebp-20", "-0x1.c5c1989765c53p-16",
            "-0x1.2edbd4b44c6cbp-15", "-0x1.d1ab1b4129442p-17",
            "0x1.4bb30c0902971p-13", "-0x1.ee9ea2ce5dbe4p-11",
            "0x1.7c533775603c0p-14", "0x1.5d64222a1e8ffp-15",
            "0x1.0bcb27469603ap-16", "-0x1.88b56e7b0959fp-18",
            "-0x1.a0d9ac28394dep-16", "-0x1.21298b8ea6098p-18",
            "0x1.145f6da6280e7p-21", "-0x1.a45151cda53f4p-20",
        ],
        [
            "-0x1.101b8ce1c4bccp-18", "-0x1.6e41342857fc9p-20",
            "-0x1.43f16939577d2p-20", "-0x1.2a608e5588031p-15",
            "0x1.120dc745a1464p-15", "0x1.8aee452d23bfep-20",
            "-0x1.225c3e0bb465fp-12", "-0x1.d33c4866ab7d4p-9",
            "0x1.efbfe99d99d45p-15", "0x1.b5413a4d38a24p-15",
            "0x1.b5269677c1712p-17", "-0x1.e082c8f5dc16bp-18",
            "0x1.d70b6f71cc807p-19", "-0x1.39057f39aa3d6p-19",
            "0x1.b9c0ee05fb059p-19", "0x1.9ed24aa344c28p-16",
        ],
    ),
]


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

    @pytest.mark.parametrize("case", range(len(SINGULAR_WEIGHT_CHANNELS)))
    def test_singular_weighted_matrix_falls_back_to_bisection(self, case):
        real, imag = SINGULAR_WEIGHT_CHANNELS[case]
        h = np.array([float.fromhex(x) for x in real]).reshape(4, 4) + 1j * np.array(
            [float.fromhex(x) for x in imag]
        ).reshape(4, 4)
        p, noise = SINGULAR_P, SINGULAR_NOISE
        result = wmmse_precoder(h, p, noise)
        assert np.isfinite(result.v).all()
        assert per_antenna_row_power(result.v).max() <= p * (1 + 1e-9)
        naive = sum_capacity_bps_hz(stream_sinrs(h, naive_scaled_precoder(h, p), noise))
        assert result.capacity_bps_hz >= naive
