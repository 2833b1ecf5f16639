"""Mask-aware precoder kernels on zero-padded stacks.

A slot with ``K`` real clients and ``N`` real antennas, padded to ``A x A``
and masked, must solve like its unpadded ``(K, N)`` block (to rounding),
return exact zeros on its padding, and leave unmasked calls untouched.
Reverse water-filling needs no masks: padded streams carry zero row power,
which it leaves out (exactly, below NumPy's eight-term pairwise sums).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    naive_scaled_precoder,
    power_balanced_precoder,
    reverse_waterfill,
    zfbf_directions,
    zfbf_equal_power,
)

A = 4
NOISE_MW = 1e-9

KERNELS = {
    "zfbf": lambda h, **masks: zfbf_directions(h, **masks),
    "naive": lambda h, **masks: naive_scaled_precoder(h, 1.0, **masks),
    "balanced": lambda h, **masks: power_balanced_precoder(h, 1.0, NOISE_MW, **masks).v,
}


@st.composite
def _padded_slots(draw):
    """One real ``(K, N)`` block, where it sits in an ``A x A`` padded
    matrix (clients in any row order, antennas ascending), and the padded
    matrix with garbage in its padding."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(1, A))
    n = draw(st.integers(k, A))
    block = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) * 10 ** rng.uniform(
        -4, -2, (1, n)
    )
    rows = rng.permutation(np.sort(rng.choice(A, k, replace=False)))
    cols = np.sort(rng.choice(A, n, replace=False))
    padded = rng.standard_normal((A, A)) + 1j * rng.standard_normal((A, A))
    padded[np.ix_(rows, cols)] = block
    client_mask = np.zeros(A, dtype=bool)
    client_mask[rows] = True
    antenna_mask = np.zeros(A, dtype=bool)
    antenna_mask[cols] = True
    return block, padded, rows, cols, client_mask, antenna_mask


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@given(slot=_padded_slots())
@settings(max_examples=40, deadline=None)
def test_masked_slot_matches_unpadded_block(kernel, slot):
    block, padded, rows, cols, client_mask, antenna_mask = slot
    solve = KERNELS[kernel]
    expected = solve(block[None])[0]
    v = solve(padded[None], client_mask=client_mask[None], antenna_mask=antenna_mask[None])[0]
    real = np.ix_(cols, rows)  # (antennas, streams)
    np.testing.assert_allclose(
        v[real], expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
    )
    padding = v.copy()
    padding[real] = 0.0
    assert not padding.any()  # padded antenna rows and stream columns


@given(slot=_padded_slots())
@settings(max_examples=40, deadline=None)
def test_balanced_repair_counts_only_real_antennas(slot):
    block, padded, rows, cols, client_mask, antenna_mask = slot
    expected = power_balanced_precoder(block[None], 1.0, NOISE_MW)
    got = power_balanced_precoder(
        padded[None], 1.0, NOISE_MW,
        client_mask=client_mask[None], antenna_mask=antenna_mask[None],
    )
    assert np.array_equal(got.rounds, expected.rounds)
    assert np.array_equal(got.converged, expected.converged)
    np.testing.assert_allclose(
        got.cumulative_weights[0, rows], expected.cumulative_weights[0], rtol=1e-12
    )
    assert np.all(got.cumulative_weights[0, ~client_mask] == 1.0)
    assert np.all(got.row_powers_mw[0, ~antenna_mask] == 0.0)


def _random_stack(seed, shape=(5, 3, A)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_all_true_masks_are_no_masks(kernel):
    h = _random_stack(1)
    masks = {
        "client_mask": np.ones(h.shape[:-1], dtype=bool),
        "antenna_mask": np.ones(h.shape[:-2] + h.shape[-1:], dtype=bool),
    }
    solve = KERNELS[kernel]
    assert np.array_equal(solve(h, **masks), solve(h))


def test_all_true_masks_are_no_masks_for_equal_power_and_results():
    h = _random_stack(2)
    masks = {
        "client_mask": np.ones(h.shape[:-1], dtype=bool),
        "antenna_mask": np.ones(h.shape[:-2] + h.shape[-1:], dtype=bool),
    }
    assert np.array_equal(zfbf_equal_power(h, 4.0, **masks), zfbf_equal_power(h, 4.0))
    masked = power_balanced_precoder(h, 1.0, NOISE_MW, **masks)
    plain = power_balanced_precoder(h, 1.0, NOISE_MW)
    for field in ("rounds", "converged", "row_powers_mw", "cumulative_weights"):
        assert np.array_equal(getattr(masked, field), getattr(plain, field)), field


def test_rank_deficient_real_block_still_raises():
    h = np.zeros((1, A, A), dtype=complex)
    row = np.array([1.0, 2.0j, -1.0])
    h[0, 0, :3] = row
    h[0, 2, :3] = 3.0 * row  # two real clients, collinear
    client_mask = np.array([[True, False, True, False]])
    antenna_mask = np.array([[True, True, True, False]])
    with pytest.raises(np.linalg.LinAlgError):
        zfbf_directions(h, client_mask=client_mask, antenna_mask=antenna_mask)


def test_fully_padded_regions_do_not_raise():
    h = _random_stack(3, (2, A, A))
    # Item 0: one real client on two real antennas (its 4x4 is rank 1).
    # Item 1: nothing real at all.
    client_mask = np.array([[False, True, False, False], [False] * A])
    antenna_mask = np.array([[True, False, False, True], [False] * A])
    for solve in KERNELS.values():
        v = solve(h, client_mask=client_mask, antenna_mask=antenna_mask)
        assert np.all(np.isfinite(v))
        assert not v[1].any()
        assert np.count_nonzero(v[0]) == 2


@given(
    seed=st.integers(0, 2**32 - 1),
    n_real=st.integers(1, 4),
    n_pad=st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_reverse_waterfill_ignores_zero_power_streams(seed, n_real, n_pad):
    """Padded streams (``q = 0``, any SINR) change no bracket, cap or water
    line, and every padded stream keeps weight 1.  Below eight streams the
    real streams' solution is exactly the unpadded one; from eight on,
    NumPy's pairwise summation regroups the same terms, so it agrees to
    rounding."""
    rng = np.random.default_rng(seed)
    q = rng.exponential(1.0, n_real) * 10 ** rng.uniform(-1, 1)
    rho = rng.exponential(5.0, n_real) * (rng.random(n_real) > 0.2)
    budget = float(rng.uniform(0.05, 1.5) * q.sum())
    real = np.sort(rng.choice(n_real + n_pad, n_real, replace=False))
    q_padded = np.zeros(n_real + n_pad)
    q_padded[real] = q
    rho_padded = rng.exponential(5.0, n_real + n_pad)
    rho_padded[real] = rho
    alone = reverse_waterfill(q[None], rho[None], budget)
    padded = reverse_waterfill(q_padded[None], rho_padded[None], budget)
    rtol = 0.0 if n_real + n_pad < 8 else 1e-12
    np.testing.assert_allclose(padded.weights[0, real], alone.weights[0], rtol=rtol)
    np.testing.assert_allclose(padded.reductions_mw[0, real], alone.reductions_mw[0], rtol=rtol)
    np.testing.assert_allclose(padded.water_level, alone.water_level, rtol=rtol)
    assert np.array_equal(padded.capped, alone.capped)
    pad = np.ones(n_real + n_pad, dtype=bool)
    pad[real] = False
    assert np.all(padded.weights[0, pad] == 1.0)
    assert np.all(padded.reductions_mw[0, pad] == 0.0)
