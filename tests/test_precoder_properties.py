"""Backend-independent properties of the precoder zoo.

The equivalence suites pin backends to each other; these tests pin the
*mathematics* regardless of backend: zero-forcing residuals, power-budget
feasibility, and waterfilling KKT conditions must hold on the loop path,
the vectorized path, and the array_api path alike -- including the
float32 configuration, where bit-equality is unavailable and only the
properties themselves can certify the result.

Each property is checked against a backend-appropriate slack: float64
paths get ULP-scale tolerances, the float32 path gets epsilon-scaled
ones.  Metamorphic companions check invariances no numeric contract can
express as a single run: global phase rotation leaves capacities
unchanged, and growing the power budget never hurts.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.xp as xpmod
from repro.api import precoder_matrix, precoder_matrix_batch
from repro.config import RadioConfig
from repro.core import batch as core_batch
from repro.phy.capacity import stream_sinrs, sum_capacity_bps_hz

RADIO = RadioConfig()
P_MW = RADIO.per_antenna_power_mw
NOISE = RADIO.noise_mw

#: Backends under test and the relative slack their arithmetic earns.
BACKENDS = {
    "loop": 1e-10,
    "vectorized": 1e-10,
    "array_api-numpy-f64": 1e-10,
    "array_api-numpy-f32": 5e-4,
}


def _channel_stack(batch: int, n_clients: int, n_antennas: int, seed: int):
    rng = np.random.default_rng(seed)
    scale = 10 ** rng.uniform(-4, -2, (batch, n_clients, 1))
    return scale * (
        rng.standard_normal((batch, n_clients, n_antennas))
        + 1j * rng.standard_normal((batch, n_clients, n_antennas))
    )


@pytest.fixture(params=sorted(BACKENDS))
def backend(request) -> str:
    return request.param


def _solve(backend: str, name: str, h: np.ndarray) -> np.ndarray:
    """Precoder stack for ``h`` on the requested backend, as host float64."""
    if backend == "loop":
        return np.stack([precoder_matrix(name, item, P_MW, NOISE) for item in h])
    if backend == "vectorized":
        return np.asarray(precoder_matrix_batch(name, h, P_MW, NOISE))
    dtype = "float32" if backend.endswith("f32") else "float64"
    with xpmod.use(xpmod.get_namespace("numpy", "cpu", dtype)):
        v = precoder_matrix_batch(name, h, P_MW, NOISE)
    return np.asarray(v, dtype=complex)


# ----------------------------------------------------------------------
# Zero-forcing residual
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["naive", "balanced", "total_power"])
@pytest.mark.parametrize("seed", [0, 4])
def test_zfbf_family_keeps_cross_stream_leakage_below_tolerance(
    backend, name, seed
):
    # Every ZFBF-derived precoder must keep h @ v (effectively) diagonal:
    # off-diagonal leakage bounded relative to the weakest desired signal.
    h = _channel_stack(12, 4, 4, seed)
    v = _solve(backend, name, h)
    e = np.abs(h @ v)
    diag = np.diagonal(e, axis1=-2, axis2=-1)
    off = e - diag[..., None] * np.eye(h.shape[-2])[None]
    # Leakage is bounded relative to the *strongest* desired signal: the
    # rounding floor scales with the channel magnitude, while the weakest
    # stream's amplitude is a power-allocation choice, not a noise scale.
    floor = diag.max(axis=-1)[..., None, None]
    assert np.all(off <= BACKENDS[backend] * floor + 1e-300)


# ----------------------------------------------------------------------
# Power feasibility
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["naive", "balanced"])
@pytest.mark.parametrize("seed", [1, 7])
def test_per_antenna_budget_is_never_exceeded(backend, name, seed):
    h = _channel_stack(16, 4, 4, seed)
    v = _solve(backend, name, h)
    row_powers = np.sum(np.abs(v) ** 2, axis=-1)
    # The balanced solver drives the busiest antenna *to* the cap and stops
    # within its own convergence tolerance (~1e-9 relative), so feasibility
    # carries that slack on top of the backend's arithmetic slack.
    assert np.all(row_powers <= P_MW * (1.0 + BACKENDS[backend] + 1e-8))


@pytest.mark.parametrize("seed", [2, 9])
def test_total_power_budget_is_never_exceeded(backend, seed):
    h = _channel_stack(16, 4, 4, seed)
    v = _solve(backend, "total_power", h)
    total = np.sum(np.abs(v) ** 2, axis=(-2, -1))
    budget = h.shape[-1] * P_MW
    assert np.all(total <= budget * (1.0 + BACKENDS[backend]))


@pytest.mark.parametrize("seed", [3, 11])
def test_balanced_precoder_saturates_at_least_one_antenna(backend, seed):
    # MIDAS power balancing exists to push *some* antenna to its cap
    # (otherwise naive scaling would already be optimal); on real channels
    # the busiest antenna must sit at the budget, not below it.
    h = _channel_stack(16, 4, 4, seed)
    v = _solve(backend, "balanced", h)
    peak = np.max(np.sum(np.abs(v) ** 2, axis=-1), axis=-1)
    assert np.all(peak >= P_MW * (1.0 - 10 * BACKENDS[backend]))


# ----------------------------------------------------------------------
# Waterfilling KKT conditions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [5, 13])
def test_svd_waterfilling_satisfies_kkt_conditions(backend, seed):
    # Waterfilling optimality: active streams share one water level
    # mu = p_i + noise/g_i, inactive streams have noise/g_i >= mu, and the
    # budget is spent exactly.
    if backend == "loop":
        pytest.skip("svd_waterfilling's loop form is covered via the batch "
                    "solver's bit-equality suite")
    h = _channel_stack(12, 3, 5, seed)
    total = h.shape[-1] * P_MW
    tol = BACKENDS[backend]
    if backend.endswith("f32"):
        with xpmod.use(xpmod.get_namespace("numpy", "cpu", "float32")):
            alloc = core_batch.svd_waterfilling(h, total, NOISE)
    else:
        alloc = core_batch.svd_waterfilling(h, total, NOISE)
    powers = np.asarray(alloc.stream_powers_mw, dtype=float)
    gains = np.linalg.svd(h, compute_uv=False) ** 2
    assert np.allclose(powers.sum(axis=-1), total, rtol=10 * tol)
    inverse = NOISE / np.maximum(gains, 1e-300)
    for i in range(len(h)):
        active = powers[i] > tol * total
        levels = powers[i][active] + inverse[i][active]
        mu = levels.mean()
        assert np.allclose(levels, mu, rtol=50 * tol)  # common water level
        assert np.all(inverse[i][~active] >= mu * (1.0 - 50 * tol))


# ----------------------------------------------------------------------
# Metamorphic invariances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["naive", "balanced", "total_power"])
def test_global_phase_rotation_leaves_capacity_unchanged(backend, name):
    # h -> e^{j theta} h is the same physical channel; any sensible
    # precoder yields the same capacities (exactly equal phase-invariant
    # pipelines would be a stronger claim than float32 supports).
    h = _channel_stack(8, 4, 4, seed=21)
    rotated = np.exp(1j * 0.7) * h
    cap = sum_capacity_bps_hz(stream_sinrs(h, _solve(backend, name, h), NOISE))
    cap_rot = sum_capacity_bps_hz(
        stream_sinrs(rotated, _solve(backend, name, rotated), NOISE)
    )
    assert np.allclose(cap, cap_rot, rtol=max(BACKENDS[backend], 1e-12))


def test_growing_the_power_budget_never_hurts(backend):
    # Monotonicity: total_power capacity is nondecreasing in the budget.
    h = _channel_stack(8, 4, 4, seed=22)

    def capacity(budget_scale: float) -> np.ndarray:
        if backend == "loop":
            v = np.stack(
                [
                    precoder_matrix("total_power", item, budget_scale * P_MW, NOISE)
                    for item in h
                ]
            )
        elif backend == "vectorized":
            v = precoder_matrix_batch("total_power", h, budget_scale * P_MW, NOISE)
        else:
            dtype = "float32" if backend.endswith("f32") else "float64"
            with xpmod.use(xpmod.get_namespace("numpy", "cpu", dtype)):
                v = precoder_matrix_batch(
                    "total_power", h, budget_scale * P_MW, NOISE
                )
        return np.asarray(
            sum_capacity_bps_hz(stream_sinrs(h, np.asarray(v, dtype=complex), NOISE))
        )

    low, high = capacity(1.0), capacity(4.0)
    assert np.all(high >= low * (1.0 - BACKENDS[backend]))


def test_real_das_channels_also_satisfy_the_properties(backend, das_channel):
    # Synthetic stacks above; one spot check on a genuine office-B DAS
    # channel so the properties hold on the paper's own distribution.
    h = das_channel.channel_matrices()
    v = _solve(backend, "balanced", h)
    row_powers = np.sum(np.abs(v) ** 2, axis=-1)
    assert np.all(row_powers <= P_MW * (1.0 + BACKENDS[backend] + 1e-8))
    e = np.abs(h @ v)
    diag = np.diagonal(e, axis1=-2, axis2=-1)
    off = e - diag[..., None] * np.eye(h.shape[-2])[None]
    assert np.all(off <= BACKENDS[backend] * diag.max() + 1e-300)
