"""Reverse water-filling tests (paper eqs. 7-9), on one row at a time."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers.waterfill_oracle import exact_reductions
from repro.core import batch as core_batch


def reverse_waterfill(row_powers_mw, sinrs, power_budget_mw, min_weight=0.1):
    """The stacked kernel on one row: item 0 of a batch of one."""
    q = np.asarray(row_powers_mw, dtype=float)
    rho = np.asarray(sinrs, dtype=float)
    result = core_batch.reverse_waterfill(q[None], rho[None], power_budget_mw, min_weight)
    capped = bool(result.capped[0])
    return SimpleNamespace(
        weights=result.weights[0],
        reductions_mw=result.reductions_mw[0],
        water_level=float(result.water_level[0]),
        capped=capped,
        feasible=not capped,
    )

positive_arrays = st.lists(
    st.floats(min_value=1e-6, max_value=10.0), min_size=2, max_size=8
)
sinr_arrays = st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=8)


class TestNoViolation:
    def test_under_budget_returns_unit_weights(self):
        result = reverse_waterfill(np.array([0.2, 0.3]), np.array([10.0, 10.0]), 1.0)
        np.testing.assert_array_equal(result.weights, 1.0)
        np.testing.assert_array_equal(result.reductions_mw, 0.0)
        assert result.feasible


class TestBudgetRestoration:
    def test_exact_budget_after_reduction(self):
        q = np.array([0.9, 0.8, 0.1, 0.2])
        rho = np.array([100.0, 50.0, 10.0, 20.0])
        result = reverse_waterfill(q, rho, 1.0)
        new_row = np.sum(result.weights**2 * q)
        assert new_row == pytest.approx(1.0, rel=1e-12)

    def test_weights_within_unit_interval(self):
        q = np.array([2.0, 0.5, 0.1])
        rho = np.array([100.0, 5.0, 1.0])
        result = reverse_waterfill(q, rho, 1.0, min_weight=1e-3)
        assert np.all(result.weights > 0)
        assert np.all(result.weights <= 1.0)

    def test_min_weight_floor_respected(self):
        q = np.array([5.0, 5.0])
        rho = np.array([1.0, 1.0])
        result = reverse_waterfill(q, rho, 0.001, min_weight=0.05)
        assert np.all(result.weights >= 0.05 - 1e-12)

    def test_capped_flag_when_budget_unreachable(self):
        # Budget so small that even max cuts cannot restore it.
        q = np.array([5.0, 5.0])
        rho = np.array([1.0, 1.0])
        result = reverse_waterfill(q, rho, 1e-6, min_weight=0.1)
        assert result.capped
        assert not result.feasible

    def test_larger_elements_cut_more(self):
        # Equal SINRs: the water level cuts the big precoding value first.
        q = np.array([1.5, 0.1])
        rho = np.array([50.0, 50.0])
        result = reverse_waterfill(q, rho, 1.0)
        assert result.reductions_mw[0] > result.reductions_mw[1]

    def test_weak_streams_cut_preferentially(self):
        # Equal row power; the low-SINR stream has higher (1 + 1/rho) level.
        q = np.array([1.0, 1.0])
        rho = np.array([0.1, 100.0])
        result = reverse_waterfill(q, rho, 1.2)
        assert result.reductions_mw[0] > result.reductions_mw[1]


class TestOptimality:
    def test_beats_uniform_scaling(self):
        # The KKT solution must achieve at least the rate of the naive
        # uniform scaling on the same row.
        rng = np.random.default_rng(0)
        for trial in range(20):
            q = rng.uniform(0.05, 2.0, size=4)
            rho = rng.uniform(0.5, 500.0, size=4)
            budget = 0.6 * q.sum()
            result = reverse_waterfill(q, rho, budget)
            if result.capped:
                continue
            alpha2 = budget / q.sum()
            rate_wf = np.sum(np.log2(1 + result.weights**2 * rho))
            rate_uniform = np.sum(np.log2(1 + alpha2 * rho))
            assert rate_wf >= rate_uniform - 1e-9


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0, 2.0]), 1.0)

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0]), 0.0)

    def test_bad_min_weight(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0]), 1.0, min_weight=1.0)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([-1.0]), np.array([1.0]), 1.0)


class TestProperties:
    @given(positive_arrays, sinr_arrays, st.floats(min_value=0.1, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_budget_and_bounds_hold(self, q_list, rho_list, budget_fraction):
        n = min(len(q_list), len(rho_list))
        q = np.asarray(q_list[:n])
        rho = np.asarray(rho_list[:n])
        budget = budget_fraction * float(q.sum())
        result = reverse_waterfill(q, rho, budget)
        assert np.all(result.weights > 0)
        assert np.all(result.weights <= 1.0 + 1e-12)
        if not result.capped:
            assert np.sum(result.weights**2 * q) <= budget * (1 + 1e-12)


def _kernel_problem(q, rho, budget, min_weight):
    """The marginals, caps and required cut the kernel solves, in its own
    float arithmetic, so the oracle solves exactly the same problem."""
    marginal = (1.0 + 1.0 / np.maximum(rho, 1e-12)) * q
    caps = (1.0 - min_weight**2) * q
    return marginal, caps, float(np.sum(q)) - budget


def assert_exact_solution(q, rho, budget, min_weight=0.1):
    """A solved row against the rational oracle, the KKT structure of the
    water level, and the budget."""
    q = np.asarray(q, dtype=float)
    rho = np.asarray(rho, dtype=float)
    result = reverse_waterfill(q, rho, budget, min_weight)
    assert not result.capped
    marginal, caps, required = _kernel_problem(q, rho, budget, min_weight)
    # The row's power scale, plus each stream's own level resolution: a
    # zero-SINR stream's marginal sits near 1e12 * q.
    tol = 1e-12 * max(budget, float(q.sum())) + 1e-14 * marginal

    exact = exact_reductions(marginal, caps, required)
    for got, want, t in zip(result.reductions_mw, exact, tol):
        assert abs(Fraction(float(got)) - want) <= t

    # KKT: on-line streams share the level, untouched streams sit at or
    # below it, streams at their cap at or above it.
    r, level = result.reductions_mw, result.water_level
    untouched = r == 0.0
    at_cap = (r == caps) & ~untouched
    on_line = ~untouched & ~at_cap
    assert np.all(marginal[untouched] <= level + tol[untouched])
    assert np.all(marginal[at_cap] - caps[at_cap] >= level - tol[at_cap])
    assert np.all(np.abs(marginal[on_line] - r[on_line] - level) <= tol[on_line])

    new_row = float(np.sum(result.weights**2 * q))
    assert abs(new_row - budget) <= 1e-12 * budget


#: (row powers, SINRs, budget) rows for each edge of the closed form.
EDGE_ROWS = {
    # Two zero-SINR streams: the first is cut to its cap, the second is
    # the only stream on the line, 1e12 above the others.
    "zero_sinr": ([1.0, 0.8, 0.5, 0.3], [0.0, 20.0, 5.0, 0.0], 1.5),
    "zero_power": ([1.2, 0.0, 0.9, 0.0], [10.0, 3.0, 50.0, 0.0], 1.0),
    "equal_marginals": ([0.5, 0.5, 0.5, 0.5], [10.0, 10.0, 10.0, 10.0], 1.2),
    "cap_binds_on_some": ([1.0, 1.0, 1.0], [0.0, 10.0, 10.0], 1.5),
    "single_stream": ([2.0], [7.0], 0.5),
}

_streams = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1e4)),
    ),
    min_size=1,
    max_size=6,
)


class TestExactSolve:
    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_edge_rows_match_the_oracle(self, name):
        assert_exact_solution(*EDGE_ROWS[name])

    @given(_streams, st.floats(min_value=0.05, max_value=0.95), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_rows_match_the_oracle(self, rows, budget_fraction, tied):
        if tied:  # every stream twice: equal marginals, tied breakpoints
            rows = rows + rows
        q = np.array([row[0] for row in rows])
        rho = np.array([row[1] for row in rows])
        assume(q.sum() > 0)
        assert_exact_solution(q, rho, budget_fraction * float(q.sum()))


def test_item_result_independent_of_batch_composition():
    rng = np.random.default_rng(12)
    q = rng.uniform(0.0, 5.0, (32, 4))
    rho = rng.uniform(0.0, 30.0, (32, 4))
    rho[::5, 0] = 0.0
    q[::7, 1] = 0.0
    q[:4] *= 0.05  # under budget: the trivial branch
    q[4:8] *= 100.0  # beyond every cap: the capped branch
    budget = 3.0
    fields = ("weights", "reductions_mw", "water_level", "capped")
    full = core_batch.reverse_waterfill(q, rho, budget)
    assert np.all(np.isinf(full.water_level[:4])) and np.all(full.capped[4:8])

    order = rng.permutation(len(q))
    shuffled = core_batch.reverse_waterfill(q[order], rho[order], budget)
    for field in fields:
        assert np.array_equal(getattr(shuffled, field), getattr(full, field)[order])
    for size in (1, 3, 17):
        part = core_batch.reverse_waterfill(q[:size], rho[:size], budget)
        for field in fields:
            assert np.array_equal(getattr(part, field), getattr(full, field)[:size])
    grid = core_batch.reverse_waterfill(q.reshape(4, 8, 4), rho.reshape(4, 8, 4), budget)
    for field in fields:
        flat = getattr(grid, field).reshape(getattr(full, field).shape)
        assert np.array_equal(flat, getattr(full, field))
