"""Integration tests: the paper's qualitative claims at reduced scale.

These run the actual experiment pipelines (smaller topology counts than the
benches) through the modern :class:`~repro.api.spec.RunSpec` /
:class:`~repro.api.runner.Runner` path and assert the *shape* results the
paper reports: orderings, direction of gains, and rough magnitudes.
Statistical assertions use generous margins so they are robust to the
reduced sample sizes.

One explicit test keeps the deprecated per-figure ``run()`` shims covered:
they must still work and still warn.
"""

import numpy as np
import pytest

from helpers import run_experiment


@pytest.fixture(scope="module")
def fig10(scope="module"):
    return run_experiment("fig10", n_topologies=30, seed=0)


class TestPrecodingClaims:
    def test_fig03_das_drop_exceeds_cas_drop(self):
        result = run_experiment("fig03", n_topologies=30, seed=0)
        assert result.median("das_drop") > 1.5 * result.median("cas_drop")

    def test_fig07_das_link_gain(self):
        result = run_experiment("fig07", n_topologies=30, seed=0)
        gain_db = result.median("das_snr_db") - result.median("cas_snr_db")
        assert 2.0 < gain_db < 9.0  # paper: ~5 dB

    def test_fig09_midas_beats_cas_4x4(self):
        result = run_experiment(
            "fig09", n_topologies=30, seed=0, antenna_counts=(4,)
        )
        assert result.gain("midas_4x4", "cas_4x4") > 0.3

    def test_fig10_balanced_beats_naive_on_both_modes(self, fig10):
        assert fig10.gain("cas_balanced", "cas_naive") > 0.0
        assert fig10.gain("das_balanced", "das_naive") > 0.0

    def test_fig10_cas_gain_order_of_paper(self, fig10):
        # Paper: ~12%; accept a broad band at this sample size.
        assert 0.02 < fig10.gain("cas_balanced", "cas_naive") < 0.45

    def test_fig11_within_99_percent_of_optimal(self):
        result = run_experiment("fig11", n_topologies=10, seed=0)
        assert result.median("efficiency") > 0.97

    def test_fig11_stale_optimum_loses(self):
        result = run_experiment("fig11", n_topologies=10, seed=0)
        assert result.median("optimal_stale") < result.median("midas")


class TestMacClaims:
    def test_fig12_median_ratio_above_one(self):
        result = run_experiment("fig12", n_topologies=8, seed=0)
        ratios = result.series["stream_ratio"]
        assert np.median(ratios) > 1.05
        # Paper: only ~2/30 topologies below 1.0.
        assert (ratios < 0.95).mean() < 0.35

    def test_fig13_das_reduces_deadspots(self):
        result = run_experiment("fig13", n_topologies=4, seed=0)
        assert np.mean(result.series["reduction"]) > 0.3

    def test_hidden_terminals_removed(self):
        result = run_experiment("hidden_terminals", n_topologies=4, seed=0)
        assert np.mean(result.series["removal"]) > 0.3

    def test_fig14_tagging_beats_random(self):
        result = run_experiment("fig14", n_topologies=30, seed=0)
        assert result.gain("tagged", "random") > 0.15


class TestEndToEndClaims:
    def test_fig15_midas_beats_cas(self):
        result = run_experiment(
            "fig15", n_topologies=10, seed=0, rounds_per_topology=16
        )
        assert result.gain("midas", "cas") > 0.15
        assert np.median(result.series["stream_ratio"]) > 1.0

    def test_fig16_das_beats_cas_at_scale(self):
        result = run_experiment(
            "fig16", n_topologies=4, seed=0, rounds_per_topology=8
        )
        assert result.gain("midas", "cas") > 0.05

    def test_fig15_dynamic_extension_runs(self):
        result = run_experiment(
            "fig15", n_topologies=2, seed=0, dynamic=True, duration_s=0.04
        )
        assert np.all(result.series["midas"] > 0)

