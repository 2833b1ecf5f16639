"""Experiment harness tests (tiny sizes; shape and sanity checks)."""

import numpy as np
import pytest

from helpers import run_experiment
from repro.api import experiment_names, get_experiment_def
from repro.experiments.registry import main


class TestRegistry:
    def test_all_figures_registered(self):
        for figure in ("fig03", "fig07", "fig08", "fig09", "fig10", "fig11",
                       "fig12", "fig13", "fig14", "fig15", "fig16",
                       "hidden_terminals"):
            assert figure in experiment_names()

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(KeyError, match="fig03"):
            get_experiment_def("not_a_figure")

    def test_cli_runs_smallest_experiment(self, capsys):
        assert main(["fig03", "--topologies", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "median" in out


class TestSeriesContracts:
    def test_fig03_series(self):
        result = run_experiment("fig03", n_topologies=3, seed=0)
        assert set(result.series) == {"cas_drop", "das_drop"}
        for values in result.series.values():
            assert np.all(np.isfinite(values)) and np.all(values >= 0)

    def test_fig07_series(self):
        result = run_experiment("fig07", n_topologies=3, seed=0)
        assert set(result.series) == {"cas_snr_db", "das_snr_db"}
        assert len(result.series["cas_snr_db"]) == 12  # 3 topologies x 4 clients

    def test_fig0809_series(self):
        result = run_experiment("fig09", n_topologies=2, seed=0)
        assert set(result.series) == {"cas_2x2", "midas_2x2", "cas_4x4", "midas_4x4"}

    def test_fig10_series(self):
        result = run_experiment("fig10", n_topologies=2, seed=0)
        assert set(result.series) == {
            "cas_naive",
            "cas_balanced",
            "das_naive",
            "das_balanced",
        }

    def test_fig11_efficiency_near_one(self):
        result = run_experiment("fig11", n_topologies=3, seed=0)
        assert result.median("efficiency") > 0.9

    def test_fig12_ratio_positive(self):
        result = run_experiment("fig12", n_topologies=2, seed=0)
        assert np.all(result.series["stream_ratio"] > 0)

    def test_fig13_reduction_bounded(self):
        result = run_experiment("fig13", n_topologies=1, seed=0)
        assert np.all(result.series["reduction"] <= 1.0)
        assert "example_maps" in result.notes

    def test_fig14_series(self):
        result = run_experiment("fig14", n_topologies=3, seed=0)
        assert set(result.series) == {"tagged", "random"}

    def test_fig15_series(self):
        result = run_experiment("fig15", n_topologies=1, seed=0, rounds_per_topology=4)
        assert set(result.series) == {"cas", "midas", "stream_ratio"}

    def test_fig16_series(self):
        result = run_experiment("fig16", n_topologies=1, seed=0, rounds_per_topology=4)
        assert set(result.series) == {"cas", "midas"}

    def test_hidden_terminal_series(self):
        result = run_experiment("hidden_terminals", n_topologies=1, seed=0)
        assert set(result.series) == {"cas_spots", "das_spots", "removal"}


class TestResultApi:
    def test_summary_mentions_all_series(self):
        result = run_experiment("fig03", n_topologies=2, seed=0)
        text = result.summary()
        assert "cas_drop" in text and "das_drop" in text

    def test_gain_and_median(self):
        result = run_experiment("fig10", n_topologies=3, seed=0)
        gain = result.gain("das_balanced", "das_naive")
        assert gain == pytest.approx(
            result.median("das_balanced") / result.median("das_naive") - 1
        )

    def test_cdf_accessor(self):
        result = run_experiment("fig03", n_topologies=3, seed=0)
        cdf = result.cdf("das_drop")
        assert len(cdf) == 3

    def test_determinism(self):
        a = run_experiment("fig03", n_topologies=2, seed=5)
        b = run_experiment("fig03", n_topologies=2, seed=5)
        np.testing.assert_array_equal(a.series["das_drop"], b.series["das_drop"])


class TestAblations:
    def test_tag_width_sweep(self):
        result = run_experiment("ablation_tag_width", n_topologies=3, seed=0)
        assert set(result.series) == {"width_1", "width_2", "width_3", "width_4"}

    def test_das_radius_sweep(self):
        result = run_experiment("ablation_das_radius", n_topologies=2, seed=0)
        assert len(result.series) == 3

    def test_csi_error_monotone_tendency(self):
        result = run_experiment("ablation_csi_error", n_topologies=6, seed=0)
        clean = result.median("err_0")
        worst = result.median("err_0.2")
        assert worst <= clean * 1.05  # allow small noise, degradation expected

    def test_precoder_zoo_ordering(self):
        result = run_experiment("ablation_precoders", 
            n_topologies=2, seed=0, include_full_optimal=False
        )
        assert result.median("balanced") >= result.median("naive") * 0.999
        assert result.median("optimal_zf") >= result.median("balanced") * 0.99
