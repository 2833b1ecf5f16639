"""Analysis helper tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.cdf import EmpiricalCdf, median_gain, paired_ratio, percentile_gain
from repro.analysis.delay import throughput_delay_curve
from repro.analysis.report import format_cdf_summary, format_gain_line, format_series_table


class TestEmpiricalCdf:
    def test_evaluate(self):
        cdf = EmpiricalCdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.evaluate(2.5) == pytest.approx(0.5)
        assert cdf.evaluate(0.0) == pytest.approx(0.0)
        assert cdf.evaluate(4.0) == pytest.approx(1.0)

    def test_median(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0])
        assert cdf.median == 2.0

    def test_support(self):
        cdf = EmpiricalCdf([5.0, 1.0, 3.0])
        assert cdf.support() == (1.0, 5.0)

    def test_curve_monotone(self):
        cdf = EmpiricalCdf(np.random.default_rng(0).normal(size=50))
        x, f = cdf.curve()
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(f) > 0)
        assert f[-1] == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, np.nan])


class TestGains:
    def test_median_gain(self):
        assert median_gain([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_percentile_gain(self):
        treatment = np.arange(1, 101, dtype=float) * 2
        baseline = np.arange(1, 101, dtype=float)
        assert percentile_gain(treatment, baseline, 0.9) == pytest.approx(1.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            median_gain([1.0], [0.0])

    def test_paired_ratio(self):
        np.testing.assert_allclose(paired_ratio([2.0, 6.0], [1.0, 2.0]), [2.0, 3.0])

    def test_paired_ratio_shape_mismatch(self):
        with pytest.raises(ValueError):
            paired_ratio([1.0], [1.0, 2.0])


class TestReports:
    def test_cdf_summary_contains_series_names(self):
        text = format_cdf_summary({"cas": [1.0, 2.0], "midas": [2.0, 4.0]})
        assert "cas" in text and "midas" in text and "median" in text

    def test_series_table_alignment(self):
        text = format_series_table({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert len(text.splitlines()) == 4  # header, rule, two rows

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series_table({"a": [1.0], "b": [1.0, 2.0]})

    def test_gain_line_format(self):
        assert format_gain_line("MIDAS over CAS", 0.5) == "MIDAS over CAS: +50.0%"

    def test_series_table_rows_are_ten_wide_three_decimals(self):
        text = format_series_table({"a": [1.0, 2.5], "b": [3.14159, -4.0]})
        assert text.splitlines()[2:] == [
            "     1.000     3.142",
            "     2.500    -4.000",
        ]

    def test_series_table_header_is_right_aligned(self):
        header, rule = format_series_table({"cas": [1.0], "midas": [2.0]}).splitlines()[:2]
        assert header == "         cas       midas"
        assert rule == "-" * len(header)


class TestThroughputDelayCurve:
    @staticmethod
    def _result(throughput, delay, loads=(10.0, 20.0)):
        return SimpleNamespace(
            params={"offered_loads_mbps": list(loads)},
            series={"midas_throughput_mbps": throughput, "midas_delay_ms": delay},
        )

    def test_reduces_topologies_by_median(self):
        result = self._result(
            [[1.0, 10.0], [2.0, 20.0], [9.0, 90.0]],
            [[0.5, 5.0], [0.1, 1.0], [0.3, 3.0]],
        )
        offered, throughput, delay = throughput_delay_curve(result, "midas")
        np.testing.assert_array_equal(offered, [10.0, 20.0])
        np.testing.assert_array_equal(throughput, [2.0, 20.0])
        np.testing.assert_array_equal(delay, [0.3, 3.0])

    def test_rejects_series_that_do_not_match_the_loads(self):
        result = self._result([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="offered loads"):
            throughput_delay_curve(result, "midas")
