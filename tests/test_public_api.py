"""Public API surface tests: the README quickstart must keep working."""

import numpy as np
import pytest

import repro


class TestImportSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        scenario = repro.single_ap_scenario(
            repro.office_b(), repro.AntennaMode.DAS, seed=7
        )
        channel = repro.ChannelBatch([scenario.deployment], scenario.radio, seeds=[7])
        h = channel.channel_matrices()  # a batch of one
        p = scenario.radio.per_antenna_power_mw
        noise = scenario.radio.noise_mw

        result = repro.power_balanced_precoder(h, p, noise)
        baseline = repro.naive_scaled_precoder(h, p)

        balanced_capacity = repro.sum_capacity_bps_hz(
            repro.stream_sinrs(h, result.v, noise)
        )
        naive_capacity = repro.sum_capacity_bps_hz(
            repro.stream_sinrs(h, baseline, noise)
        )
        assert result.converged.all()
        assert np.all(balanced_capacity > 0) and np.all(naive_capacity > 0)

    def test_docstring_example_values(self):
        # The module docstring promises converged=True for seed 7.
        scenario = repro.single_ap_scenario(
            repro.office_b(), repro.AntennaMode.DAS, seed=7
        )
        channel = repro.ChannelBatch([scenario.deployment], scenario.radio, seeds=[7])
        result = repro.power_balanced_precoder(
            channel.channel_matrices(),
            scenario.radio.per_antenna_power_mw,
            scenario.radio.noise_mw,
        )
        assert bool(result.converged[0]) is True

    def test_docstring_doctests_pass(self):
        import doctest

        failures, attempted = doctest.testmod(repro, verbose=False)
        assert attempted > 0 and failures == 0

    def test_precoder_names_bind_the_stacked_kernels(self):
        from repro.core import batch as core_batch

        assert repro.power_balanced_precoder is core_batch.power_balanced_precoder
        assert repro.naive_scaled_precoder is core_batch.naive_scaled_precoder
        with pytest.raises(ValueError, match="stacked"):
            repro.naive_scaled_precoder(np.eye(2, dtype=complex), 1.0)

    def test_scalar_mirrors_are_gone(self):
        for name in (
            "ChannelModel", "CarrierSenseModel", "RoundBasedEvaluator",
            "PrecodingResult", "WaterfillResult", "FadingProcess",
        ):
            assert not hasattr(repro, name), name

    def test_cdf_helpers_exported(self):
        cdf = repro.EmpiricalCdf(np.array([1.0, 2.0, 3.0]))
        assert cdf.median == 2.0
        assert repro.median_gain([2.0], [1.0]) == 1.0

    def test_range_helpers_exported(self):
        radio = repro.RadioConfig()
        mac = repro.MacConfig()
        assert repro.coverage_range_m(radio) > 0
        assert repro.cs_range_m(radio, mac) > 0
