"""Public API surface tests: the README quickstart must keep working."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


class TestImportSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_pyproject_reads_the_one_version_string(self):
        # A text check: tier-1 also runs on Python 3.10, which has no tomllib.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert not re.search(r"^version\s*=", project, re.MULTILINE), (
            "pyproject.toml carries a static version; repro.__version__ is "
            "the only version string"
        )
        assert re.search(r'^dynamic\s*=\s*\[[^]]*"version"', project, re.MULTILINE)
        assert 'version = {attr = "repro.__version__"}' in text

    def test_import_leaves_scipy_optimize_unloaded(self):
        # The numerical comparators import it on first use; every CLI call
        # pays ``import repro``.
        src = str(Path(__file__).resolve().parents[1] / "src")
        completed = subprocess.run(
            [sys.executable, "-c", "import sys, repro; print('scipy.optimize' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        scenario = repro.single_ap_scenario(
            repro.office_b(), repro.AntennaMode.DAS, seeds=[7]
        )
        channel = repro.ChannelBatch(scenario.deployment, scenario.radio, seeds=[7])
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
            repro.office_b(), repro.AntennaMode.DAS, seeds=[7]
        )
        channel = repro.ChannelBatch(scenario.deployment, scenario.radio, seeds=[7])
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
        import repro.core
        import repro.mac

        for name in (
            "ChannelModel", "CarrierSenseModel", "RoundBasedEvaluator",
            "PrecodingResult", "WaterfillResult", "FadingProcess",
            "DeficitRoundRobin", "SelectionOutcome", "select_clients_for_antennas",
            "EdcaQueueSet", "QueuedPacket", "EdcaParameters", "EDCA_PARAMETERS",
            "SvdAllocation",
        ):
            for module in (repro, repro.core, repro.mac):
                assert not hasattr(module, name), (module.__name__, name)

    def test_round_records_are_one_columnar_log(self):
        import repro.sim
        import repro.traffic

        assert "RoundLog" in repro.sim.__all__ and hasattr(repro.sim, "RoundLog")
        for module, name in (
            (repro.sim, "RoundResult"), (repro.traffic, "RoundTrafficMetrics"),
        ):
            assert name not in module.__all__ and not hasattr(module, name)

    def test_svd_waterfilling_binds_the_stacked_kernel(self):
        from repro.core import batch as core_batch

        assert repro.core.svd_waterfilling is core_batch.svd_waterfilling

    def test_cdf_helpers_exported(self):
        cdf = repro.EmpiricalCdf(np.array([1.0, 2.0, 3.0]))
        assert cdf.median == 2.0
        assert repro.median_gain([2.0], [1.0]) == 1.0

    def test_range_helpers_exported(self):
        radio = repro.RadioConfig()
        mac = repro.MacConfig()
        assert repro.coverage_range_m(radio) > 0
        assert repro.cs_range_m(radio, mac) > 0
