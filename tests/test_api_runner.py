"""Runner execution: param resolution, determinism, caching, CLI."""

import numpy as np
import pytest

from repro import obs
from repro.api import RunResult, Runner, RunSpec, UnknownNameError, resolve_params
from repro.api.experiments import get_experiment_def
from repro.rng import derived_seeds
from repro.experiments.registry import main


class TestResolveParams:
    def test_defaults_apply(self):
        defn = get_experiment_def("fig03")
        params = resolve_params(defn, RunSpec("fig03"))
        assert params["n_topologies"] == 60
        assert params["seed"] == 0
        assert params["environment"] == "office_b"

    def test_spec_overrides_defaults(self):
        defn = get_experiment_def("fig03")
        params = resolve_params(
            defn, RunSpec("fig03", n_topologies=3, seed=9, environment="office_a")
        )
        assert params["n_topologies"] == 3
        assert params["seed"] == 9
        assert params["environment"] == "office_a"

    def test_unknown_param_rejected_with_allowed_names(self):
        defn = get_experiment_def("fig03")
        with pytest.raises(ValueError, match="n_antennas"):
            resolve_params(defn, RunSpec("fig03", params={"bogus": 1}))

    def test_precoder_override_requires_declared_param(self):
        with pytest.raises(ValueError, match="precoder"):
            resolve_params(
                get_experiment_def("fig03"), RunSpec("fig03", precoder="wmmse")
            )
        params = resolve_params(
            get_experiment_def("fig09"), RunSpec("fig09", precoder="wmmse")
        )
        assert params["precoder"] == "wmmse"

    def test_unknown_precoder_lists_registered(self):
        with pytest.raises(UnknownNameError, match="balanced"):
            resolve_params(
                get_experiment_def("fig09"), RunSpec("fig09", precoder="magic")
            )

    def test_unknown_environment_fails_in_parent(self):
        # Validated before any worker runs, so jobs>1 gets the clean error
        # instead of a broken pool.
        with pytest.raises(UnknownNameError, match="office_b"):
            resolve_params(
                get_experiment_def("fig03"), RunSpec("fig03", environment="ofice_b")
            )

    def test_unknown_experiment_lists_registered(self):
        with pytest.raises(UnknownNameError, match="fig03"):
            Runner().run(RunSpec("not_an_experiment"))


class TestRunnerExecution:
    def test_serial_result_shape(self):
        result = Runner().run(RunSpec("fig03", n_topologies=2, seed=1))
        assert isinstance(result, RunResult)
        assert set(result.series) == {"cas_drop", "das_drop"}
        assert result.spec.experiment == "fig03"

    def test_serial_vs_parallel_identical(self):
        spec = RunSpec("fig03", n_topologies=3, seed=5)
        serial = Runner(jobs=1).run(spec)
        parallel = Runner(jobs=2).run(spec)
        for key in serial.series:
            np.testing.assert_array_equal(serial.series[key], parallel.series[key])

    def test_batch_size_does_not_change_results(self):
        spec = RunSpec("fig03", n_topologies=3, seed=5)
        small = Runner(batch_size=1).run(spec)
        large = Runner(batch_size=32).run(spec)
        for key in small.series:
            np.testing.assert_array_equal(small.series[key], large.series[key])

    def test_bad_runner_config_rejected(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)
        with pytest.raises(ValueError):
            Runner(batch_size=0)


class TestRunnerCache:
    def test_cache_round_trip(self, tmp_path):
        spec = RunSpec("fig03", n_topologies=2, seed=2)
        runner = Runner(cache_dir=tmp_path)
        first = runner.run(spec)
        cached_files = list(tmp_path.glob("fig03-*.json"))
        assert len(cached_files) == 1
        second = runner.run(spec)
        for key in first.series:
            np.testing.assert_array_equal(first.series[key], second.series[key])

    def test_cache_hit_skips_computation(self, tmp_path, monkeypatch):
        spec = RunSpec("fig03", n_topologies=2, seed=2)
        runner = Runner(cache_dir=tmp_path)
        runner.run(spec)

        def boom(*args, **kwargs):
            raise AssertionError("sweep ran despite cache hit")

        monkeypatch.setattr(Runner, "_sweep", boom)
        result = runner.run(spec)
        assert set(result.series) == {"cas_drop", "das_drop"}

    def test_different_specs_get_different_entries(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        runner.run(RunSpec("fig03", n_topologies=2, seed=2))
        runner.run(RunSpec("fig03", n_topologies=2, seed=3))
        assert len(list(tmp_path.glob("fig03-*.json"))) == 2

    def test_explicit_default_shares_cache_entry(self, tmp_path):
        # The key hashes resolved params, so relying on a default and
        # stating it explicitly are the same cached computation.
        runner = Runner(cache_dir=tmp_path)
        runner.run(RunSpec("fig03", n_topologies=2, seed=2))
        runner.run(RunSpec("fig03", n_topologies=2, seed=2, environment="office_b"))
        assert len(list(tmp_path.glob("fig03-*.json"))) == 1

    def test_package_version_invalidates_cache(self, tmp_path, monkeypatch):
        # Entries must not survive algorithm changes across releases: the
        # same spec under a different package version gets a fresh key.
        import repro.api.runner as runner_mod

        spec = RunSpec("fig03", n_topologies=2, seed=2)
        Runner(cache_dir=tmp_path).run(spec)
        assert len(list(tmp_path.glob("fig03-*.json"))) == 1
        monkeypatch.setattr(runner_mod, "_PACKAGE_VERSION", "0.0.0-test")
        Runner(cache_dir=tmp_path).run(spec)
        assert len(list(tmp_path.glob("fig03-*.json"))) == 2


class TestBuildBatchHook:
    """``build_batch`` is the one evaluation hook; a definition without a
    callable one is rejected at construction, naming the experiment."""

    @staticmethod
    def _finalize(outcomes, params):
        raise AssertionError("never reached")

    def test_non_callable_build_batch_rejected_with_name(self):
        from repro.api.experiments import ExperimentDef

        with pytest.raises(TypeError, match="_no_hook_probe.*build_batch"):
            ExperimentDef(
                name="_no_hook_probe",
                description="probe",
                build_batch=None,
                finalize=self._finalize,
                defaults={"n_topologies": 2},
            )

    def test_registered_class_without_build_batch_rejected(self):
        from repro.api.experiments import experiment_names, register_experiment

        class ScalarOnlyProbe:
            name = "_scalar_only_probe"
            description = "probe"
            defaults = {"n_topologies": 2}
            build = staticmethod(lambda seed, params: {"x": 0.0})
            finalize = staticmethod(self._finalize)

        with pytest.raises(TypeError, match="_scalar_only_probe"):
            register_experiment(ScalarOnlyProbe)
        assert "_scalar_only_probe" not in experiment_names()

    def test_batched_experiment_does_not_warn(self, recwarn):
        Runner(backend="vectorized").run(RunSpec("fig03", n_topologies=2, seed=1))
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]


class TestSweep:
    """Rejection sampling: the runner gates derived seeds through
    ``accept_batch`` until ``n_topologies`` are accepted (or gives up at the
    attempt cap), then builds the accepted seeds only."""

    NAME = "_sweep_probe"

    @pytest.fixture
    def probe(self):
        from repro.api.experiments import ExperimentDef, register_experiment
        from repro.api.registry import EXPERIMENTS
        from repro.api.result import ExperimentResult

        state = {"accept": lambda seed: True, "calls": 0, "built": []}

        def accept_batch(seeds, params):
            out = []
            for seed in seeds:
                state["calls"] += 1
                out.append(state["accept"](seed))
            return np.asarray(out, dtype=bool)

        def build_batch(seeds, params):
            state["built"].extend(seeds)
            return [{"seed": seed} for seed in seeds]

        def finalize(outcomes, params):
            return ExperimentResult(
                name=self.NAME,
                description="probe",
                series={"seed": np.asarray([o["seed"] for o in outcomes])},
                params={},
            )

        register_experiment(
            ExperimentDef(
                name=self.NAME,
                description="rejection-sampling probe",
                build_batch=build_batch,
                finalize=finalize,
                defaults={"n_topologies": 2},
                accept_batch=accept_batch,
            )
        )
        try:
            yield state
        finally:
            EXPERIMENTS._items.pop(self.NAME, None)

    def _run(self, n, seed=0, **runner_kwargs):
        return Runner(**runner_kwargs).run(
            RunSpec(self.NAME, n_topologies=n, seed=seed)
        )

    def test_collects_requested_count(self, probe):
        assert len(self._run(5).series["seed"]) == 5

    def test_seeds_are_stable(self, probe):
        a = self._run(3, seed=1).series["seed"]
        b = self._run(3, seed=1).series["seed"]
        np.testing.assert_array_equal(a, b)

    def test_rejections_are_skipped(self, probe):
        probe["accept"] = lambda seed: probe["calls"] % 2 == 1

        series = self._run(4).series["seed"]
        assert len(series) == 4
        assert probe["calls"] == 8
        # Only the accepted seeds are built, in stream order, once each.
        assert probe["built"] == series.tolist()
        assert probe["built"] == derived_seeds(0, 0, 8)[::2]

    def test_always_rejecting_raises(self, probe):
        probe["accept"] = lambda seed: False
        with pytest.raises(RuntimeError, match="0/2 topologies"):
            self._run(2)
        assert probe["built"] == []

    def test_zero_topologies_rejected(self, probe):
        with pytest.raises(ValueError):
            self._run(0)

    def test_surplus_accepted_seeds_are_not_built(self, probe):
        # Round one accepts 2 of 4 draws, so round two draws 4 more and
        # accepts them all: 6 accepted, and only the first 4 are built.
        probe["accept"] = lambda seed: probe["calls"] % 2 == 1 or probe["calls"] > 4
        telemetry = obs.Telemetry()
        self._run(4, telemetry=telemetry)
        stream = derived_seeds(0, 0, 8)
        assert probe["built"] == [stream[i] for i in (0, 2, 4, 5)]
        assert telemetry.counters["api.sweep.seeds_drawn"] == 8
        assert telemetry.counters["api.sweep.accepted"] == 4

    def test_gate_and_build_spans(self, probe):
        telemetry = obs.Telemetry()
        self._run(2, telemetry=telemetry)
        totals = telemetry.span_totals()
        assert totals["runner.gate"]["count"] == totals["runner.build"]["count"] == 1

    def test_build_returning_none_raises_naming_the_experiment(self, probe):
        from repro.api.experiments import get_experiment_def

        defn = get_experiment_def(self.NAME)
        build = defn.build_batch
        object.__setattr__(
            defn, "build_batch", lambda seeds, params: [None] + build(seeds, params)[1:]
        )
        with pytest.raises(ValueError, match=self.NAME):
            self._run(2)

    def test_build_returning_too_few_outcomes_raises(self, probe):
        from repro.api.experiments import get_experiment_def

        defn = get_experiment_def(self.NAME)
        object.__setattr__(defn, "build_batch", lambda seeds, params: [])
        with pytest.raises(ValueError, match="one outcome per seed"):
            self._run(2)

    def test_bad_verdict_shape_raises(self, probe):
        from repro.api.experiments import get_experiment_def

        defn = get_experiment_def(self.NAME)
        object.__setattr__(defn, "accept_batch", lambda seeds, params: [True])
        with pytest.raises(ValueError, match="one bool per seed"):
            self._run(2)

    def test_non_callable_accept_batch_rejected(self):
        from repro.api.experiments import ExperimentDef

        with pytest.raises(TypeError, match="accept_batch"):
            ExperimentDef(
                name="_bad_gate",
                description="",
                build_batch=lambda seeds, params: [],
                finalize=lambda outcomes, params: None,
                defaults={"n_topologies": 1},
                accept_batch="yes",
            )


class TestCli:
    def test_jobs_and_out_smoke(self, tmp_path, capsys):
        out = tmp_path / "fig03.json"
        code = main(
            ["fig03", "--topologies", "2", "--seed", "1", "--jobs", "2",
             "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "fig03" in printed and "median" in printed
        restored = RunResult.load(out)
        assert restored.spec.seed == 1
        assert set(restored.series) == {"cas_drop", "das_drop"}

    def test_npz_out(self, tmp_path):
        out = tmp_path / "fig03.npz"
        assert main(["fig03", "--topologies", "2", "--out", str(out)]) == 0
        assert RunResult.load(out).spec.experiment == "fig03"

    def test_cache_dir_flag(self, tmp_path):
        cache = tmp_path / "cache"
        argv = ["fig03", "--topologies", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert len(list(cache.glob("fig03-*.json"))) == 1
        assert main(argv) == 0  # second run served from cache

    def test_precoder_flag(self, capsys):
        code = main(
            ["fig09", "--topologies", "1", "--seed", "0", "--precoder", "naive"]
        )
        assert code == 0
        assert "fig08_09" in capsys.readouterr().out


class TestCacheRobustness:
    """Unreadable or torn cache entries must behave as cache misses."""

    def _first_entry(self, cache_dir, pattern):
        (path,) = list(cache_dir.glob(pattern))
        return path

    def test_truncated_json_entry_recomputed_and_rewritten(self, tmp_path):
        spec = RunSpec("fig03", n_topologies=2, seed=2)
        runner = Runner(cache_dir=tmp_path)
        good = runner.run(spec)
        path = self._first_entry(tmp_path, "fig03-*.json")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(RuntimeWarning, match="unreadable"):
            recovered = runner.run(spec)
        for key in good.series:
            np.testing.assert_array_equal(good.series[key], recovered.series[key])
        # The poisoned entry was rewritten: the next run loads it silently.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            runner.run(spec)

    def test_truncated_npz_entry_recomputed(self, tmp_path):
        spec = RunSpec("fig03", n_topologies=2, seed=2)
        runner = Runner(cache_dir=tmp_path, cache_format="npz")
        good = runner.run(spec)
        path = self._first_entry(tmp_path, "fig03-*.npz")
        path.write_bytes(path.read_bytes()[:40])  # torn mid-header
        with pytest.warns(RuntimeWarning, match="unreadable"):
            recovered = runner.run(spec)
        for key in good.series:
            np.testing.assert_array_equal(good.series[key], recovered.series[key])

    def test_garbage_entry_recomputed(self, tmp_path):
        spec = RunSpec("fig03", n_topologies=2, seed=2)
        runner = Runner(cache_dir=tmp_path)
        runner.run(spec)
        self._first_entry(tmp_path, "fig03-*.json").write_text("not json {")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            runner.run(spec)


class TestAtomicSave:
    def test_save_leaves_no_temp_siblings(self, tmp_path):
        result = Runner().run(RunSpec("fig03", n_topologies=2, seed=1))
        for name in ("out.json", "out.npz"):
            path = result.save(tmp_path / name)
            assert path.exists()
            leftovers = [
                p for p in tmp_path.iterdir() if p.name not in ("out.json", "out.npz")
            ]
            assert leftovers == []
            assert RunResult.load(path).spec == result.spec

    def test_save_creates_parent_directories(self, tmp_path):
        result = Runner().run(RunSpec("fig03", n_topologies=2, seed=1))
        nested = tmp_path / "a" / "b" / "out.npz"
        result.save(nested)
        assert RunResult.load(nested).spec == result.spec


class TestRunWindow:
    def test_window_union_equals_monolithic_run(self):
        runner = Runner(backend="vectorized")
        mono = runner.run(RunSpec("fig07", n_topologies=10, seed=4))
        parts = [
            runner.run_window(RunSpec("fig07", seed=4), 0, 4),
            runner.run_window(RunSpec("fig07", seed=4), 4, 4),
            runner.run_window(RunSpec("fig07", seed=4), 8, 2),
        ]
        for key in mono.series:
            glued = np.concatenate([np.asarray(p.series[key]) for p in parts])
            np.testing.assert_array_equal(glued, np.asarray(mono.series[key]))

    def test_rejecting_experiment_windows_partition_consistently(self):
        # fig15 rejects some placements: two adjacent windows must accept
        # exactly what one window covering both does.
        runner = Runner(backend="vectorized")
        whole = runner.run_window(RunSpec("fig15"), 0, 12)
        parts = [
            runner.run_window(RunSpec("fig15"), 0, 6),
            runner.run_window(RunSpec("fig15"), 6, 6),
        ]
        assert whole.notes["n_accepted"] == sum(
            p.notes["n_accepted"] for p in parts
        )
        for key in whole.series:
            glued = np.concatenate([np.asarray(p.series[key]) for p in parts])
            np.testing.assert_array_equal(glued, np.asarray(whole.series[key]))

    def test_window_notes_and_validation(self):
        runner = Runner()
        result = runner.run_window(RunSpec("fig07", seed=1), 3, 2)
        assert result.notes["seed_window"] == [3, 2]
        assert result.notes["n_accepted"] == 2
        with pytest.raises(ValueError, match="seed_start"):
            runner.run_window(RunSpec("fig07"), -1, 2)
        with pytest.raises(ValueError, match="seed_count"):
            runner.run_window(RunSpec("fig07"), 0, 0)

    def test_window_cache_key_distinct_from_full_run(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        spec = RunSpec("fig07", seed=1)
        runner.run_window(spec, 0, 2)
        runner.run(RunSpec("fig07", n_topologies=2, seed=1))
        # Same resolved params, but the window is folded into the key.
        assert len(list(tmp_path.glob("fig07-*.json"))) == 2
        cached = runner.run_window(spec, 0, 2)  # second call is a cache hit
        assert cached.notes["seed_window"] == [0, 2]


class TestRunMany:
    def test_shared_pool_results_bit_identical_to_serial(self, tmp_path):
        specs = [
            RunSpec("fig03", n_topologies=2, seed=5),
            RunSpec("fig07", n_topologies=3, seed=5),
            RunSpec("fig03", n_topologies=2, seed=6),
        ]
        serial = [Runner(jobs=1).run(s) for s in specs]
        shared = Runner(jobs=2).run_many(specs)
        assert len(shared) == len(serial)
        for a, b in zip(serial, shared):
            assert set(a.series) == set(b.series)
            for key in a.series:
                np.testing.assert_array_equal(a.series[key], b.series[key])

    def test_shared_pool_cleared_after_run_many(self):
        runner = Runner(jobs=2)
        runner.run_many([RunSpec("fig03", n_topologies=2, seed=1)] * 2)
        assert runner._shared_pool is None

    def test_run_many_serial_path(self):
        runner = Runner(jobs=1)
        results = runner.run_many([RunSpec("fig03", n_topologies=2, seed=1)])
        assert len(results) == 1
