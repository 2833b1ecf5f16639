"""Registry mechanics and the built-in registrations."""

import pytest

from repro.api import (
    ENVIRONMENTS,
    EXPERIMENTS,
    PRECODERS,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    load_builtin_experiments,
)


class TestRegistryMechanics:
    def test_register_and_get(self):
        reg = Registry("thing")

        @reg.register("one")
        def one():
            return 1

        assert reg.get("one") is one
        assert "one" in reg
        assert reg.names() == ["one"]

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.add("x", 1)
        with pytest.raises(DuplicateNameError):
            reg.add("x", 2)

    def test_unknown_name_lists_registered(self):
        reg = Registry("thing")
        reg.add("alpha", 1)
        reg.add("beta", 2)
        with pytest.raises(UnknownNameError, match="alpha.*beta"):
            reg.get("gamma")

    def test_unknown_name_is_keyerror_and_valueerror(self):
        reg = Registry("thing")
        with pytest.raises(KeyError):
            reg.get("nope")
        with pytest.raises(ValueError):
            reg.get("nope")

    def test_bad_registration_name_rejected(self):
        reg = Registry("thing")
        with pytest.raises(TypeError):
            reg.register("")
        with pytest.raises(TypeError):
            reg.register(3)

    def test_unknown_name_error_pickles(self):
        # Worker processes must be able to ship the error back intact.
        import pickle

        err = pickle.loads(pickle.dumps(UnknownNameError("thing", "x", ["a", "b"])))
        assert err.kind == "thing" and err.known == ["a", "b"]
        assert "a, b" in str(err)

    def test_iteration_is_sorted(self):
        reg = Registry("thing")
        reg.add("b", 2)
        reg.add("a", 1)
        assert list(reg) == ["a", "b"]
        assert len(reg) == 2


class TestBuiltinRegistrations:
    def test_precoder_zoo_registered(self):
        for name in ("naive", "balanced", "total_power", "optimal_zf",
                     "wmmse", "full_optimal"):
            assert name in PRECODERS

    def test_environments_registered(self):
        assert "office_a" in ENVIRONMENTS and "office_b" in ENVIRONMENTS

    def test_all_16_experiments_registered(self):
        load_builtin_experiments()
        expected = {
            "fig03", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "hidden_terminals",
            "ablation_tag_width", "ablation_das_radius",
            "ablation_precoders", "ablation_csi_error",
        }
        assert expected <= set(EXPERIMENTS.names())

    def test_experiment_defs_have_defaults(self):
        load_builtin_experiments()
        for name, defn in EXPERIMENTS.items():
            assert "n_topologies" in defn.defaults, name
            assert callable(defn.build_batch) and callable(defn.finalize), name
