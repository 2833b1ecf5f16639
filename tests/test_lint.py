"""Tests for :mod:`repro.lint`: framework, every RPL rule, CLI, self-check.

Each rule is exercised against fixture snippets in ``tests/lint_fixtures``:
a seeded violation (must be caught) and a near-miss (must not fire).  The
fixtures impersonate library paths via ``logical_path`` because several
rules are path-scoped (dispatched modules, persistence modules, test-code
exemptions).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import RULES, Diagnostic, lint_file, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import PARSE_ERROR_CODE

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: logical paths that put a fixture inside each rule's scope
LIB = "repro/sim/fake_module.py"  # plain library code (non-test, non-impl)


def codes(diagnostics):
    return [d.code for d in diagnostics]


def run_fixture(name, logical_path=LIB, select=None, config=DEFAULT_CONFIG):
    return lint_file(
        FIXTURES / name, logical_path=logical_path, select=select, config=config
    )


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_seven_rules_registered(self):
        assert list(RULES) == [f"RPL00{i}" for i in range(1, 8)]

    def test_diagnostic_format_and_order(self):
        a = Diagnostic("b.py", 3, 1, "RPL002", "m")
        b = Diagnostic("a.py", 9, 4, "RPL005", "n")
        assert sorted([a, b]) == [b, a]
        assert b.format() == "a.py:9:4: RPL005 n"
        assert b.to_dict()["line"] == 9

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            lint_source("x = 1", select=["RPL999"])
        with pytest.raises(ValueError, match="unknown rule code"):
            lint_source("x = 1", ignore=["NOPE01"])

    def test_select_and_ignore_narrow_the_run(self):
        source = (FIXTURES / "rpl005_violation.py").read_text()
        assert codes(lint_source(source, logical_path=LIB, select=["RPL005"]))
        assert not lint_source(source, logical_path=LIB, ignore=["RPL005"])

    def test_parse_error_is_a_diagnostic(self):
        diagnostics = lint_source("def broken(:\n", path="bad.py")
        assert codes(diagnostics) == [PARSE_ERROR_CODE]
        assert "does not parse" in diagnostics[0].message

    def test_fixture_tree_is_default_excluded(self):
        # Full-tree runs never see the seeded violations.
        assert lint_paths([FIXTURES]) == []
        assert lint_paths([FIXTURES], use_excludes=False)


# ----------------------------------------------------------------------
# RPL001 -- xp dispatch
# ----------------------------------------------------------------------
class TestRpl001:
    def test_violation_caught_in_dispatched_module(self):
        diagnostics = run_fixture(
            "rpl001_violation.py", logical_path="repro/core/batch.py",
            select=["RPL001"],
        )
        assert codes(diagnostics) == ["RPL001"]
        assert "np.sqrt" in diagnostics[0].message

    def test_near_miss_passes_in_dispatched_module(self):
        assert not run_fixture(
            "rpl001_near_miss.py", logical_path="repro/core/batch.py",
            select=["RPL001"],
        )

    def test_same_code_fine_outside_dispatched_scope(self):
        assert not run_fixture(
            "rpl001_violation.py", logical_path="repro/sim/rounds.py",
            select=["RPL001"],
        )

    def test_function_scoped_dispatch(self):
        source = (
            "import numpy as np\n"
            "class CarrierSenseBatch:\n"
            "    def decode_mask(self, x):\n"
            "        return np.sqrt(x)\n"
            "    def host_helper(self, x):\n"
            "        return np.sqrt(x)\n"
        )
        config = LintConfig(
            dispatched_scopes={"repro/sim/batch.py": ("CarrierSenseBatch.decode_mask",)}
        )
        diagnostics = lint_source(
            source, logical_path="repro/sim/batch.py", config=config,
            select=["RPL001"],
        )
        assert [d.line for d in diagnostics] == [4]

    def test_scope_naming_no_definition_is_reported(self):
        config = LintConfig(
            dispatched_scopes={
                LIB: ("Engine", "Engine._precode", "Engine._score_round")
            }
        )
        diagnostics = run_fixture(
            "rpl001_stale_scope.py", select=["RPL001"], config=config
        )
        assert [(d.line, d.code) for d in diagnostics] == [(1, "RPL001")]
        assert "`Engine._score_round` names no function" in diagnostics[0].message


# ----------------------------------------------------------------------
# RPL002 -- RNG discipline
# ----------------------------------------------------------------------
class TestRpl002:
    def test_violations_caught(self):
        diagnostics = run_fixture("rpl002_violation.py", select=["RPL002"])
        messages = " | ".join(d.message for d in diagnostics)
        assert "global" in messages            # np.random.seed / rand
        assert "ad-hoc" in messages            # default_rng(42)
        assert "time.time" in messages         # entropy seeding
        assert len(diagnostics) >= 4

    def test_near_miss_passes(self):
        assert not run_fixture("rpl002_near_miss.py", select=["RPL002"])

    def test_literal_seeds_allowed_in_test_code(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert not lint_source(
            source, logical_path="tests/test_something.py", select=["RPL002"]
        )
        assert lint_source(
            source, logical_path="repro/sim/fake.py", select=["RPL002"]
        )

    def test_seed_tree_module_is_exempt(self):
        source = "import numpy as np\ng = np.random.default_rng(s)\n"
        assert not lint_source(
            source, logical_path="repro/rng.py", select=["RPL002"]
        )

    def test_entropy_seed_flagged_even_in_tests(self):
        source = (
            "import time\nimport numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))\n"
        )
        diagnostics = lint_source(
            source, logical_path="tests/test_x.py", select=["RPL002"]
        )
        assert any("time.time" in d.message for d in diagnostics)


# ----------------------------------------------------------------------
# RPL003 -- spec-hash stability
# ----------------------------------------------------------------------
class TestRpl003:
    def test_violation_caught(self):
        diagnostics = run_fixture("rpl003_violation.py", select=["RPL003"])
        assert codes(diagnostics) == ["RPL003"]
        assert "BrokenSpec.coordination" in diagnostics[0].message

    def test_near_miss_passes(self):
        assert not run_fixture("rpl003_near_miss.py", select=["RPL003"])

    def test_hashable_spec_without_to_dict_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class S:\n"
            "    x: int = 0\n"
            "    def canonical_json(self):\n"
            "        return '{}'\n"
        )
        diagnostics = lint_source(source, logical_path=LIB, select=["RPL003"])
        assert codes(diagnostics) == ["RPL003"]
        assert "no `to_dict`" in diagnostics[0].message


# ----------------------------------------------------------------------
# RPL004 -- telemetry vocabulary and span shape
# ----------------------------------------------------------------------
class TestRpl004:
    def test_violations_caught(self):
        diagnostics = run_fixture("rpl004_violation.py", select=["RPL004"])
        messages = " | ".join(d.message for d in diagnostics)
        assert "engine.secret_rounds" in messages
        assert "engine.mystery_depth" in messages
        assert "with" in messages  # the manual span
        assert len(diagnostics) == 3

    def test_near_miss_passes(self):
        assert not run_fixture("rpl004_near_miss.py", select=["RPL004"])

    def test_vocabulary_not_enforced_in_test_code(self):
        source = "def f(telemetry):\n    telemetry.count('made.up')\n"
        assert not lint_source(
            source, logical_path="tests/test_obs.py", select=["RPL004"]
        )

    def test_span_shape_enforced_everywhere(self):
        source = "def f(telemetry):\n    s = telemetry.span('x')\n"
        assert lint_source(
            source, logical_path="tests/test_obs.py", select=["RPL004"]
        )


# ----------------------------------------------------------------------
# RPL005 -- units discipline
# ----------------------------------------------------------------------
class TestRpl005:
    def test_violations_caught(self):
        diagnostics = run_fixture("rpl005_violation.py", select=["RPL005"])
        assert codes(diagnostics) == ["RPL005", "RPL005"]
        assert "signal_dbm" in diagnostics[0].message
        assert "leak_mw" in diagnostics[0].message

    def test_near_miss_passes(self):
        assert not run_fixture("rpl005_near_miss.py", select=["RPL005"])


# ----------------------------------------------------------------------
# RPL006 -- atomic writes
# ----------------------------------------------------------------------
class TestRpl006:
    SCOPE = "repro/campaign/fake_store.py"

    def test_violations_caught(self):
        diagnostics = run_fixture(
            "rpl006_violation.py", logical_path=self.SCOPE, select=["RPL006"]
        )
        assert codes(diagnostics) == ["RPL006"] * 4

    def test_near_miss_passes(self):
        assert not run_fixture(
            "rpl006_near_miss.py", logical_path=self.SCOPE, select=["RPL006"]
        )

    def test_rule_only_binds_persistence_modules(self):
        assert not run_fixture(
            "rpl006_violation.py", logical_path="repro/sim/fake.py",
            select=["RPL006"],
        )


# ----------------------------------------------------------------------
# RPL007 -- experiments ship build_batch
# ----------------------------------------------------------------------
class TestRpl007:
    SCOPE = "repro/experiments/fake_fig.py"

    def test_violation_caught(self):
        diagnostics = run_fixture(
            "rpl007_violation.py", logical_path=self.SCOPE, select=["RPL007"]
        )
        # A bare class, a loop_fallback attribute, and a loop-fallback
        # marker comment: RPL007 has no opt-out.
        assert codes(diagnostics) == ["RPL007"] * 3
        assert "UnbatchedExperiment" in diagnostics[0].message
        assert "DeclaredFallbackExperiment" in diagnostics[1].message
        assert "ExperimentDef" in diagnostics[2].message

    def test_near_miss_passes(self):
        assert not run_fixture(
            "rpl007_near_miss.py", logical_path=self.SCOPE, select=["RPL007"]
        )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable_mutes_one_line_only(self):
        diagnostics = run_fixture("suppressed.py", select=["RPL002"])
        assert codes(diagnostics) == ["RPL002"]
        assert diagnostics[0].line == 13  # still_flagged, not host_boundary

    def test_file_level_disable(self):
        assert not run_fixture("suppressed_file.py", select=["RPL005"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, capsys):
        rc = lint_main(
            [str(FIXTURES / "rpl005_near_miss.py"), "--no-default-excludes"]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_violation_exits_one_with_human_output(self, capsys):
        rc = lint_main(
            [str(FIXTURES / "suppressed.py"), "--no-default-excludes"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPL002" in out
        assert "suppressed.py:13" in out
        assert "1 diagnostic" in out

    def test_json_output(self, capsys):
        rc = lint_main(
            [
                str(FIXTURES / "suppressed.py"),
                "--no-default-excludes",
                "--format",
                "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in payload] == ["RPL002"]
        assert payload[0]["line"] == 13
        assert payload[0]["path"].endswith("suppressed.py")

    def test_select_flag(self, capsys):
        rc = lint_main(
            [
                str(FIXTURES / "suppressed.py"),
                "--no-default-excludes",
                "--select",
                "RPL005",
            ]
        )
        assert rc == 0

    def test_unknown_code_is_usage_error(self, capsys):
        rc = lint_main(["--select", "RPL999"])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_missing_path_is_usage_error(self, capsys):
        rc = lint_main(["definitely_not_here.txt"])
        assert rc == 2


# ----------------------------------------------------------------------
# Self-check: the merged tree is clean
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_and_tests_are_clean(self):
        diagnostics = lint_paths([REPO / "src", REPO / "tests"])
        assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
