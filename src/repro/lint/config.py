"""Lint configuration: which contracts bind which files.

The defaults encode this repository's layout (which modules are array-API
dispatched, where the seed tree lives, which modules own persistent
artifacts).  Tests construct ad-hoc configs pointing the same rules at
fixture files, so every scoping decision here is data, not code.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..obs.telemetry import CORE_COUNTERS


def _match(path: str, pattern: str) -> bool:
    """``pattern`` matches ``path`` as a posix suffix or an fnmatch glob."""
    if "*" in pattern or "?" in pattern or "[" in pattern:
        return fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(
            path, f"*/{pattern}"
        )
    return path == pattern or path.endswith(f"/{pattern}")


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about the repository layout.

    Parameters
    ----------
    dispatched_scopes:
        Mapping of file pattern -> ``"*"`` (the whole module is
        array-API dispatched) or a tuple of dotted qualnames
        (``"CarrierSenseBatch.decode_mask"``) naming the dispatched
        compute boundaries inside an otherwise host-side module
        (RPL001's scope).  RPL001 reports a qualname that names no
        function or class in its file.
    numpy_member_allowlist:
        ``np.<member>`` paths RPL001 never flags: exception types, dtype
        and index plumbing -- things that are not numerical compute and
        are backend-safe by construction.
    host_staging_suffix:
        Variable-name suffix marking a deliberate host-side staging
        buffer (the ``tx_np = ...; xp.asarray(tx_np)`` idiom); RPL001
        exempts values assigned to such names.
    seed_tree_modules:
        The modules allowed to construct generators/seed sequences
        directly (RPL002's sanctuary).
    rng_literal_seed_exempt:
        File patterns where ad-hoc ``default_rng(<literal>)`` is fine
        (test code wants deterministic literals).
    counter_vocabulary:
        The declared telemetry counter/gauge names (RPL004).
    telemetry_impl_modules:
        The telemetry implementation itself, exempt from RPL004.
    db_suffixes / linear_suffixes:
        Name suffixes marking dB-scale vs linear-power quantities
        (RPL005); mixing the two classes in one arithmetic expression
        without a :mod:`repro.units` converter is flagged.
    atomic_write_modules:
        File patterns whose persistence writes must use the tmp-sibling
        + ``os.replace`` pattern (RPL006).
    experiment_modules:
        File patterns where experiment registrations are checked for
        ``build_batch`` (RPL007).
    exclude_parts:
        Path components that exclude a file from directory walks
        (fixture trees with seeded violations, caches).
    """

    dispatched_scopes: Mapping[str, object] = field(
        default_factory=lambda: {
            "repro/core/batch.py": "*",
            "repro/phy/capacity.py": "*",
            "repro/phy/mcs.py": "*",
            # sim/batch.py is mostly host-side control flow; only the
            # device-resident compute boundaries are dispatched.
            "repro/sim/batch.py": (
                "CarrierSenseBatch.sensed_power_mw",
                "CarrierSenseBatch.busy_mask",
                "CarrierSenseBatch.decode_mask",
                "CarrierSenseBatch.nav_blocked_mask",
                "CarrierSenseBatch.decodable_mask",
                "CarrierSenseBatch.single_tx_busy",
                "_EngineCore._precode",
                "RoundBasedEvaluatorBatch._score_round",
            ),
        }
    )
    numpy_member_allowlist: frozenset = frozenset(
        {
            "linalg.LinAlgError",
            "ndarray",
            "dtype",
            "errstate",
            "finfo",
            "iinfo",
            "newaxis",
            "pi",
            "inf",
            "nan",
            "ix_",
            "flatnonzero",
            "array_equal",
            "shares_memory",
        }
    )
    host_staging_suffix: str = "_np"
    seed_tree_modules: tuple = ("repro/rng.py",)
    rng_literal_seed_exempt: tuple = ("tests/*", "benchmarks/*", "*/conftest.py")
    counter_vocabulary: frozenset = frozenset(CORE_COUNTERS)
    telemetry_impl_modules: tuple = ("repro/obs/*",)
    db_suffixes: tuple = ("_db", "_dbm")
    linear_suffixes: tuple = ("_mw", "_w", "_watts")
    atomic_write_modules: tuple = (
        "repro/io.py",
        "repro/api/result.py",
        "repro/api/runner.py",
        "repro/campaign/*",
        "repro/obs/*",
    )
    experiment_modules: tuple = ("repro/experiments/*",)
    exclude_parts: tuple = ("__pycache__", ".git", "lint_fixtures", ".pytest_cache")

    # ------------------------------------------------------------------
    # Scope queries (rules call these; tests override by constructing
    # configs whose patterns point at fixture files)
    # ------------------------------------------------------------------
    def dispatched_scope(self, path: str):
        """``None`` | ``"*"`` | tuple of qualnames for ``path``."""
        for pattern, scope in self.dispatched_scopes.items():
            if _match(path, pattern):
                return scope
        return None

    def is_seed_tree(self, path: str) -> bool:
        return self._any(path, self.seed_tree_modules)

    def allows_literal_seeds(self, path: str) -> bool:
        return self._any(path, self.rng_literal_seed_exempt)

    def is_telemetry_impl(self, path: str) -> bool:
        return self._any(path, self.telemetry_impl_modules)

    def is_atomic_write_module(self, path: str) -> bool:
        return self._any(path, self.atomic_write_modules)

    def is_experiment_module(self, path: str) -> bool:
        return self._any(path, self.experiment_modules)

    def _any(self, path: str, patterns: Sequence[str]) -> bool:
        return any(_match(path, pattern) for pattern in patterns)


#: The repository's own layout -- what ``python -m repro.lint`` uses.
DEFAULT_CONFIG = LintConfig()
