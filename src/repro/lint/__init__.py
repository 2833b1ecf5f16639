"""Static enforcement of the repository's reproducibility contracts.

Every load-bearing guarantee in this reproduction -- bit-identical results
across backends, the derived-seed RNG tree, omit-when-unset spec hashing,
``xp`` namespace dispatch, pre-declared telemetry vocabulary, atomic
persistence -- is enforced at runtime by the tier-1 suites, but only on the
paths a test happens to execute.  ``repro.lint`` checks the same contracts
*statically*, on every file, before a test ever runs::

    python -m repro.lint src tests
    python -m repro.lint src --select RPL001,RPL002 --format json

The linter is a small rule framework: each rule is an
:class:`~repro.lint.base.Rule` (an :class:`ast.NodeVisitor`) registered
under its code (``RPL001`` ...) via the same decorator-registry idiom the
experiment/precoder registries use.  Diagnostics carry file/line/column
positions and can be suppressed inline with ``# repro-lint: disable=RPL001``
(see :mod:`repro.lint.suppressions`).

The rules (see :mod:`repro.lint.rules` and ``docs/architecture.md``):

========  ==============================================================
RPL001    no raw ``numpy`` numerical calls inside array-API-dispatched
          scopes, except at host-transfer boundaries
RPL002    RNG discipline: no global numpy RNG state, no ad-hoc
          ``default_rng`` seeding outside the seed-tree module
RPL003    spec-hash stability: every dataclass field of a hashable spec
          class must appear in its canonical serializer
RPL004    telemetry vocabulary: literal counter/gauge names must be
          pre-declared; spans must be ``with``-blocks
RPL005    units discipline: no arithmetic mixing dB-scale and
          linear-power suffixed names without a converter
RPL006    atomic writes: persistence in cache/campaign/result modules
          must use the tmp-sibling + ``os.replace`` pattern
RPL007    registered experiments must ship ``build_batch`` (the only
          evaluation hook; no opt-out)
========  ==============================================================
"""

from __future__ import annotations

from .base import RULES, Rule, RuleContext, register_rule
from .config import DEFAULT_CONFIG, LintConfig
from .diagnostics import Diagnostic
from .engine import lint_file, lint_paths, lint_source
from . import rules  # noqa: F401  (imports register the built-in rules)

__all__ = [
    "DEFAULT_CONFIG",
    "Diagnostic",
    "LintConfig",
    "RULES",
    "Rule",
    "RuleContext",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
]
