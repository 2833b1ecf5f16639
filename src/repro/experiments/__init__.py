"""Experiment harness: registered specs, one module per paper figure.

Every figure of the paper's evaluation is a registered experiment executed
through the declarative :class:`repro.api.RunSpec` /
:class:`repro.api.Runner` pipeline; each module registers one
``build_batch`` / ``finalize`` pair.  Benchmarks regenerate figures at
full scale, tests smoke them at reduced sizes, and
``python -m repro.experiments`` runs any of them from the command line.
"""

from . import registry  # noqa: F401  (importing it registers every experiment)
