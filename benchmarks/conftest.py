"""Benchmark helpers: run each experiment once and print its paper-style
summary next to the paper's reported numbers."""

from __future__ import annotations

import sys
from pathlib import Path

# The RunSpec/Runner adapter lives with the tier-1 helpers; reuse it here.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import experiment_runner  # noqa: E402,F401  (re-export)


def run_once(benchmark, fn, **kwargs):
    """Run ``fn(**kwargs)`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and expensive; a single round gives
    the regeneration cost without re-sampling noise.
    """
    return benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)


def report(result, paper_note: str) -> None:
    """Print the regenerated series and the paper's reference values."""
    print()
    print(result.summary())
    print(f"paper reference: {paper_note}")
