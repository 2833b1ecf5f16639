"""Exact rational reference for reverse water-filling (paper eqs. 7-9).

:func:`repro.core.batch.reverse_waterfill` finds the level ``L`` with
``f(L) = required``, where ``f(L) = sum_j clip(m_j - L, 0, c_j)`` is
continuous, non-increasing and piecewise linear.  This oracle solves the
same equation on the *same* float inputs (marginals ``m_j``, caps ``c_j``,
``required``) in :class:`fractions.Fraction` arithmetic, so any difference
from the kernel is the kernel's own rounding, never a different problem.
"""

from __future__ import annotations

from fractions import Fraction


def _total_reduction(marginals, caps, level: Fraction) -> Fraction:
    return sum(
        (min(max(m - level, Fraction(0)), c) for m, c in zip(marginals, caps)),
        Fraction(0),
    )


def exact_reductions(marginals, caps, required) -> list[Fraction]:
    """Exact per-stream reductions ``clip(m_j - L, 0, c_j)`` at the level
    ``L`` solving ``f(L) = required``.

    ``required`` must lie strictly between 0 and ``sum(caps)``.  The
    reductions are unique even where the level is not: on a flat stretch
    of ``f`` every stream is untouched or at its cap.
    """
    m = [Fraction(float(x)) for x in marginals]
    c = [Fraction(float(x)) for x in caps]
    target = Fraction(float(required))
    if not 0 < target < sum(c, Fraction(0)):
        raise ValueError("required must lie strictly inside (0, sum(caps))")
    breaks = sorted(set(m) | {mj - cj for mj, cj in zip(m, c)})
    # Walk down from the top breakpoint (where f = 0) to the first one
    # cutting at least `required`; f is linear on the segment above it.
    hi = breaks[-1]
    f_hi = _total_reduction(m, c, hi)
    for lo in reversed(breaks[:-1]):
        f_lo = _total_reduction(m, c, lo)
        if f_lo >= target:
            level = lo + (hi - lo) * (f_lo - target) / (f_lo - f_hi)
            return [min(max(mj - level, Fraction(0)), cj) for mj, cj in zip(m, c)]
        hi, f_hi = lo, f_lo
    raise AssertionError("no breakpoint cuts the required power")
