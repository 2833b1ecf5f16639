"""Scalar paper-rule references for the stacked DRR scheduler (§3.2.5).

:class:`PaperDrr` applies the paper's deficit round-robin rule to one
item's counters in plain Python floats, and :func:`select_in_visit_order`
is the per-item, brute-force reading of
:func:`repro.core.selection.pick_in_visit_order`.  Tests drive the stacked
kernel and these references with the same rounds and compare exactly.
"""

from __future__ import annotations


class PaperDrr:
    """One item's deficit counters, in TXOP units."""

    def __init__(self, n_clients: int):
        self.counters = [0.0] * n_clients

    def pick(self, candidates) -> int | None:
        """Largest deficit among ``candidates``; ties go to the lowest id."""
        best = None
        for client in sorted(candidates):
            if best is None or self.counters[client] > self.counters[best]:
                best = client
        return best

    def settle(self, served, losers, txop_units: float = 1.0) -> None:
        """Served clients pay ``T``; the ``m`` losers each gain ``n*T/m``."""
        if not served:
            return
        for client in served:
            self.counters[client] -= txop_units
        if losers:
            share = len(served) * txop_units / len(losers)
            for client in losers:
                self.counters[client] += share

    def credit(self, clients, txop_units: float = 1.0) -> None:
        """Blocked-round credit: every listed client gains ``T``."""
        for client in clients:
            self.counters[client] += txop_units


def select_in_visit_order(drr: PaperDrr, visits, primary, eligible) -> list[int]:
    """Pick order for one item: each visit (a set of candidate ids) takes
    its largest-deficit unchosen ``primary`` candidate, else its
    largest-deficit unchosen ``eligible`` one, else nothing."""
    chosen: list[int] = []
    for visit in visits:
        free = [c for c in visit if c not in chosen]
        pick = drr.pick([c for c in free if c in primary])
        if pick is None:
            pick = drr.pick([c for c in free if c in eligible])
        if pick is not None:
            chosen.append(pick)
    return chosen
