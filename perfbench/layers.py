"""Outside-in layer tracing: spans around the public calls into each layer.

Nothing in ``repro`` is edited.  :func:`traced` patches, for the duration of
a ``with`` block, the bindings the callers actually look up:

* module-level functions are replaced in their defining module *and* in
  every loaded ``repro.*`` module that bound the same object at import time
  (``from ..core.batch import power_balanced_precoder as ...``);
* methods (and classmethods) are replaced on their class;
* the experiment's ``build_batch`` / ``finalize`` are replaced on the
  registered :class:`repro.api.ExperimentDef` instance the Runner fetches.

Each wrapped call becomes one span of a named layer.  A layer's *self* time
is its wall time minus the wrapped calls nested inside it; a call that
re-enters the layer it is already in (``three_ap_scenario`` calling
``paired_scenarios``, ``nav_blocked_mask`` calling ``decode_mask``) is folded
into the outer span.  Aggregates are kept in streaming form; the raw spans
stay in memory only for the Chrome ``trace_event`` export.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


def _stack_items(h) -> int:
    """Batch items of a ``(..., rows, cols)`` stack."""
    return int(math.prod(h.shape[:-2]))


def _row_items(x) -> int:
    """Batch items of a ``(..., n)`` stack."""
    return int(math.prod(x.shape[:-1]))


def _subset_items(self, items) -> int:
    return self.n_items if items is None else len(items)


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    ``target`` is ``module:attr`` or ``module:Class.method``; ``heavy`` is
    the workload that must exercise it; ``items`` maps the call's arguments
    to its stacked batch size; ``after`` reads domain aggregates off the
    result.
    """

    name: str
    target: str
    heavy: str
    items: Callable[..., int] | None = None
    after: Callable[..., None] | None = None


def _power_balanced_after(tracer, result) -> None:
    tracer.add("core.power_balanced.rounds_sum", float(result.rounds.sum()))
    tracer.add("core.power_balanced.unconverged", float((~result.converged).sum()))


def _waterfill_after(tracer, result) -> None:
    tracer.add("core.reverse_waterfill.capped_sum", float(result.capped.sum()))


def _each_item(self, *args, **kwargs) -> int:
    return self.n_items


def _first_arg_len(owner, first, *args, **kwargs) -> int:
    """Items = length of the first argument after ``self``/``cls``."""
    return len(first)


_SCENARIOS = "repro.topology.scenarios:"
_CHANNEL = "repro.channel.batch:ChannelBatch."
_CORE = "repro.core.batch:"
_SIM = "repro.sim.batch:"
_TRAFFIC = "repro.traffic.state:TrafficState."

LAYERS: tuple[Layer, ...] = (
    Layer("topology.scenario", _SCENARIOS + "paired_scenarios", "office_capacity"),
    Layer("topology.scenario", _SCENARIOS + "three_ap_scenario", "three_ap_network"),
    Layer("topology.scenario", _SCENARIOS + "campus_scenario", "campus_roaming"),
    Layer("channel.build", _CHANNEL + "__init__", "office_capacity", items=_first_arg_len),
    Layer("channel.cross_power", _CHANNEL + "antenna_cross_power_dbm", "three_ap_network",
          items=_each_item),
    Layer("channel.matrices", _CHANNEL + "channel_matrices", "office_capacity", items=_each_item),
    Layer("channel.advance", _CHANNEL + "advance", "loaded_cell",
          items=lambda self, dt_s, items=None, **k: _subset_items(self, items)),
    Layer("channel.positions", _CHANNEL + "update_client_positions", "campus_roaming",
          items=lambda self, positions, items=None: _subset_items(self, items)),
    Layer("core.power_balanced", _CORE + "power_balanced_precoder", "loaded_cell",
          items=lambda h, *a, **k: _stack_items(h), after=_power_balanced_after),
    Layer("core.naive", _CORE + "naive_scaled_precoder", "loaded_cell",
          items=lambda h, *a, **k: _stack_items(h)),
    Layer("core.zfbf", _CORE + "zfbf_directions", "loaded_cell",
          items=lambda h, *a, **k: _stack_items(h)),
    Layer("core.reverse_waterfill", _CORE + "reverse_waterfill", "loaded_cell",
          items=lambda q, *a, **k: _row_items(q), after=_waterfill_after),
    Layer("mac.overhear_gate", _SIM + "RoundBasedEvaluatorBatch.mutual_overhear_mask",
          "three_ap_network", items=_first_arg_len),
    Layer("mac.carrier_sense", _SIM + "CarrierSenseBatch.__init__", "three_ap_network",
          items=_first_arg_len),
    *(
        Layer("mac.carrier_sense", _SIM + "CarrierSenseBatch." + method, "three_ap_network",
              items=_each_item)
        for method in ("sensed_power_mw", "decode_mask", "nav_blocked_mask", "decodable_mask")
    ),
    Layer("sim.evaluate_round", _SIM + "RoundBasedEvaluatorBatch.evaluate_round",
          "three_ap_network",
          items=lambda self, primary_ap, item_mask=None: (
              self.n_items if item_mask is None else int(np.count_nonzero(item_mask))
          )),
    *(
        Layer("traffic", _TRAFFIC + method, "loaded_cell")
        for method in ("begin_round", "serve_burst", "end_round", "backlog_mask")
    ),
    Layer("assoc.resound", "repro.assoc.state:BatchAssociationState.resound", "campus_roaming",
          items=_each_item),
    Layer("mobility.advance", "repro.mobility.state:MobilityState.advance", "campus_roaming"),
    Layer("api.runner", "repro.api.runner:Runner.run", "office_capacity"),
)

#: Layers that report stacked ``.items`` (the others are per-item calls).
ITEM_LAYERS = tuple(dict.fromkeys(l.name for l in LAYERS if l.items is not None))

#: Every span name the tracer can emit, in report order.
SPAN_LAYERS = tuple(dict.fromkeys([l.name for l in LAYERS] + ["api.finalize"]))


class Tracer:
    """Streaming per-layer aggregates plus the in-memory span list."""

    def __init__(self):
        #: layer -> [calls, items, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: Free-form domain sums (rounds, capped items, seeds drawn, ...).
        self.sums: dict[str, float] = {}
        #: Inclusive duration of every ``sim.evaluate_round`` call.
        self.round_ns: list[int] = []
        #: Invocations per wrapped target (folded re-entries included).
        self.fired: dict[str, int] = {}
        #: (layer, start_ns, dur_ns, depth) per span, for the trace export.
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[list] = []  # [layer, child_ns]
        self.t0_ns = time.perf_counter_ns()

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def call(self, layer: Layer, fn, args, kwargs):
        self.fired[layer.target] = self.fired.get(layer.target, 0) + 1
        stack = self._stack
        if stack and stack[-1][0] == layer.name:
            return fn(*args, **kwargs)
        frame = [layer.name, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][1] += dur
            entry = self.stats.setdefault(layer.name, [0, 0, 0, 0])
            entry[0] += 1
            entry[2] += dur
            entry[3] += dur - frame[1]
            self.spans.append((layer.name, start, dur, len(stack)))
            if layer.name == "sim.evaluate_round":
                self.round_ns.append(dur)
        if layer.items is not None:
            entry[1] += layer.items(*args, **kwargs)
        if layer.after is not None:
            layer.after(self, result)
        return result

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def items(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0, 0))[3] / 1e9

    def write_chrome_trace(self, path: Path, counters: dict[str, float]) -> Path:
        """Dump the spans (complete ``X`` events) and final counters."""
        events: list[dict[str, Any]] = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.t0_ns) / 1000.0,
                "dur": dur / 1000.0,
                "pid": 1,
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, start, dur, depth in self.spans
        ]
        end_us = max((e["ts"] + e["dur"] for e in events), default=0.0)
        for name, value in sorted(counters.items()):
            events.append(
                {"name": name, "ph": "C", "ts": end_us, "pid": 1, "tid": 0,
                 "args": {name: value}}
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _wrap_function(tracer: Tracer, layer: Layer, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapper


def _wrap_classmethod(tracer: Tracer, layer: Layer, descriptor: classmethod):
    fn = descriptor.__func__

    def wrapper(cls, *args, **kwargs):
        return tracer.call(layer, fn, (cls, *args), kwargs)

    wrapper.__wrapped__ = fn
    return classmethod(wrapper)


def _install(tracer: Tracer, layer: Layer, undo: list) -> None:
    module_name, attr = layer.target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            replacement = _wrap_classmethod(tracer, layer, original)
        else:
            replacement = _wrap_function(tracer, layer, original)
        setattr(cls, method, replacement)
        undo.append((cls, method, original))
        return
    original = getattr(module, attr)
    replacement = _wrap_function(tracer, layer, original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for binding, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, binding, replacement)
                undo.append((loaded, binding, original))


@contextlib.contextmanager
def traced(tracer: Tracer, experiment: str, n_topologies: int):
    """Install every layer wrapper (plus the experiment-definition hooks)
    for the enclosed block; everything is restored on exit."""
    from repro.api.experiments import get_experiment_def

    defn = get_experiment_def(experiment)
    build_batch, finalize = defn.build_batch, defn.finalize
    finalize_layer = Layer("api.finalize", f"{experiment}.finalize", "office_capacity")

    def counted_build_batch(seeds, params):
        outcomes = build_batch(seeds, params)
        tracer.add("topology.seeds_drawn", len(seeds))
        tracer.add("topology.accepted", sum(o is not None for o in outcomes))
        return outcomes

    def traced_finalize(outcomes, params):
        tracer.add("api.runs", 1)
        tracer.add("api.requested", n_topologies)
        return tracer.call(finalize_layer, finalize, (outcomes, params), {})

    undo: list = []
    try:
        for layer in LAYERS:
            _install(tracer, layer, undo)
        object.__setattr__(defn, "build_batch", counted_build_batch)
        object.__setattr__(defn, "finalize", traced_finalize)
        yield tracer
    finally:
        object.__setattr__(defn, "build_batch", build_batch)
        object.__setattr__(defn, "finalize", finalize)
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
