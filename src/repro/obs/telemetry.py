"""The telemetry core: spans, counters, gauges, probes, and the null object.

Everything here is deliberately allocation-light.  The enabled path appends
small tuples to a bounded list; the disabled path is a module-level
:class:`NullTelemetry` singleton whose methods do nothing and whose
``span()`` returns one shared no-op context manager, so an instrumented
call site costs a context-variable read, one attribute lookup, and a no-op
``with`` block -- nothing else.  No instrumentation point may draw
randomness or branch on telemetry state in a way that changes engine
control flow; the bit-identity suite asserts exactly that.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from ..io import atomic_write_text

#: Schema version of the JSONL trace format (the ``meta`` line carries it).
TRACE_SCHEMA_VERSION = 1

#: Counters pre-declared on every :class:`Telemetry` so a metrics export
#: always names the full documented vocabulary, zeros included (the
#: docs/architecture.md counter table mirrors this tuple).
CORE_COUNTERS = (
    "runner.cache.hits",
    "runner.cache.misses",
    "runner.cache.recomputes",
    "api.sweep.seeds_drawn",
    "api.sweep.accepted",
    "rng.generators_spawned",
    "rng.seeds_derived",
    "topology.placement_attempts",
    "topology.placements",
    "engine.rounds",
    "engine.txops",
    "precode.rounds",
    "precode.unconverged",
    "assoc.handoffs",
    "assoc.outages",
    "xp.to_host.calls",
    "xp.to_host.bytes",
    "xp.to_device.calls",
    "xp.to_device.bytes",
    "campaign.shards.completed",
    "campaign.shards.from_cache",
    "campaign.shards.retried",
    "campaign.shards.timeouts",
)


class _NullSpan:
    """The shared no-op context manager the null object hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry that records nothing -- the default in every context.

    All methods are no-ops with the cheapest possible bodies; ``span``
    returns one shared context manager object, so instrumented hot loops
    pay a single attribute lookup and call per site.  Probes never fire
    through the null object, so registered samplers have zero effect on
    untraced runs.
    """

    __slots__ = ()

    enabled = False

    def span(self, name, **tags):
        return _NULL_SPAN

    def count(self, name, value=1):
        return None

    def gauge(self, name, value, **tags):
        return None

    def probe(self, site, **context):
        return None


NULL = NullTelemetry()


class _Span:
    """One live span: records a complete event on exit, exception or not."""

    __slots__ = ("_telemetry", "_name", "_tags", "_start_ns", "_depth")

    def __init__(self, telemetry: "Telemetry", name: str, tags: dict | None):
        self._telemetry = telemetry
        self._name = name
        self._tags = tags

    def __enter__(self):
        t = self._telemetry
        self._depth = t._depth
        t._depth += 1
        t.spans_entered += 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end_ns = time.perf_counter_ns()
        t = self._telemetry
        t._depth = self._depth
        t.spans_exited += 1
        dur_us = (end_ns - self._start_ns) / 1000.0
        entry = t._span_totals.get(self._name)
        if entry is None:
            entry = t._span_totals[self._name] = {"count": 0, "total_us": 0.0}
        entry["count"] += 1
        entry["total_us"] += dur_us
        t._record(
            "span",
            self._name,
            (self._start_ns - t._t0_ns) / 1000.0,
            dur_us,
            self._depth,
            self._tags,
        )
        return False


class Telemetry:
    """Process-local telemetry: tracing spans, counters, gauges, probes.

    Parameters
    ----------
    max_events:
        Bound on the in-memory span/gauge buffer that feeds the trace
        exports.  Once full, *new* events are dropped (the earlier ones --
        the run's structure -- are kept) and ``dropped_events`` counts the
        loss; counters and span totals keep counting regardless.

    Install with :func:`repro.obs.use` (or ``Runner(telemetry=...)``, which
    does it for you); instrumented library code finds the active instance
    through :func:`repro.obs.active`.  One instance may serve several runs
    -- events and counters accumulate until :meth:`clear`.

    Not thread-safe by design: one instance belongs to one worker/thread
    (process pools give each worker its own), matching the engines' own
    execution model.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000):
        if max_events < 1:
            raise ValueError("Telemetry.max_events must be >= 1")
        self.max_events = int(max_events)
        self.clear()

    def clear(self) -> None:
        """Drop all recorded events and reset every counter to zero."""
        self._t0_ns = time.perf_counter_ns()
        #: (kind, name, ts_us, dur_us_or_value, depth, tags) tuples.
        self._events: list[tuple] = []
        #: name -> {count, total_us} over every span, buffered or dropped.
        self._span_totals: dict[str, dict[str, float]] = {}
        self._counters: dict[str, float] = {name: 0 for name in CORE_COUNTERS}
        self._depth = 0
        self.dropped_events = 0
        self.spans_entered = 0
        self.spans_exited = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, kind, name, ts_us, value, depth, tags) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append((kind, name, ts_us, value, depth, tags))

    def span(self, name: str, **tags) -> _Span:
        """A context manager timing the enclosed block on the monotonic
        clock; nested spans record their depth, so exports reconstruct the
        call tree.  ``tags`` ride along verbatim (keep them JSON-safe)."""
        return _Span(self, name, tags or None)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to the ``name`` counter."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float, **tags) -> None:
        """Record one timestamped sample of an instantaneous quantity."""
        self._record(
            "gauge",
            name,
            (time.perf_counter_ns() - self._t0_ns) / 1000.0,
            float(value),
            self._depth,
            tags or None,
        )

    def probe(self, site: str, **context) -> None:
        """Invoke every :func:`register_probe`-registered sampler for
        ``site`` with this telemetry and the engine-provided context."""
        for fn in _PROBES.get(site, ()):
            fn(self, **context)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        """Snapshot of every counter (documented names always present)."""
        return dict(self._counters)

    def span_events(self) -> list[dict]:
        """Recorded spans as dicts (``name``/``ts_us``/``dur_us``/``depth``/
        ``tags``), in completion order."""
        return [
            {"name": name, "ts_us": ts, "dur_us": value, "depth": depth,
             "tags": tags or {}}
            for kind, name, ts, value, depth, tags in self._events
            if kind == "span"
        ]

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per-span-name aggregate: ``{name: {count, total_us}}``.

        Folded as each span exits, so spans the bounded buffer dropped
        still count.  Nested spans each contribute their own inclusive
        duration; use the recorded depths to de-overlap if you need
        exclusive times.
        """
        return {name: dict(entry) for name, entry in self._span_totals.items()}

    def summary(self) -> "TelemetrySummary":
        """Compact snapshot suitable for ``RunResult.telemetry``."""
        return TelemetrySummary(
            counters=self.counters,
            span_totals=self.span_totals(),
            n_events=len(self._events),
            dropped_events=self.dropped_events,
            wall_us=(time.perf_counter_ns() - self._t0_ns) / 1000.0,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _meta(self) -> dict:
        from .. import __version__

        return {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "version": __version__,
            "clock": "perf_counter_ns",
            "unit": "us",
            "n_events": len(self._events),
            "dropped_events": self.dropped_events,
        }

    def jsonl_lines(self) -> Iterator[str]:
        """The JSONL trace, one JSON object per line.

        Line 1 is a ``meta`` record; then every span/gauge event in
        completion order; then one ``counter`` record per counter.  The
        schema is documented in ``docs/architecture.md``.
        """
        yield json.dumps(self._meta(), sort_keys=True)
        for kind, name, ts, value, depth, tags in self._events:
            record: dict[str, Any] = {"type": kind, "name": name,
                                      "ts_us": round(ts, 3)}
            if kind == "span":
                record["dur_us"] = round(value, 3)
                record["depth"] = depth
            else:
                record["value"] = value
            if tags:
                record["tags"] = tags
            yield json.dumps(record, sort_keys=True)
        for name in sorted(self._counters):
            yield json.dumps(
                {"type": "counter", "name": name, "value": self._counters[name]},
                sort_keys=True,
            )

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the JSONL trace atomically (temp sibling + rename)."""
        return _atomic_text(Path(path), "\n".join(self.jsonl_lines()) + "\n")

    def chrome_trace(self) -> dict:
        """The buffer as a Chrome ``trace_event`` JSON object.

        Load the file in ``chrome://tracing`` / Perfetto for a flamegraph;
        spans become complete (``"ph": "X"``) events, counters become one
        final counter (``"ph": "C"``) sample each.
        """
        events = []
        last_ts = 0.0
        for kind, name, ts, value, depth, tags in self._events:
            if kind == "span":
                events.append(
                    {"name": name, "ph": "X", "ts": ts, "dur": value,
                     "pid": os.getpid(), "tid": 0, "args": tags or {}}
                )
                last_ts = max(last_ts, ts + value)
            else:
                events.append(
                    {"name": name, "ph": "C", "ts": ts, "pid": os.getpid(),
                     "tid": 0, "args": {name: value, **(tags or {})}}
                )
                last_ts = max(last_ts, ts)
        for name in sorted(self._counters):
            events.append(
                {"name": name, "ph": "C", "ts": last_ts, "pid": os.getpid(),
                 "tid": 0, "args": {name: self._counters[name]}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": self._meta()}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome ``trace_event`` export atomically."""
        return _atomic_text(Path(path), json.dumps(self.chrome_trace()))

    def write_metrics(self, path: str | Path) -> Path:
        """Write the counters + span totals as one JSON document."""
        payload = {
            "meta": self._meta(),
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "span_totals": self.span_totals(),
        }
        return _atomic_text(Path(path), json.dumps(payload, indent=2) + "\n")


class TelemetrySummary:
    """Frozen snapshot of a :class:`Telemetry` at one point in time.

    What ``RunResult.telemetry`` holds: counters, per-span aggregates, and
    buffer health.  Never serialized with the result -- cached entries and
    spec hashes are telemetry-blind by contract.
    """

    __slots__ = ("counters", "span_totals", "n_events", "dropped_events", "wall_us")

    def __init__(self, counters, span_totals, n_events, dropped_events, wall_us):
        self.counters = counters
        self.span_totals = span_totals
        self.n_events = n_events
        self.dropped_events = dropped_events
        self.wall_us = wall_us

    def counter(self, name: str) -> float:
        """One counter's value (0 for a documented-but-untouched name)."""
        return self.counters.get(name, 0)

    def span_total_us(self, name: str) -> float:
        """Total inclusive duration of every ``name`` span, microseconds."""
        entry = self.span_totals.get(name)
        return 0.0 if entry is None else entry["total_us"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        phases = ", ".join(
            f"{name}={entry['total_us'] / 1000.0:.1f}ms"
            for name, entry in sorted(self.span_totals.items())
        )
        return f"<TelemetrySummary {self.n_events} events; {phases}>"


def _atomic_text(path: Path, text: str) -> Path:
    """Same-directory temp file + ``os.replace``: never a torn export."""
    return atomic_write_text(path, text)


# ----------------------------------------------------------------------
# Active-telemetry context (mirrors repro.xp.use / repro.xp.active)
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar[Telemetry | None] = contextvars.ContextVar(
    "repro_obs_active", default=None
)


def active() -> Telemetry | NullTelemetry:
    """The telemetry the current context records to (the null object
    unless a :func:`use` block -- installed by ``Runner(telemetry=...)``
    -- says otherwise)."""
    telemetry = _ACTIVE.get()
    return NULL if telemetry is None else telemetry


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the active instance for the enclosed block."""
    if not isinstance(telemetry, Telemetry):
        raise TypeError(
            "use() expects a Telemetry instance; "
            f"got {type(telemetry).__name__}"
        )
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# Probe registry
# ----------------------------------------------------------------------
#: site -> ordered list of sampler callables.
_PROBES: dict[str, list[Callable]] = {}

#: Probe sites the engines call (documented; registering elsewhere is
#: allowed for custom instrumentation that calls ``probe()`` itself).
PROBE_SITES = ("round", "txop", "shard")


def register_probe(site: str = "round", name: str | None = None):
    """Decorator: attach a sampler to a probe site without touching engines.

    The sampler runs as ``fn(telemetry, **context)`` every time an *enabled*
    telemetry passes the site (never on untraced runs), and typically
    records gauges::

        @register_probe("round")
        def queue_depth(obs, log=None, round_index=0, **ctx):
            if log.queue_bytes is not None:  # finite-load runs only
                obs.gauge("queue_bytes", float(log.queue_bytes[round_index].sum()))

    The round engine's site passes its run's :class:`~repro.sim.RoundLog`
    as ``log`` (rows up to ``round_index`` filled).

    Samplers must not mutate engine state or draw randomness -- the
    bit-identity contract extends to them.
    """

    def decorator(fn):
        fn._probe_site = site
        fn._probe_name = name or fn.__name__
        _PROBES.setdefault(site, []).append(fn)
        return fn

    return decorator


def unregister_probe(fn) -> None:
    """Detach a previously registered sampler (tests, notebook reloads)."""
    site = getattr(fn, "_probe_site", None)
    if site is not None and fn in _PROBES.get(site, ()):
        _PROBES[site].remove(fn)


def registered_probes(site: str | None = None) -> list[str]:
    """Names of registered samplers (optionally one site's)."""
    sites = [site] if site is not None else sorted(_PROBES)
    return [fn._probe_name for s in sites for fn in _PROBES.get(s, ())]
