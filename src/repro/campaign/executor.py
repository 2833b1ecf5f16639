"""The campaign executor: shards across processes, checkpointed, resumable.

:class:`CampaignRunner` drives a :class:`~repro.campaign.spec.CampaignSpec`
to a :class:`~repro.campaign.result.CampaignResult`:

* every shard is executed through the ordinary
  :meth:`repro.api.runner.Runner.run_window` primitive, so shard results
  land in the same atomic, spec-hash + seed-range keyed disk cache a
  direct ``Runner`` would use;
* shards fan out over a ``ProcessPoolExecutor`` (``jobs > 1``) with
  per-shard retry and an optional per-shard wall-clock timeout (enforced
  inside the worker via ``SIGALRM``, so a wedged shard fails cleanly and
  is retried without tearing the pool down);
* each completion is appended to the JSONL journal together with the
  shard's streaming-accumulator states, so an interrupted campaign
  (including ``kill -9`` mid-shard) resumes by re-reading the manifest,
  journal, and cache -- completed shards are **never** recomputed;
* aggregates are folded in canonical shard order (cell-major, ascending
  seed window), and the accumulators themselves are exactly mergeable, so
  the reported aggregates cannot depend on shard completion order.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import time
import warnings
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__ as _PACKAGE_VERSION
from .. import obs as obsmod
from ..analysis.streaming import StreamingSummary
from ..api.result import RunResult
from ..api.runner import Runner, _CACHE_READ_ERRORS
from ..api.spec import RunSpec
from .journal import JOURNAL_NAME, MANIFEST_NAME, CampaignJournal, read_manifest, write_manifest
from .result import CampaignResult, CellAggregate
from .spec import CampaignSpec, ShardPlan

_RESULT_NAME = "result.json"
METRICS_NAME = "metrics.json"


class CampaignError(RuntimeError):
    """A campaign could not start or a shard exhausted its retries."""


class ShardTimeout(RuntimeError):
    """A shard exceeded its per-shard wall-clock budget."""


def _shard_worker(payload: dict) -> dict:
    """Execute one shard; module-level so process pools can pickle it.

    Serves the shard from the Runner's disk cache when a readable entry
    exists (``source="cache"``), else computes and caches it
    (``source="computed"``).  Returns only small, JSON-safe data: the
    shard key, accepted count, and the per-series streaming-accumulator
    states -- never the raw series -- so the master's memory stays bounded
    by accumulator size regardless of campaign scale.

    With ``payload["telemetry"]`` set, the shard runs under a fresh
    per-shard :class:`repro.obs.Telemetry` whose whole lifetime is one
    ``campaign.shard`` span carrying the shard key; a compact summary
    (counters + span totals, JSON-safe) rides back on the record and is
    folded into the journal's ``shard_done`` event by the master.
    """
    spec = RunSpec.from_dict(payload["spec"])
    seed_start = int(payload["seed_start"])
    seed_count = int(payload["seed_count"])
    timeout_s = payload.get("timeout_s")
    telemetry = obsmod.Telemetry() if payload.get("telemetry") else None
    runner = Runner(
        jobs=1,
        cache_dir=payload["cache_dir"],
        cache_format=payload["cache_format"],
        telemetry=telemetry,
    )

    timer_armed = False
    if timeout_s is not None and hasattr(signal, "SIGALRM"):

        def _on_alarm(signum, frame):
            raise ShardTimeout(
                f"shard {payload['key']} exceeded its {timeout_s}s budget"
            )

        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
        timer_armed = True
    started = time.perf_counter()
    scope = obsmod.use(telemetry) if telemetry is not None else contextlib.nullcontext()
    try:
        with scope, obsmod.active().span(
            "campaign.shard",
            shard=payload["key"],
            seed_start=seed_start,
            seed_count=seed_count,
        ):
            result = None
            source = "computed"
            cache_path = runner.window_cache_path(spec, seed_start, seed_count)
            if cache_path is not None and cache_path.exists():
                try:
                    result = RunResult.load(cache_path)
                    source = "cache"
                except _CACHE_READ_ERRORS:
                    result = None  # torn/corrupt entry: recompute below
            if result is None:
                result = runner.run_window(spec, seed_start, seed_count)
    finally:
        if timer_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    resolution = float(payload["sketch_resolution"])
    states = {}
    for name, values in result.series.items():
        summary = StreamingSummary(resolution=resolution)
        summary.add(values)
        states[name] = summary.state()
    n_accepted = result.notes.get("n_accepted")
    if n_accepted is None:  # pre-window cache entries never reach here
        n_accepted = min((len(v) for v in result.series.values()), default=0)
    record = {
        "shard": payload["key"],
        "index": int(payload["index"]),
        "source": source,
        "n_accepted": int(n_accepted),
        "states": states,
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
    if telemetry is not None:
        record["telemetry"] = {
            "counters": dict(telemetry.counters),
            "span_totals": telemetry.span_totals(),
        }
    return record


@dataclass
class CampaignRunner:
    """Executes :class:`CampaignSpec`\\ s out of a campaign directory.

    Parameters
    ----------
    campaign_dir:
        Holds the manifest, journal, shard cache (``cache/`` unless
        ``cache_dir`` overrides it), and the final ``result.json``.  One
        directory per campaign; resuming requires the same spec.
    jobs:
        Concurrent shard workers; ``1`` (default) executes shards
        in-process, in canonical order.
    cache_dir:
        Shard cache directory; defaults to ``<campaign_dir>/cache``.
        Point several campaigns at one directory to share shard results.
    cache_format:
        Shard cache encoding (``"npz"`` default: binary series).
    retries:
        Extra attempts per shard after its first failure/timeout.
    timeout_s:
        Optional per-shard wall-clock budget, enforced in the worker via
        ``SIGALRM`` (POSIX; ignored where unavailable).  A timed-out
        attempt counts against ``retries``.
    progress:
        Emit progress/ETA lines to stderr as shards complete.
    telemetry:
        An optional :class:`repro.obs.Telemetry` installed around the
        campaign.  The master records ``campaign.shards.*`` counters and a
        ``campaign.run`` span; each worker additionally runs its shard
        under a per-shard ``campaign.shard`` span whose compact summary is
        folded into the journal's ``shard_done`` record and merged into
        the master's counters.  Pure observation -- shard results and
        aggregates are byte-identical with telemetry on or off.
    """

    campaign_dir: str | Path
    jobs: int = 1
    cache_dir: str | Path | None = None
    cache_format: str = "npz"
    retries: int = 2
    timeout_s: float | None = None
    progress: bool = True
    telemetry: obsmod.Telemetry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("CampaignRunner.jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("CampaignRunner.retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("CampaignRunner.timeout_s must be positive")
        if self.telemetry is not None and not isinstance(
            self.telemetry, obsmod.Telemetry
        ):
            raise TypeError(
                "CampaignRunner.telemetry must be a repro.obs.Telemetry or "
                f"None, got {type(self.telemetry).__name__}"
            )
        self.campaign_dir = Path(self.campaign_dir)
        if self.cache_dir is None:
            self.cache_dir = self.campaign_dir / "cache"

    # ------------------------------------------------------------------
    def run(self, campaign: CampaignSpec, resume: bool = False) -> CampaignResult:
        """Execute (or resume) ``campaign``; returns the folded aggregates."""
        scope = (
            obsmod.use(self.telemetry)
            if self.telemetry is not None
            else contextlib.nullcontext()
        )
        with scope:
            with obsmod.active().span(
                "campaign.run",
                campaign=campaign.campaign_hash()[:16],
                jobs=self.jobs,
            ):
                return self._run(campaign, resume)

    def _run(self, campaign: CampaignSpec, resume: bool) -> CampaignResult:
        manifest_path = self.campaign_dir / MANIFEST_NAME
        journal = CampaignJournal(self.campaign_dir / JOURNAL_NAME)
        plan = campaign.shards()

        completed: dict[str, dict] = {}
        if manifest_path.exists():
            manifest = read_manifest(manifest_path)
            if manifest.get("campaign_hash") != campaign.campaign_hash():
                raise CampaignError(
                    f"campaign directory {self.campaign_dir} belongs to a "
                    f"different campaign (manifest hash "
                    f"{manifest.get('campaign_hash', '?')[:16]}...); use a "
                    f"fresh directory"
                )
            if not resume:
                raise CampaignError(
                    f"campaign directory {self.campaign_dir} already has a "
                    f"manifest; pass resume=True (CLI: --resume) to continue "
                    f"it, or use a fresh directory"
                )
            if manifest.get("version") != _PACKAGE_VERSION:
                raise CampaignError(
                    f"campaign in {self.campaign_dir} was started under repro "
                    f"{manifest.get('version', '?')}; this is "
                    f"{_PACKAGE_VERSION}.  Finish it with the original "
                    f"version or start a fresh directory (shard caches do "
                    f"not carry across versions)"
                )
            completed = journal.completed_shards()
        else:
            if resume:
                warnings.warn(
                    f"nothing to resume in {self.campaign_dir}; starting fresh",
                    RuntimeWarning,
                    stacklevel=2,
                )
            write_manifest(
                manifest_path,
                {
                    "campaign": campaign.to_dict(),
                    "campaign_hash": campaign.campaign_hash(),
                    "version": _PACKAGE_VERSION,
                    "n_cells": campaign.n_cells,
                    "n_shards": len(plan),
                    "shards": [
                        {
                            "key": s.key,
                            "cell_index": s.cell_index,
                            "seed_start": s.seed_start,
                            "seed_count": s.seed_count,
                        }
                        for s in plan
                    ],
                },
            )
            journal.append(
                {
                    "event": "campaign_start",
                    "campaign_hash": campaign.campaign_hash(),
                    "n_shards": len(plan),
                    "version": _PACKAGE_VERSION,
                }
            )

        # Drop journal entries for shards the plan no longer contains
        # (defensive; cannot happen while hashes match).
        plan_keys = {s.key for s in plan}
        completed = {k: v for k, v in completed.items() if k in plan_keys}

        # One execution per distinct key: cells sharing (spec, window) --
        # e.g. an n_topologies axis nesting one range inside another --
        # share the shard's single result.
        todo: list[ShardPlan] = []
        seen: set[str] = set()
        for shard in plan:
            if shard.key in completed or shard.key in seen:
                continue
            seen.add(shard.key)
            todo.append(shard)

        self._progress_state = {
            "started": time.perf_counter(),
            "total_units": sum(s.seed_count for s in plan),
            "done_units": sum(
                s.seed_count for s in plan if s.key in completed
            ),
            "session_units": 0,
            "done_shards": len({s.key for s in plan if s.key in completed}),
            "total_shards": len({s.key for s in plan}),
        }
        if self.progress and completed:
            self._emit(
                f"resuming: {len(completed)}/{len({s.key for s in plan})} "
                f"shards already complete"
            )

        records = dict(completed)
        if todo:
            if self.jobs == 1:
                self._run_inline(campaign, todo, records, journal)
            else:
                self._run_pool(campaign, todo, records, journal)

        merge_started = time.perf_counter()
        result = self._fold(campaign, plan, records)
        merge_elapsed_s = time.perf_counter() - merge_started
        notes = dict(result.notes)
        notes.update(
            n_shards=len({s.key for s in plan}),
            n_resumed=len(completed),
            n_from_cache=sum(
                1 for r in records.values() if r.get("source") == "cache"
            ),
            jobs=self.jobs,
            version=_PACKAGE_VERSION,
        )
        result = CampaignResult(
            campaign=result.campaign, cells=result.cells, notes=notes
        )
        if not journal.campaign_completed():
            journal.append(
                {
                    "event": "campaign_done",
                    "campaign_hash": campaign.campaign_hash(),
                    "n_shards": len({s.key for s in plan}),
                }
            )
        result.save(self.campaign_dir / _RESULT_NAME)
        self._write_metrics(journal, plan, records, merge_elapsed_s)
        return result

    def _write_metrics(
        self, journal, plan, records, merge_elapsed_s: float
    ) -> None:
        """Write ``metrics.json`` next to the manifest (atomically).

        Always written -- campaign operational metrics are cheap and do not
        require a :class:`~repro.obs.Telemetry`.  Retry/timeout counts are
        derived from the full journal history, so a resumed campaign
        reports totals across every session that touched the directory.
        """
        retried = 0
        timed_out = 0
        for event in journal.events():
            if event.get("event") == "shard_retry":
                retried += 1
                if "ShardTimeout" in str(event.get("error", "")):
                    timed_out += 1
        elapsed = [float(r.get("elapsed_s", 0.0)) for r in records.values()]
        total_s = sum(elapsed)
        metrics = {
            "n_shards": len({s.key for s in plan}),
            "shards_run": len(records),
            "shards_from_cache": sum(
                1 for r in records.values() if r.get("source") == "cache"
            ),
            "shards_retried": retried,
            "shards_timed_out": timed_out,
            "shard_wall_clock_s": {
                "total": round(total_s, 6),
                "mean": round(total_s / len(elapsed), 6) if elapsed else 0.0,
            },
            "aggregate_merge_s": round(merge_elapsed_s, 6),
            "version": _PACKAGE_VERSION,
        }
        write_manifest(self.campaign_dir / METRICS_NAME, metrics)

    # ------------------------------------------------------------------
    def _payload(self, shard: ShardPlan, campaign: CampaignSpec) -> dict:
        """The pickled description of ``shard`` that :func:`_shard_worker`
        runs (identical on every retry)."""
        return {
            "key": shard.key,
            "index": shard.index,
            "spec": shard.spec.to_dict(),
            "seed_start": shard.seed_start,
            "seed_count": shard.seed_count,
            "cache_dir": str(self.cache_dir),
            "cache_format": self.cache_format,
            "timeout_s": self.timeout_s,
            "telemetry": self.telemetry is not None,
            "sketch_resolution": campaign.sketch_resolution,
        }

    def _shard_failed(self, shard: ShardPlan, attempt: int, exc, journal) -> None:
        """Count and journal failed ``attempt`` of ``shard``; raise
        :class:`CampaignError` once the shard has used up its retries."""
        telemetry = obsmod.active()
        telemetry.count("campaign.shards.retried")
        if isinstance(exc, ShardTimeout):
            telemetry.count("campaign.shards.timeouts")
        journal.append(
            {
                "event": "shard_retry",
                "shard": shard.key,
                "attempt": attempt,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        if attempt > self.retries:
            raise CampaignError(
                f"shard {shard.key} failed after {attempt} attempt(s): {exc}"
            ) from exc

    def _run_inline(self, campaign, todo, records, journal) -> None:
        for shard in todo:
            payload = self._payload(shard, campaign)
            attempts = 0
            while True:
                try:
                    record = _shard_worker(payload)
                    break
                except Exception as exc:  # noqa: BLE001 -- retried, then raised
                    attempts += 1
                    self._shard_failed(shard, attempts, exc, journal)
            self._complete(shard, record, records, journal)

    def _run_pool(self, campaign, todo, records, journal) -> None:
        payloads = {shard.key: self._payload(shard, campaign) for shard in todo}
        attempts: dict[str, int] = defaultdict(int)
        pool_restarts = 0
        pending = list(todo)
        while pending:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            active = {
                executor.submit(_shard_worker, payloads[s.key]): s for s in pending
            }
            pending = []
            current = None
            try:
                while active:
                    done, _ = wait(active, return_when=FIRST_COMPLETED)
                    for future in done:
                        current = shard = active.pop(future)
                        try:
                            record = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:  # noqa: BLE001 -- retried, then raised
                            attempts[shard.key] += 1
                            self._shard_failed(shard, attempts[shard.key], exc, journal)
                            active[
                                executor.submit(_shard_worker, payloads[shard.key])
                            ] = shard
                            continue
                        self._complete(shard, record, records, journal)
                executor.shutdown()
            except BrokenProcessPool as exc:
                # A worker died hard (OOM, external kill).  The pool is
                # unusable; unfinished shards are resubmitted on a fresh
                # one.  Shard results are cached atomically, so any work a
                # dying worker completed is picked up from cache, not
                # redone.
                pool_restarts += 1
                journal.append(
                    {
                        "event": "pool_restart",
                        "restart": pool_restarts,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                if pool_restarts > max(1, self.retries):
                    raise CampaignError(
                        f"worker pool broke {pool_restarts} time(s); giving up"
                    ) from exc
                pending = list(active.values())
                if current is not None and current.key not in records:
                    pending.append(current)
                executor.shutdown(wait=False, cancel_futures=True)

    def _complete(self, shard: ShardPlan, record: dict, records, journal) -> None:
        records[shard.key] = record
        telemetry = obsmod.active()
        telemetry.count("campaign.shards.completed")
        if record["source"] == "cache":
            telemetry.count("campaign.shards.from_cache")
        # Workers trace under their own per-shard Telemetry (which shadows
        # the master's in inline mode), so merging their counters here is
        # additive, never double-counted.
        worker_summary = record.get("telemetry")
        if worker_summary:
            for name, value in worker_summary.get("counters", {}).items():
                if value:
                    telemetry.count(name, value)
        event = {
            "event": "shard_done",
            "shard": record["shard"],
            "index": record["index"],
            "source": record["source"],
            "n_accepted": record["n_accepted"],
            "elapsed_s": record["elapsed_s"],
            "states": record["states"],
        }
        if worker_summary:
            event["telemetry"] = worker_summary
        journal.append(event)
        state = self._progress_state
        state["done_shards"] += 1
        state["done_units"] += shard.seed_count
        state["session_units"] += shard.seed_count
        if self.progress:
            elapsed = time.perf_counter() - state["started"]
            remaining = state["total_units"] - state["done_units"]
            rate = state["session_units"] / elapsed if elapsed > 0 else 0.0
            eta = f"{remaining / rate:7.1f}s" if rate > 0 else "    ?  "
            pct = 100.0 * state["done_units"] / max(state["total_units"], 1)
            self._emit(
                f"shard {state['done_shards']:>4}/{state['total_shards']} "
                f"[{pct:5.1f}%] {shard.key} "
                f"({record['source']}, {record['n_accepted']} accepted, "
                f"{record['elapsed_s']:.2f}s) elapsed {elapsed:6.1f}s eta {eta}"
            )

    @staticmethod
    def _emit(message: str) -> None:
        print(f"[campaign] {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    def _fold(self, campaign, plan, records) -> CampaignResult:
        """Fold shard accumulator states into per-cell aggregates.

        Always in canonical plan order.  The accumulators merge exactly
        (integer counts, Shewchuk sums), so this is belt and braces: even
        a non-canonical order would report identical aggregates.
        """
        cells = campaign.cells()
        by_cell: dict[int, list] = defaultdict(list)
        for shard in plan:
            record = records.get(shard.key)
            if record is None:
                raise CampaignError(f"shard {shard.key} has no result to fold")
            by_cell[shard.cell_index].append((shard, record))
        aggregates: list[CellAggregate] = []
        for cell in cells:
            shard_records = by_cell.get(cell.index, [])
            series: dict[str, StreamingSummary] = {}
            n_accepted = 0
            for _shard, record in shard_records:
                n_accepted += int(record["n_accepted"])
                # Sorted so series order is identical whether a record came
                # from this process or from the journal (sort_keys on write).
                for name, state in sorted(record["states"].items()):
                    summary = StreamingSummary.from_state(state)
                    if name in series:
                        series[name].merge(summary)
                    else:
                        series[name] = summary
            aggregates.append(
                CellAggregate(
                    coords=cell.coords,
                    n_attempted=cell.n_topologies,
                    n_accepted=n_accepted,
                    series=series,
                )
            )
        return CampaignResult(campaign=campaign, cells=aggregates, notes={})
