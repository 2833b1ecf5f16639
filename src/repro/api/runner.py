"""The session runner: executes a :class:`RunSpec` into a :class:`RunResult`.

The runner owns everything the declarative spec deliberately leaves out:

* **backend** -- every sweep evaluates through the experiment's one
  ``build_batch`` hook, which evaluates a whole seed chunk as stacked
  arrays (batched channel synthesis + broadcasting linalg precoders).
  ``"vectorized"`` (default) computes on the default NumPy/float64
  namespace; ``"array_api"`` runs the same path under an explicit
  :mod:`repro.xp` namespace (``namespace``/``device``/``dtype``), which is
  how the same code runs on torch/CUDA.  An item's result never depends
  on the chunk it was computed in, so every ``batch_size``/``jobs``
  choice, and ``"array_api"`` on the default namespace, is
  **bit-identical**; other namespace configurations meet documented
  tolerance contracts instead (see ``docs/api.md``);
* **rejection sampling** -- a sweep gates first and evaluates once.  An
  experiment's optional ``accept_batch`` hook judges derived-seed chunks
  (placement constraints, overhearing rules); the runner keeps drawing
  until the requested count of seeds is accepted (with the classic
  generous attempt cap), then calls ``build_batch`` on the accepted seeds
  only.  An experiment without the gate accepts every seed;
* **parallelism** -- each round's seeds, in either phase, are split into
  contiguous chunks, one per worker, and fanned out over a
  ``ProcessPoolExecutor`` when ``jobs > 1`` (workers activate the
  runner's namespace); verdicts and outcome columns are kept in stream
  order, so ``jobs=1`` and ``jobs=N`` produce bit-identical series for a
  fixed seed;
* **caching** -- with a ``cache_dir``, results are persisted as JSON keyed
  by a hash of the fully resolved parameters plus the package version, and
  reloaded on a hit (``batch_size``, ``jobs`` and the backend on the exact
  default namespace are deliberately *not* part of the key: results are
  bit-equal; the version *is*, because algorithm changes between releases
  must invalidate stale entries).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import warnings
import zipfile
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .. import __version__ as _PACKAGE_VERSION
from .. import obs as obsmod
from .. import rng as rng_mod
from .. import xp as xpmod
from .experiments import ExperimentDef, get_experiment_def
from .registry import ASSOCIATION, COORDINATION, ENVIRONMENTS, MOBILITY, PRECODERS, TRAFFIC
from .result import RunResult
from .spec import RunSpec, normalize_params


def resolve_params(defn: ExperimentDef, spec: RunSpec) -> dict:
    """Merge a spec over an experiment's declared defaults.

    Spec-level overrides (``environment``, ``precoder``) and every key in
    ``spec.params`` must be parameters the experiment declares; anything
    else raises with the allowed names so typos fail loudly.
    """
    allowed = set(defn.defaults)
    params = dict(defn.defaults)
    params["seed"] = spec.seed
    if spec.n_topologies is not None:
        params["n_topologies"] = spec.n_topologies
    if spec.environment is not None:
        if "environment" not in allowed:
            raise ValueError(
                f"experiment {defn.name!r} does not take an environment override"
            )
        ENVIRONMENTS.get(spec.environment)  # fail early, listing registered names
        params["environment"] = spec.environment
    if spec.precoder is not None:
        if "precoder" not in allowed:
            raise ValueError(
                f"experiment {defn.name!r} does not take a precoder override; "
                f"experiments with a 'precoder' parameter do"
            )
        PRECODERS.get(spec.precoder)  # fail early, listing registered names
        params["precoder"] = spec.precoder
    def axis_override(field: str, registry, universal: str, populate) -> None:
        """Shared validation for model axes with a universal no-op default
        (traffic's full_buffer, mobility's static): fail early on unknown
        names, fold into params only for experiments declaring the axis."""
        value = getattr(spec, field)
        if value is None:
            return
        populate()  # import the built-in models so the registry is loaded
        registry.get(value)  # fail early, listing registered names
        if field in allowed:
            params[field] = value
        elif value != universal:
            raise ValueError(
                f"experiment {defn.name!r} does not take a {field} override; "
                f"experiments with a {field!r} parameter do ({universal!r} is "
                f"accepted everywhere because it is the universal default)"
            )

    def _load_traffic():
        from ..traffic import models  # noqa: F401

    def _load_mobility():
        from ..mobility import models  # noqa: F401

    def _load_association():
        from .. import assoc  # noqa: F401

    axis_override("traffic", TRAFFIC, "full_buffer", _load_traffic)
    axis_override("mobility", MOBILITY, "static", _load_mobility)
    axis_override("association", ASSOCIATION, "nearest_anchor", _load_association)
    axis_override("coordination", COORDINATION, "independent", _load_association)
    unknown = set(spec.params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for experiment "
            f"{defn.name!r}; allowed: {sorted(allowed)}"
        )
    params.update(spec.params)
    return params


def _run_hook(
    experiment: str,
    hook: str,
    seeds: list[int],
    params: dict,
    xp_config: tuple[str, str, str],
):
    """Worker entry point: one seed chunk through the experiment's ``hook``
    (``"accept_batch"`` or ``"build_batch"``).

    Runs under the runner's :mod:`repro.xp` namespace, given as its
    ``(namespace, device, dtype)`` config.  Module-level (picklable), and
    :func:`get_experiment_def` loads the built-in experiments, so it works
    under both ``fork`` and ``spawn`` start methods.
    """
    defn = get_experiment_def(experiment)
    with xpmod.use(xpmod.get_namespace(*xp_config)):
        return getattr(defn, hook)(seeds, params)


#: Seeds per ``accept_batch`` / ``build_batch`` call when ``batch_size``
#: is unset.  Large enough that a typical sweep builds one stacked batch.
_VECTORIZED_BATCH_CAP = 1024

_BACKENDS = ("vectorized", "array_api")

_CACHE_FORMATS = ("json", "npz")

#: Everything a cache entry can legitimately throw when the file on disk is
#: truncated, torn, or otherwise unreadable.  ``Runner`` treats these as a
#: cache miss (recompute and rewrite) rather than crashing forever on the
#: same poisoned entry.
_CACHE_READ_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    ValueError,  # includes json.JSONDecodeError and format-version errors
    zipfile.BadZipFile,
)


def _checked_columns(
    experiment: str, columns: Any, n_seeds: int, first: dict | None
) -> dict[str, np.ndarray]:
    """One ``build_batch`` chunk as arrays, after checking its shape: a
    mapping of ``(n_seeds, ...)`` columns with the same names as the
    ``first`` chunk's (``None`` for the first chunk itself)."""
    if not isinstance(columns, Mapping):
        raise ValueError(
            f"experiment {experiment!r}: build_batch must return a mapping of "
            f"named (batch, ...) columns, got {type(columns).__name__}"
        )
    if first is not None and set(columns) != set(first):
        raise ValueError(
            f"experiment {experiment!r}: build_batch chunks disagree on column "
            f"names: {sorted(columns)} vs {sorted(first)}"
        )
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    for name, column in arrays.items():
        if column.shape[:1] != (n_seeds,):
            raise ValueError(
                f"experiment {experiment!r}: build_batch column {name!r} has "
                f"shape {column.shape}; its leading axis must be one row per "
                f"seed ({n_seeds})"
            )
    return arrays


@dataclass
class Runner:
    """Executes :class:`RunSpec`\\ s; one instance can serve many specs.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process.  With
        ``jobs > 1`` each round's seeds are split into one contiguous
        chunk per worker, evaluated over a ``ProcessPoolExecutor``.
    cache_dir:
        Directory for on-disk result caching keyed by spec hash, or
        ``None`` (default) to disable caching.
    batch_size:
        Upper bound on topology seeds per ``accept_batch`` and
        ``build_batch`` call; defaults to 1024.  A round schedules at most
        ``jobs * batch_size`` seeds; ``batch_size=1`` is the
        one-seed-per-call reference.  Affects scheduling only, never
        results.
    backend:
        ``"vectorized"`` (default) or ``"array_api"``.  Both hand
        contiguous seed chunks to the experiment's ``build_batch`` hook,
        which evaluates them as stacked arrays; ``"array_api"`` does so
        under the namespace selected by ``namespace``/``device``/
        ``dtype``.  Results are bit-identical across ``vectorized``,
        ``array_api``-on-NumPy-float64 and every ``jobs``/``batch_size``;
        other configurations (torch, float32) meet the documented
        tolerance contracts.
    namespace / device / dtype:
        The :mod:`repro.xp` configuration of the ``"array_api"`` backend
        (``"vectorized"`` always computes on the default NumPy/float64
        namespace).  ``namespace`` is ``"numpy"``
        (always available) or ``"torch"`` (optional dependency; a missing
        install raises :class:`repro.xp.BackendUnavailableError` naming
        the extra).  ``device`` is ``"cpu"`` or a torch device string like
        ``"cuda"``; ``dtype`` is ``"float64"`` or ``"float32"``.
    cache_format:
        On-disk cache encoding: ``"json"`` (default, human-readable) or
        ``"npz"`` (binary series; what campaign shards use).  Both
        round-trip losslessly; the format is not part of the cache key
        beyond the file suffix.
    telemetry:
        An optional :class:`repro.obs.Telemetry` installed (via
        :func:`repro.obs.use`) around every :meth:`run` /
        :meth:`run_window` call, collecting spans and counters from the
        engines and the runner itself.  ``None`` (default) keeps the
        null-object fast path.  Telemetry is pure observation: it never
        enters cache keys, never changes control flow, and engine outputs
        are byte-identical with it on or off.  Results carry a
        :class:`repro.obs.TelemetrySummary` snapshot in
        ``RunResult.telemetry`` when set.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    batch_size: int | None = None
    backend: str = "vectorized"
    namespace: str = "numpy"
    device: str = "cpu"
    dtype: str = "float64"
    cache_format: str = "json"
    # Observation only: excluded from repr/compare and (deliberately) from
    # _cache_path -- a traced run and an untraced run share cache entries.
    telemetry: obsmod.Telemetry | None = field(
        default=None, repr=False, compare=False
    )
    # A pool installed by run_many() so consecutive specs share workers
    # instead of paying pool startup per spec; never part of identity.
    _shared_pool: ProcessPoolExecutor | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("Runner.jobs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("Runner.batch_size must be >= 1")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"Runner.backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.cache_format not in _CACHE_FORMATS:
            raise ValueError(
                f"Runner.cache_format must be one of {_CACHE_FORMATS}, "
                f"got {self.cache_format!r}"
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, obsmod.Telemetry
        ):
            raise TypeError(
                "Runner.telemetry must be a repro.obs.Telemetry or None, "
                f"got {type(self.telemetry).__name__}"
            )
        xp_config = (self.namespace, self.device, self.dtype)
        if self.backend != "array_api" and xp_config != ("numpy", "cpu", "float64"):
            raise ValueError(
                f"namespace/device/dtype select the array-API namespace and "
                f"require backend='array_api'; backend={self.backend!r} always "
                f"computes on the default NumPy/float64 namespace"
            )
        # Resolve eagerly so a missing optional dependency (torch) or a bad
        # device/dtype fails at construction with a clean error, not
        # mid-sweep.
        self._resolve_namespace()

    def _resolve_namespace(self):
        """The :class:`repro.xp.ArrayNamespace` this runner computes on.

        Raises :class:`repro.xp.BackendUnavailableError` (naming the extra
        to install) when the namespace's optional dependency is missing.
        """
        return xpmod.get_namespace(self.namespace, self.device, self.dtype)

    def _obs_scope(self):
        """Context installing this runner's telemetry (no-op when unset)."""
        if self.telemetry is None:
            return contextlib.nullcontext()
        return obsmod.use(self.telemetry)

    def _attach_summary(self, result: RunResult) -> RunResult:
        """Snapshot the telemetry onto ``result`` (in memory only).

        ``RunResult.telemetry`` is never serialized, so cached entries stay
        byte-identical whether a run was traced or not.
        """
        if self.telemetry is not None:
            object.__setattr__(result, "telemetry", self.telemetry.summary())
        return result

    def run(self, spec: RunSpec) -> RunResult:
        """Execute ``spec`` (or load it from cache) into a :class:`RunResult`."""
        with self._obs_scope():
            with obsmod.active().span(
                "runner.run", experiment=spec.experiment, backend=self.backend
            ):
                result = self._execute(spec)
        return self._attach_summary(result)

    def _resolve(
        self, spec: RunSpec, window: tuple[int, int] | None
    ) -> tuple[ExperimentDef, dict]:
        """The spec's experiment and resolved parameters; a seed window
        replaces ``n_topologies`` with its length."""
        defn = get_experiment_def(spec.experiment)
        params = resolve_params(defn, spec)
        if window is not None:
            params["n_topologies"] = window[1]
        return defn, params

    def _execute(
        self, spec: RunSpec, window: tuple[int, int] | None = None
    ) -> RunResult:
        defn, params = self._resolve(spec, window)

        cache_path = self._cache_path(spec, params, window=window)
        cached = self._load_cache(cache_path)
        if cached is not None:
            obsmod.active().count("runner.cache.hits")
            return cached
        if cache_path is not None:
            obsmod.active().count("runner.cache.misses")

        accepted, columns = self._sweep(defn, params, window=window)
        base = defn.finalize(columns, params)
        result = RunResult.from_experiment_result(base, spec)
        if window is not None:
            notes = dict(
                result.notes, seed_window=list(window), n_accepted=len(accepted)
            )
            result = replace(result, notes=notes)

        if cache_path is not None:
            result.save(cache_path)
        return result

    def run_window(self, spec: RunSpec, seed_start: int, seed_count: int) -> RunResult:
        """Execute ``spec`` over a fixed window of the derived-seed stream.

        Evaluates exactly the topology-seed indices
        ``seed_start .. seed_start + seed_count - 1`` of ``spec.seed``'s
        derived stream -- the same seeds :meth:`run` would walk -- and
        builds whatever passes the experiment's ``accept_batch`` gate (no
        rejection top-up: the window *is* the work unit, so a partition of
        windows always covers each seed index exactly once).  This is the
        shard primitive of :mod:`repro.campaign`: disjoint windows of one
        spec are independently computable, independently cacheable (the
        window is folded into the cache key; keys without a window are
        unchanged), and their union reproduces a monolithic sweep.

        ``spec.n_topologies`` is ignored; the window defines the work.
        The result's ``notes`` record the window and the accepted count.
        """
        if seed_start < 0:
            raise ValueError("seed_start must be >= 0")
        if seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        with self._obs_scope():
            with obsmod.active().span(
                "runner.run",
                experiment=spec.experiment,
                backend=self.backend,
                seed_start=int(seed_start),
                seed_count=int(seed_count),
            ):
                result = self._execute(spec, (int(seed_start), int(seed_count)))
        return self._attach_summary(result)

    def run_many(self, specs) -> list[RunResult]:
        """Execute several specs in order, sharing one worker pool.

        With ``jobs > 1`` a single ``ProcessPoolExecutor`` serves every
        spec in the list (instead of paying pool startup/teardown per
        spec); scheduling only -- results stay bit-identical to running
        each spec on its own.
        """
        specs = list(specs)
        if self.jobs > 1 and len(specs) > 1 and self._shared_pool is None:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                self._shared_pool = pool
                try:
                    return [self.run(spec) for spec in specs]
                finally:
                    self._shared_pool = None
        return [self.run(spec) for spec in specs]

    # ------------------------------------------------------------------
    def window_cache_path(
        self, spec: RunSpec, seed_start: int, seed_count: int
    ) -> Path | None:
        """Cache file a :meth:`run_window` call would use (or ``None``)."""
        window = (int(seed_start), int(seed_count))
        __, params = self._resolve(spec, window)
        return self._cache_path(spec, params, window=window)

    def _cache_path(
        self,
        spec: RunSpec,
        params: dict,
        window: tuple[int, int] | None = None,
    ) -> Path | None:
        """Cache file keyed by the *resolved* parameters.

        Hashing the resolved params (experiment defaults merged in) rather
        than the raw spec means a spec relying on a default and a spec
        stating it explicitly share one entry, and editing an experiment's
        registered defaults invalidates stale cached results.  The package
        version is folded in so entries do not survive algorithm changes
        across releases.  Seed-window runs additionally fold the window
        into the key (full runs keep their historical keys verbatim);
        because the resolved ``n_topologies`` of a window run is the
        window length, shard entries are shared by every campaign that
        covers the same (spec, window) -- regardless of campaign totals.
        """
        if self.cache_dir is None:
            return None
        body = {
            "experiment": spec.experiment,
            "params": normalize_params(params),
            "version": _PACKAGE_VERSION,
        }
        if window is not None:
            body["seed_window"] = [int(window[0]), int(window[1])]
        namespace = self._resolve_namespace()
        if not namespace.is_exact:
            # Non-bit-exact configurations (torch, float32) get their own
            # cache entries; the exact NumPy/float64 namespace keeps sharing
            # entries with the vectorized backend, because their results
            # are array_equal by construction.
            body["xp"] = namespace.config_dict()
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        suffix = "npz" if self.cache_format == "npz" else "json"
        return Path(self.cache_dir) / f"{spec.experiment}-{digest}.{suffix}"

    @staticmethod
    def _load_cache(cache_path: Path | None) -> RunResult | None:
        """Load a cache entry, treating unreadable/corrupt files as a miss."""
        if cache_path is None or not cache_path.exists():
            return None
        try:
            return RunResult.load(cache_path)
        except _CACHE_READ_ERRORS as exc:
            obsmod.active().count("runner.cache.recomputes")
            warnings.warn(
                f"cache entry {cache_path} is unreadable "
                f"({type(exc).__name__}: {exc}); recomputing",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _sweep(
        self,
        defn: ExperimentDef,
        params: dict,
        window: tuple[int, int] | None = None,
    ) -> tuple[list[int], dict[str, np.ndarray]]:
        """The accepted seeds and their outcome columns, in derived-seed-stream
        order.

        Two phases.  The *gate* draws seed chunks from the derived stream
        and keeps the seeds ``defn.accept_batch`` accepts; the *build* then
        evaluates exactly those seeds through ``build_batch``, in chunks of
        at most ``jobs * batch_size``, and concatenates the chunks' columns
        name by name.  With ``window=(start, count)`` the gate judges
        exactly the seed-stream indices ``start .. start+count-1`` -- no
        rejection top-up, no attempt cap -- and the build evaluates
        whatever those indices accept (the campaign shard contract).
        Without a window the gate keeps drawing until
        ``params["n_topologies"]`` seeds are accepted.  A window that
        accepts no seed builds nothing: every name of its columns reads as
        an empty float series.
        """
        n = int(params["n_topologies"])
        if n < 1:
            raise ValueError("need at least one topology")
        telemetry = obsmod.active()
        with contextlib.ExitStack() as stack:
            pool = self._shared_pool
            if self.jobs > 1 and pool is None:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=self.jobs))
            with telemetry.span("runner.gate", experiment=defn.name):
                accepted = self._gate(defn, params, window, pool)
            telemetry.count("api.sweep.accepted", len(accepted))
            with telemetry.span("runner.build", experiment=defn.name):
                step = self.jobs * (self.batch_size or _VECTORIZED_BATCH_CAP)
                built: list[dict[str, np.ndarray]] = []
                for start in range(0, len(accepted), step):
                    seeds = accepted[start : start + step]
                    for chunk, columns in self._fan_out(
                        pool, defn, "build_batch", seeds, params
                    ):
                        first = built[0] if built else None
                        built.append(
                            _checked_columns(defn.name, columns, len(chunk), first)
                        )
        if not built:
            # No seed accepted: every name reads as an empty float series.
            return accepted, defaultdict(lambda: np.empty(0))
        return accepted, {
            name: np.concatenate([columns[name] for columns in built])
            for name in built[0]
        }

    def _fan_out(
        self,
        pool: ProcessPoolExecutor | None,
        defn: ExperimentDef,
        hook: str,
        seeds: list[int],
        params: dict,
    ) -> list[tuple[list[int], Any]]:
        """``hook`` over ``seeds``: in-process without a pool, else one
        contiguous chunk per worker; ``(chunk, result)`` pairs in seed
        order."""
        if pool is None:
            with xpmod.use(self._resolve_namespace()):
                return [(seeds, getattr(defn, hook)(seeds, params))]
        size = -(-len(seeds) // self.jobs)
        chunks = [seeds[i : i + size] for i in range(0, len(seeds), size)]
        results = pool.map(
            _run_hook,
            repeat(defn.name),
            repeat(hook),
            chunks,
            repeat(params),
            repeat((self.namespace, self.device, self.dtype)),
        )
        return list(zip(chunks, results))

    def _gate(
        self,
        defn: ExperimentDef,
        params: dict,
        window: tuple[int, int] | None,
        pool: ProcessPoolExecutor | None,
    ) -> list[int]:
        """The accepted topology seeds, in derived-seed-stream order.

        Without a window: the first ``params["n_topologies"]`` seeds of the
        stream that ``defn.accept_batch`` accepts (``RuntimeError`` when the
        attempt cap runs out first).  With one: every accepted seed of the
        window's indices.
        """
        n = int(params["n_topologies"])
        root_seed = int(params["seed"])
        stream_start = 0 if window is None else int(window[0])
        max_attempts = n if window is not None else max(200, 80 * n)
        chunk_cap = self.batch_size or _VECTORIZED_BATCH_CAP
        telemetry = obsmod.active()

        accepted: list[int] = []
        attempts = 0
        while attempts < max_attempts and (window is not None or len(accepted) < n):
            if window is not None:
                # The window is the work unit: gate every index in it,
                # chunked only to bound per-round memory.
                target = max_attempts - attempts
            else:
                # Aim for exactly what is still needed (padded to keep
                # every worker busy); the caps only bound a single round.
                target = max(n - len(accepted), self.jobs)
                if attempts:
                    # Rejection-heavy sweeps would otherwise shrink to
                    # deficit-sized (eventually single-seed) rounds.
                    # Overdraw by the observed acceptance rate instead: the
                    # derived-seed stream and each seed's verdict are
                    # deterministic and accepted seeds are kept in stream
                    # order up to n, so results are unchanged -- extra
                    # draws only cost gate work.
                    rate = max(len(accepted) / attempts, 1.0 / 64.0)
                    target = max(target, math.ceil((n - len(accepted)) / rate))
            count = min(target, self.jobs * chunk_cap, max_attempts - attempts)
            seeds = rng_mod.derived_seeds(root_seed, stream_start + attempts, count)
            attempts += count
            telemetry.count("api.sweep.seeds_drawn", count)
            if defn.accept_batch is None:
                accepted.extend(seeds)
                continue
            chunks = self._fan_out(pool, defn, "accept_batch", seeds, params)
            verdicts = np.asarray(
                [ok for __, chunk_verdicts in chunks for ok in chunk_verdicts],
                dtype=bool,
            )
            if verdicts.shape != (count,):
                raise ValueError(
                    f"experiment {defn.name!r}: accept_batch must return one "
                    f"bool per seed, got shape {verdicts.shape} for {count} seeds"
                )
            accepted.extend(seed for seed, ok in zip(seeds, verdicts.tolist()) if ok)
        if window is None:
            if len(accepted) < n:
                raise RuntimeError(
                    f"only {len(accepted)}/{n} topologies satisfied the "
                    f"placement constraints after {attempts} attempts"
                )
            del accepted[n:]
        return accepted
