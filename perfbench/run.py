#!/usr/bin/env python3
"""MIDAS reproduction benchmark: vectorized ``Runner`` workloads, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload loaded_cell --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

``--trace 0`` times untraced ``Runner.run`` calls and reports the end-to-end
metrics (``topologies_per_s``, ``setup_s``, ``peak_rss_mb``,
``success_rate``).  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the first traced run (see ``layers.py``),
after checking that traced and untraced series are identical and that every
exact count repeats in the second traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: Interpreter-side start of set-up: before numpy, repro or the registries load.
SETUP_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Extra fresh interpreters timed per run for ``setup_s``; the median over
#: them and this process is reported.
SETUP_PROBES = 2
#: Floor on timed repeats, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Telemetry buffer for one traced run; a run that overflows it fails.
TELEMETRY_EVENTS = 2_000_000


def _pin_blas_threads() -> None:
    """Cap every BLAS/OpenMP pool at ``nproc`` before numpy loads (the
    set-up probes inherit the cap through the environment)."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


_pin_blas_threads()
_bootstrap()

import numpy as np  # noqa: E402

import repro  # noqa: E402
from perfbench import gate, layers, machine  # noqa: E402
from perfbench.workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END = (
    ("topologies_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
class Ledger:
    """Attempted/failed ``Runner.run`` calls, plus every failed check (a
    failed run, or a trace check such as count repeatability)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str], what: str) -> bool:
        """Count one run; it failed if the gate found ``problems``."""
        self.attempted += 1
        if problems:
            self.fail_run(f"{what}: " + "; ".join(problems))
        return not problems

    def fail_run(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def note(self, message: str) -> None:
        """A failed check that is not a run of its own."""
        self.failures.append(message)


def make_spec(workload: Workload, seed: int, n_topologies: int) -> repro.RunSpec:
    return repro.RunSpec(workload.experiment, n_topologies=n_topologies, seed=seed)


def make_runner(telemetry=None) -> repro.Runner:
    return repro.Runner(backend="vectorized", jobs=1, telemetry=telemetry)


def checked_run(runner, spec, expected, ledger: Ledger, what: str, *, medians=False,
                sample=False):
    """One gated ``Runner.run``.

    Returns ``(series, wall seconds, region)`` -- ``region`` is the
    :class:`perfbench.machine.Region` that sampled the run with ``sample``,
    else ``None`` -- or ``None`` if the run raised or failed the gate.
    """
    region = machine.start() if sample else None
    start = time.perf_counter()
    try:
        result = runner.run(spec)
    except Exception:  # the benchmark boundary: count it, keep measuring
        ledger.record([traceback.format_exc(limit=3)], what)
        return None
    finally:
        if region is not None:
            region.stop()
    seconds = time.perf_counter() - start
    problems = gate.invariant_failures(result.series, spec.n_topologies, expected)
    if medians and not problems:
        problems = gate.median_failures(result.series, expected)
    if not ledger.record(problems, what):
        return None
    return result.series, seconds, region


def warm_up(workload: Workload, ledger: Ledger) -> dict:
    """Resolve the spec and run it once at the reference seed, gated against
    the recorded medians; returns the workload's reference record."""
    expected = gate.load_reference()[workload.name]
    spec = make_spec(workload, REFERENCE_SEED, workload.warmup_topologies)
    from repro.api.experiments import get_experiment_def
    from repro.api.runner import resolve_params

    resolve_params(get_experiment_def(spec.experiment), spec)
    checked_run(make_runner(), spec, expected, ledger, "warm-up", medians=True)
    return expected


def timed_setup(workload: Workload, ledger: Ledger) -> tuple[float, dict]:
    """This interpreter's set-up, machine-scaled: from :data:`SETUP_START`
    through the warm-up.  Returns ``(setup_s, reference record)``."""
    region = machine.start(t0=SETUP_START)
    try:
        expected = warm_up(workload, ledger)
    finally:
        region.stop()
    return region.scaled_s, expected


def same_series(a: dict, b: dict) -> bool:
    return sorted(a) == sorted(b) and all(np.array_equal(a[k], b[k]) for k in a)


def setup_samples(workload: Workload, ledger: Ledger) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            ledger.record([f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}"],
                          "setup probe")
            continue
        ledger.attempted += report["attempted"]
        for failure in report["failures"]:
            ledger.fail_run(f"setup probe {failure}")
        samples.append(report["setup_s"])
    return samples


def fits(start: float, last_s: float, seconds: float) -> bool:
    """Whether another repeat as long as the last one ends inside the window."""
    return time.perf_counter() - start + last_s <= seconds


def measure_end_to_end(workload: Workload, seed: int, seconds: float, ledger: Ledger):
    own_setup, expected = timed_setup(workload, ledger)
    setup = [own_setup, *setup_samples(workload, ledger)]
    spec = make_spec(workload, seed, workload.n_topologies)
    runner = make_runner()
    times, walls, probes, first = [], [], [], None
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or fits(start, walls[-1], seconds):
        outcome = checked_run(runner, spec, expected, ledger, f"repeat {len(times)}",
                              sample=True)
        if outcome is None:
            if len(ledger.failures) > 2 * MIN_REPEATS:
                break
            continue
        series, wall_s, region = outcome
        if first is None:
            first = series
        elif not same_series(first, series):
            ledger.fail_run(f"repeat {len(times)}: series differ from repeat 0")
        times.append(region.scaled_s)
        walls.append(wall_s)
        probes.append(region.probe_s)
    if not times:
        return None
    metrics = {
        # Machine-scaled (see perfbench/machine.py): the host's speed swings
        # ~1.7x with load the guest cannot see, for minutes at a time.
        "topologies_per_s": workload.n_topologies / statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - ledger.failed / max(1, ledger.attempted),
    }
    notes = {
        "error_rate": ledger.failed / max(1, ledger.attempted),
        "repeats": len(times),
        "wall_s_median": statistics.median(walls),
        "wall_s_min": min(walls),
        "probe_ms_median": 1e3 * statistics.median(probes),
        "probe_ms_max": 1e3 * max(probes),
        "blas_threads": machine.blas_threads(),
    }
    return metrics, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def exact_counts(tracer: layers.Tracer, counters: dict) -> dict:
    """Every count the repeatability check requires to match exactly."""
    counts = {}
    for name, (calls, items, *_rest) in tracer.stats.items():
        counts[f"{name}.calls"] = calls
        counts[f"{name}.items"] = items
    counts.update(tracer.sums)
    for name in ("rng.generators_spawned", "engine.rounds", "xp.to_device.calls",
                 "xp.to_device.bytes"):
        counts[name] = counters.get(name, 0)
    return counts


def traced_run(workload, spec, expected, ledger, what):
    tracer = layers.Tracer()
    telemetry = repro.obs.Telemetry(max_events=TELEMETRY_EVENTS)
    with layers.traced(tracer, workload.experiment, spec.n_topologies):
        outcome = checked_run(make_runner(telemetry), spec, expected, ledger, what)
    if outcome is None:
        return None
    if telemetry.dropped_events:
        ledger.note(
            f"{what}: telemetry dropped {telemetry.dropped_events} events; "
            f"raise TELEMETRY_EVENTS"
        )
    for name, (_c, _i, total_ns, self_ns) in tracer.stats.items():
        if self_ns > total_ns or self_ns < 0:
            ledger.note(f"{what}: {name} self time outside [0, total]")
    return outcome, tracer, telemetry.counters


def layer_metrics(tracer: layers.Tracer, counters: dict, overhead: float) -> dict:
    m: dict[str, float] = {}
    for name in layers.SPAN_LAYERS:
        m[f"{name}.calls"] = tracer.calls(name)
        if name in layers.ITEM_LAYERS:
            m[f"{name}.items"] = tracer.items(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    sums = tracer.sums
    pb_items = tracer.items("core.power_balanced")
    m["core.power_balanced.rounds_mean"] = (
        sums.get("core.power_balanced.rounds_sum", 0.0) / pb_items if pb_items else 0.0
    )
    m["core.power_balanced.unconverged"] = sums.get("core.power_balanced.unconverged", 0.0)
    wf_items = tracer.items("core.reverse_waterfill")
    m["core.reverse_waterfill.capped_frac"] = (
        sums.get("core.reverse_waterfill.capped_sum", 0.0) / wf_items if wf_items else 0.0
    )
    top_calls = tracer.calls("core.power_balanced") + tracer.calls("core.naive")
    top_items = pb_items + tracer.items("core.naive")
    m["core.items_per_call"] = top_items / top_calls if top_calls else 0.0
    drawn = sums.get("topology.seeds_drawn", 0.0)
    m["topology.seeds_drawn"] = drawn
    m["topology.acceptance"] = sums.get("topology.accepted", 0.0) / drawn if drawn else 0.0
    m["api.sweep.surplus"] = sums.get("topology.accepted", 0.0) - sums.get("api.requested", 0.0)
    rounds_ms = [ns / 1e6 for ns in tracer.round_ns]
    m["sim.round_ms.p50"] = float(np.percentile(rounds_ms, 50)) if rounds_ms else 0.0
    m["sim.round_ms.p90"] = float(np.percentile(rounds_ms, 90)) if rounds_ms else 0.0
    m["sim.engine_rounds"] = counters.get("engine.rounds", 0)
    for name in ("xp.to_device.calls", "xp.to_device.bytes", "rng.generators_spawned"):
        m[name] = counters.get(name, 0)
    runner_total = tracer.total_s("api.runner")
    m["trace.coverage"] = 1.0 - tracer.self_s("api.runner") / runner_total
    m["trace.overhead"] = overhead
    return m


def measure_layers(workload: Workload, seed: int, seconds: float, ledger: Ledger):
    expected = warm_up(workload, ledger)
    spec = make_spec(workload, seed, workload.n_topologies)
    runner = make_runner()
    ratios, probes, traces = [], [], []
    reference = None
    start = time.perf_counter()
    while len(traces) < 2 or fits(start, pair_s, seconds):
        pair_start = time.perf_counter()
        plain = checked_run(runner, spec, expected, ledger, f"untraced {len(ratios)}",
                            sample=True)
        traced = traced_run(workload, spec, expected, ledger, f"traced {len(traces)}")
        if plain is None or traced is None:
            if len(ledger.failures) > 2 * MIN_REPEATS:
                break
            continue
        (series, plain_s, region), ((traced_series, traced_s, _), tracer, counters) = (
            plain, traced)
        probes.append(region.probe_s)
        reference = series if reference is None else reference
        for name, other in (("untraced", series), ("traced", traced_series)):
            if not same_series(reference, other):
                ledger.fail_run(f"{name} series differ from the first untraced run")
        # The untraced wall includes its probe samples; leave them out.
        ratios.append(traced_s / (plain_s - sum(region.samples)))
        traces.append((tracer, counters))
        pair_s = time.perf_counter() - pair_start
    if len(traces) < 2:
        return None
    (tracer, counters), (again, again_counters) = traces[0], traces[1]
    first, second = exact_counts(tracer, counters), exact_counts(again, again_counters)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ledger.note(f"counts differ between traced runs: {diff}")
    metrics = layer_metrics(tracer, counters, statistics.median(ratios) - 1.0)
    metrics["machine.probe_ms"] = 1e3 * statistics.median(probes)
    metrics["machine.blas_threads"] = machine.blas_threads()
    trace_path = tracer.write_chrome_trace(
        OUT_DIR / f"{workload.name}-seed{seed}.trace.json", counters
    )
    return metrics, {"trace": str(trace_path.relative_to(ROOT)), "pairs": len(ratios)}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def per_layer_spec() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json, in report order."""
    spec = []
    for name in layers.SPAN_LAYERS:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        if name in layers.ITEM_LAYERS:
            spec.append({"name": f"{name}.items", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, unit, better in (
        ("core.power_balanced.rounds_mean", "rounds", "lower"),
        ("core.power_balanced.unconverged", "count", "lower"),
        ("core.reverse_waterfill.capped_frac", "ratio", "lower"),
        ("core.items_per_call", "items", "higher"),
        ("topology.seeds_drawn", "count", "lower"),
        ("topology.acceptance", "ratio", "higher"),
        ("api.sweep.surplus", "count", "lower"),
        ("sim.round_ms.p50", "ms", "lower"),
        ("sim.round_ms.p90", "ms", "lower"),
        ("sim.engine_rounds", "count", "lower"),
        ("xp.to_device.calls", "count", "lower"),
        ("xp.to_device.bytes", "bytes", "lower"),
        ("rng.generators_spawned", "count", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("machine.probe_ms", "ms", "lower"),
        ("machine.blas_threads", "count", "lower"),
    ):
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


def print_end_to_end(workload: str, metrics: dict, notes: dict) -> None:
    print(f"== {workload}: end to end (untraced)")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {metrics[name]:>14.6g} {unit}")
    print("  " + ", ".join(f"{k}={v:.6g}" for k, v in notes.items()))


def print_layers(workload: str, metrics: dict, notes: dict) -> None:
    runner_s = sum(metrics[f"{n}.self_s"] for n in layers.SPAN_LAYERS)
    print(f"== {workload}: per layer (traced run; share = self time / Runner.run)")
    print(f"  {'layer':<24}{'calls':>9}{'items':>10}{'self_s':>10}{'share':>8}")
    for name in layers.SPAN_LAYERS:
        items = metrics.get(f"{name}.items", "")
        self_s = metrics[f"{name}.self_s"]
        print(f"  {name:<24}{metrics[f'{name}.calls']:>9}{items:>10}"
              f"{self_s:>10.4f}{self_s / runner_s:>8.1%}")
    for entry in per_layer_spec():
        name = entry["name"]
        if name.rsplit(".", 1)[0] not in layers.SPAN_LAYERS:
            print(f"  {name:<36}{metrics[name]:>14.6g} {entry['unit']}")
    print("  " + ", ".join(f"{k}={v}" for k, v in notes.items()))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own interpreter (so peak
    RSS is per workload); prints the children's tables and one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
                return 1
            report = json.loads(lines[-1])
            merged["correct"] &= report["correct"]
            merged["attempted"] += report["attempted"]
            merged["failed"] += report["failed"]
            for metric, value in report["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def setup_probe(workload: Workload) -> int:
    """Child side of ``setup_s``: everything before the first timed run."""
    ledger = Ledger()
    setup_s, __ = timed_setup(workload, ledger)
    print(json.dumps({"setup_s": setup_s, "attempted": ledger.attempted,
                      "failures": ledger.failures}))
    return 0


def record_reference() -> int:
    """Rewrite ``reference.json`` from the warm-up run of every workload."""
    reference = {}
    for workload in WORKLOADS.values():
        spec = make_spec(workload, REFERENCE_SEED, workload.warmup_topologies)
        reference[workload.name] = gate.describe(make_runner().run(spec).series)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json (after a deliberate numerics change)")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload)
    ledger = Ledger()
    measure = measure_layers if args.trace else measure_end_to_end
    outcome = measure(workload, args.seed, args.seconds, ledger)
    for failure in ledger.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if outcome is None:
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1
    metrics, notes = outcome
    if args.trace:
        print_layers(workload.name, metrics, notes)
        units = {e["name"]: e["unit"] for e in per_layer_spec()}
    else:
        print_end_to_end(workload.name, metrics, notes)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
