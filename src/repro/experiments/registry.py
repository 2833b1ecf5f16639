"""The ``python -m repro.experiments`` CLI over the experiment registry.

Importing this module imports every experiment module, each of which
self-registers with ``repro.api``'s experiment registry
(:func:`repro.api.experiment_names` lists them).  The CLI builds a
:class:`repro.api.RunSpec` and executes it with :class:`repro.api.Runner`::

    python -m repro.experiments fig09 --topologies 60 --seed 0 --jobs 4 \
        --out results/fig09.json

``python -m repro.experiments campaign <experiment> ...`` runs a sharded,
resumable parameter-grid sweep instead (see :mod:`repro.campaign`)::

    python -m repro.experiments campaign fig15 --topologies 10000 \
        --shard-size 500 --axis rounds_per_topology=12,24 \
        --campaign-dir results/fig15-campaign --jobs 8 --resume
"""

from __future__ import annotations

import argparse
import json

from . import (  # noqa: F401  (imports trigger experiment registration)
    ablations,
    fig03_naive_drop,
    fig07_link_snr,
    fig08_09_capacity,
    fig10_precoding_impact,
    fig11_vs_optimal,
    fig12_simultaneous_tx,
    fig13_deadzones,
    fig14_tagging,
    fig15_three_ap,
    fig16_eight_ap,
    hidden_terminals,
    latency_vs_load,
    mobility_capacity,
    roaming_handoff,
)
from ..api.experiments import experiment_names
from ..api.runner import Runner
from ..api.spec import RunSpec


def _parse_axis_token(token: str):
    """One axis/param value: JSON where it parses, bare string otherwise."""
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _parse_axis(text: str) -> tuple[str, list]:
    """``name=v1,v2,...`` -> (name, values); values JSON-decoded per token."""
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"--axis expects name=value,value,... (got {text!r})"
        )
    return name, [_parse_axis_token(tok) for tok in values.split(",")]


def campaign_main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments campaign``: sharded resumable sweeps."""
    from ..campaign import CampaignRunner, CampaignSpec

    parser = argparse.ArgumentParser(
        prog="repro.experiments campaign",
        description="Run a sharded, resumable parameter-grid sweep "
        "(spec-hash + seed-range cached shards, JSONL journal, streaming "
        "CDF/mean aggregates)",
    )
    parser.add_argument("name", choices=experiment_names(), help="experiment id")
    parser.add_argument(
        "--campaign-dir",
        required=True,
        metavar="DIR",
        help="campaign state directory (manifest, journal, shard cache, result)",
    )
    parser.add_argument(
        "--topologies", type=int, required=True, help="seed indices per grid cell"
    )
    parser.add_argument(
        "--shard-size", type=int, default=256, help="max seed indices per shard"
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        type=_parse_axis,
        metavar="NAME=V1,V2,...",
        help="grid axis over a RunSpec field (environment/precoder/traffic/"
        "mobility/seed/n_topologies) or any experiment parameter; repeatable",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fixed experiment parameter shared by every cell; repeatable",
    )
    parser.add_argument("--environment", default=None, help="fixed environment")
    parser.add_argument("--precoder", default=None, help="fixed precoder")
    parser.add_argument("--traffic", default=None, help="fixed traffic model")
    parser.add_argument("--mobility", default=None, help="fixed mobility model")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign in --campaign-dir "
        "(completed shards are never recomputed)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent shard workers"
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="extra attempts per failing shard"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard wall-clock budget (timed-out attempts are retried)",
    )
    parser.add_argument(
        "--sketch-resolution",
        type=float,
        default=1.0 / 128.0,
        help="quantile-sketch bin width (part of the campaign identity)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shard cache directory (default: <campaign-dir>/cache; share "
        "it across campaigns to share shard results)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the CampaignResult JSON to PATH "
        "(always written to <campaign-dir>/result.json)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress/ETA lines"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record master-side telemetry (plus per-shard summaries in "
        "the journal) and write the trace to FILE (JSONL; a .trace.json "
        "suffix writes Chrome trace_event instead)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="record telemetry and write counters + per-span totals to "
        "FILE as JSON (operational metrics are always in "
        "<campaign-dir>/metrics.json regardless)",
    )
    args = parser.parse_args(argv)

    axes: dict[str, list] = {}
    for name, values in args.axis:
        if name in axes:
            parser.error(f"axis {name!r} given twice")
        axes[name] = values
    params: dict = {}
    for text in args.param:
        name, sep, value = text.partition("=")
        if not sep or not name:
            parser.error(f"--param expects name=value (got {text!r})")
        params[name] = _parse_axis_token(value)

    campaign = CampaignSpec(
        experiment=args.name,
        n_topologies=args.topologies,
        shard_size=args.shard_size,
        seed=args.seed,
        axes=axes,
        environment=args.environment,
        precoder=args.precoder,
        traffic=args.traffic,
        mobility=args.mobility,
        params=params,
        sketch_resolution=args.sketch_resolution,
    )
    telemetry = None
    if args.trace or args.metrics:
        from .. import obs

        telemetry = obs.Telemetry()
    runner = CampaignRunner(
        campaign_dir=args.campaign_dir,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retries=args.retries,
        timeout_s=args.timeout,
        progress=not args.quiet,
        telemetry=telemetry,
    )
    if not args.quiet:
        print(campaign.describe())
    result = runner.run(campaign, resume=args.resume)
    print(result.summary())
    if args.trace is not None:
        path = _write_trace(telemetry, args.trace)
        print(f"wrote {path}")
    if args.metrics is not None:
        path = telemetry.write_metrics(args.metrics)
        print(f"wrote {path}")
    if args.out is not None:
        path = result.save(args.out)
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run one experiment (or a ``campaign``) and report."""
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate a MIDAS paper figure (or run "
        "'campaign <experiment> ...' for a sharded resumable sweep)",
    )
    parser.add_argument("name", choices=experiment_names(), help="experiment id")
    parser.add_argument("--topologies", type=int, default=None, help="topology count")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; each evaluates a contiguous chunk of every "
        "round's topology seeds (1 = in-process; bit-identical either way)",
    )
    parser.add_argument(
        "--backend",
        choices=["vectorized", "array_api"],
        default="vectorized",
        help="evaluation backend ('vectorized' evaluates topology draws "
        "through stacked array math; 'array_api' runs the same path on a "
        "configurable repro.xp namespace)",
    )
    parser.add_argument(
        "--namespace",
        choices=["numpy", "torch"],
        default="numpy",
        help="array namespace for --backend array_api (default: numpy)",
    )
    parser.add_argument(
        "--device",
        default="cpu",
        metavar="DEV",
        help="compute device for --backend array_api (cpu, cuda, cuda:0, ...)",
    )
    parser.add_argument(
        "--dtype",
        choices=["float32", "float64"],
        default="float64",
        help="real dtype for --backend array_api (default: float64)",
    )
    parser.add_argument(
        "--precoder",
        default=None,
        help="registered precoder override (experiments with a precoder parameter)",
    )
    parser.add_argument(
        "--traffic",
        default=None,
        help="registered traffic model (experiments with a traffic parameter; "
        "'full_buffer' is accepted everywhere as the saturation default)",
    )
    parser.add_argument(
        "--mobility",
        default=None,
        help="registered mobility model (experiments with a mobility "
        "parameter; 'static' is accepted everywhere as the frozen default)",
    )
    parser.add_argument(
        "--association",
        default=None,
        help="registered association policy (experiments with an association "
        "parameter; 'nearest_anchor' is accepted everywhere as the sounding-"
        "anchored default)",
    )
    parser.add_argument(
        "--coordination",
        default=None,
        help="coordination mode between neighboring APs (experiments with a "
        "coordination parameter; 'independent' is accepted everywhere as "
        "the default)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the result to PATH (.npz = binary, anything else JSON)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache results in DIR keyed by spec hash (a cache hit/miss "
        "summary line is printed after the run)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record telemetry and write the span/counter trace to FILE "
        "(JSONL; a .trace.json suffix writes Chrome trace_event instead)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="record telemetry and write counters + per-span totals to "
        "FILE as JSON",
    )
    args = parser.parse_args(argv)

    spec = RunSpec(
        experiment=args.name,
        n_topologies=args.topologies,
        seed=args.seed,
        precoder=args.precoder,
        traffic=args.traffic,
        mobility=args.mobility,
        association=args.association,
        coordination=args.coordination,
    )
    # Telemetry is observation only -- results are byte-identical with it
    # on or off -- so turning it on for the cache summary line is safe.
    telemetry = None
    if args.trace or args.metrics or args.cache_dir:
        from .. import obs

        telemetry = obs.Telemetry()
    runner = Runner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        namespace=args.namespace,
        device=args.device,
        dtype=args.dtype,
        telemetry=telemetry,
    )
    result = runner.run(spec)
    print(result.summary())
    if args.cache_dir is not None:
        counters = telemetry.counters
        hits = int(counters["runner.cache.hits"])
        misses = int(counters["runner.cache.misses"])
        recomputes = int(counters["runner.cache.recomputes"])
        print(
            f"cache: {hits} hit(s), {misses} miss(es), "
            f"{recomputes} recomputed"
        )
    if args.trace is not None:
        path = _write_trace(telemetry, args.trace)
        print(f"wrote {path}")
    if args.metrics is not None:
        path = telemetry.write_metrics(args.metrics)
        print(f"wrote {path}")
    if args.out is not None:
        path = result.save(args.out)
        print(f"wrote {path}")
    return 0


def _write_trace(telemetry, destination: str):
    """JSONL by default; ``*.trace.json`` selects Chrome ``trace_event``."""
    if destination.endswith(".trace.json"):
        return telemetry.write_chrome_trace(destination)
    return telemetry.write_jsonl(destination)
