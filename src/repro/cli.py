"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` (alias ``demo``) — run ss-Byz-Clock-Sync from scrambled memory
  and print the per-beat clock table;
* ``table1`` — regenerate the paper's Table 1 comparison;
* ``coin`` — stream the self-stabilizing coin and report agreement stats;
* ``campaign`` — fan a scenario grid out across worker processes and
  stream aggregated per-scenario results;
* ``runtime`` — run the protocol as a *live* concurrent system: asyncio
  node tasks over a real transport (in-process queues or TCP loopback),
  a selectable wire codec (``--codec``), optional JSONL trace output
  (see :mod:`repro.runtime`);
* ``cluster run SPEC`` — launch multi-process TCP clusters from a
  declarative experiment spec file (see
  :mod:`repro.runtime.orchestrator`);
* ``bench`` — the unified benchmark subsystem (``list``, ``run``,
  ``compare``, ``gate``; see :mod:`repro.bench.cli`);
* ``trace`` — JSONL trace tooling (see :mod:`repro.obs`): ``inspect``
  summarizes a trace, ``diff`` reports the first divergent beat between
  two traces (non-zero exit on mismatch — the differential suites' byte
  compare as a command), ``metrics`` renders a ``--metrics-out``
  document as JSON or Prometheus text;
* ``protocols`` — list the registered protocol catalog;
* ``adversaries`` — list the built-in Byzantine strategies;
* ``links`` — list the built-in link-condition models;
* ``engines`` — list the built-in simulation engines;
* ``transports`` — list the built-in runtime transports;
* ``codecs`` — list the built-in runtime wire codecs.

``run``, ``campaign`` and ``runtime`` accept ``--protocol`` to select
any registered protocol (``campaign`` takes several — a grid axis) and
``--engine`` to pick a simulation engine from the registry (the live
runtime validates the name but owns its own message plane);
``run`` and ``campaign`` accept ``--link`` (with ``--link-param k=v``)
to degrade the network: bounded delay, omission loss, scheduled
partitions, or waypoint mobility — plus the dynamic-world flags
``--churn BEAT:KIND:IDS`` (membership events: crash, recover, join,
leave), ``--mobility`` and ``--adaptive``.  Every command is
deterministic given ``--seed`` (campaigns: given the seed range, at any
worker count, under any link model or churn schedule).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Callable, Sequence

from repro import coin_by_name, synchronize
from repro.adversary import Adversary
from repro.analysis import render_table, table1_comparison
from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    COIN_REGISTRY,
    LINK_REGISTRY,
    PROTOCOL_REGISTRY,
    campaign_to_json,
    iter_campaign,
    scenario_grid,
)
from repro.core.pipeline import CoinFlipPipeline
from repro.core.protocol import DEFAULT_PROTOCOL, resolve_protocol
from repro.errors import ConfigurationError
from repro.faults.dynamic import parse_churn_events
from repro.net.engine import DEFAULT_ENGINE, ENGINES
from repro.net.linkmodel import LINK_MODELS
from repro.net.simulator import Simulation
from repro.runtime import (
    CODECS,
    DEFAULT_CODEC,
    DEFAULT_TRANSPORT,
    TRANSPORTS,
    load_specs,
    run_cluster,
    run_runtime,
)

__all__ = ["ADVERSARIES", "main"]

ADVERSARIES: dict[str, Callable[[], Adversary | None]] = {
    name: (lambda: None) if cls is None else cls
    for name, cls in ADVERSARY_REGISTRY.items()
}


def _add_dynamic_arguments(
    parser: argparse.ArgumentParser, *, grid: bool
) -> None:
    """Attach the dynamic-world flags: ``--churn``, ``--mobility``,
    ``--adaptive``."""
    parser.add_argument(
        "--churn", action="append", default=[], metavar="BEAT:KIND:IDS",
        help="membership event (repeatable): kind is crash, recover, join "
             "or leave, e.g. --churn 25:crash:0,1 --churn 40:recover:0,1"
             + ("; applies to every scenario on the grid" if grid else ""),
    )
    parser.add_argument(
        "--mobility", action="store_true",
        help="waypoint-mobility link model (shorthand for "
             + ("adding mobility to --link" if grid else "--link mobility")
             + "; tune with --link-param world/radius/leg_beats)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="adaptive adversary conditioning on the previous beat's "
             "observed honest traffic (shorthand for "
             + ("adding adaptive to --adversary" if grid else
                "--adversary adaptive") + ")",
    )


def _parse_link_param(raw: str) -> tuple[str, object]:
    """Parse one ``key=value`` link parameter; values become int or float."""
    key, separator, value = raw.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"link parameter {raw!r} is not of the form key=value"
        )
    try:
        return key, int(value)
    except ValueError:
        pass
    try:
        return key, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"link parameter {raw!r} needs a numeric value"
        ) from None


def _add_link_arguments(parser: argparse.ArgumentParser, *, grid: bool) -> None:
    """Attach ``--link`` / ``--link-param`` to a subcommand parser."""
    if grid:
        parser.add_argument(
            "--link", nargs="+", default=["perfect"],
            choices=sorted(LINK_REGISTRY),
            help="link-condition models (grid axis)",
        )
    else:
        parser.add_argument(
            "--link", default="perfect", choices=sorted(LINK_REGISTRY),
            help="link-condition model the run executes under",
        )
    parser.add_argument(
        "--link-param", action="append", default=[], type=_parse_link_param,
        metavar="KEY=VALUE",
        help="link model parameter (repeatable), e.g. --link-param "
             "max_delay=2, --link-param loss=0.1, --link-param heal=30"
             + (
                 "; each model on the grid axis takes the parameters its "
                 "constructor accepts" if grid else ""
             ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fast self-stabilizing Byzantine tolerant digital clock "
            "synchronization (Ben-Or, Dolev, Hoch; PODC 2008)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the clock from scrambled memory"),
        ("demo", "alias of `run` (kept for compatibility)"),
    ):
        demo = commands.add_parser(name, help=help_text)
        demo.add_argument("--n", type=int, default=7, help="number of nodes")
        demo.add_argument(
            "--f", type=int, default=2, help="fault parameter (f < n/3)"
        )
        demo.add_argument("--k", type=int, default=60, help="clock modulus")
        demo.add_argument(
            "--protocol", default=DEFAULT_PROTOCOL,
            choices=sorted(PROTOCOL_REGISTRY),
            help="registered protocol to run (see `repro protocols`)",
        )
        demo.add_argument(
            "--coin", default="oracle", choices=["oracle", "gvss", "local"],
            help="coin algorithm (only protocols that use a coin)",
        )
        demo.add_argument(
            "--adversary", default="none", choices=sorted(ADVERSARIES)
        )
        demo.add_argument(
            "--engine", default=DEFAULT_ENGINE, choices=sorted(ENGINES),
            help="simulation engine (see `repro engines`)",
        )
        demo.add_argument("--seed", type=int, default=0)
        demo.add_argument("--beats", type=int, default=200)
        demo.add_argument("--show", type=int, default=16, help="beats to print")
        demo.add_argument(
            "--trace", dest="trace_path", default=None, metavar="FILE",
            help="write the per-beat clock trajectory as JSONL (the same "
                 "format `repro runtime --trace` emits)",
        )
        demo.add_argument(
            "--no-early-stop", action="store_true",
            help="always run the full --beats budget (a trace then has "
                 "exactly --beats records, diffable against a runtime "
                 "trace of the same seed)",
        )
        demo.add_argument(
            "--drift", type=float, default=None, metavar="RHO",
            help="continuous-time mode: clock drift bound, rates drawn in "
                 "[1-RHO, 1+RHO] (event-driven engine; incompatible with "
                 "--link/--churn)",
        )
        demo.add_argument(
            "--delay-bounds", nargs=2, type=float, default=None,
            metavar=("DMIN", "DMAX"),
            help="continuous-time mode: message delay bounds in time "
                 "units (keyed per-message draws in [DMIN, DMAX])",
        )
        demo.add_argument(
            "--pulse-period", type=float, default=None, metavar="SPAN",
            help="continuous-time mode: local-clock span between pulses "
                 "(one beat per pulse; default 1.0)",
        )
        _add_link_arguments(demo, grid=False)
        _add_dynamic_arguments(demo, grid=False)

    table1 = commands.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--n", type=int, default=7)
    table1.add_argument("--f", type=int, default=2)
    table1.add_argument("--k", type=int, default=4)
    table1.add_argument("--seeds", type=int, default=5)
    table1.add_argument("--beats", type=int, default=400)

    runtime = commands.add_parser(
        "runtime",
        help="run the protocol live: concurrent node tasks over a transport",
    )
    runtime.add_argument("--n", type=int, default=4, help="number of nodes")
    runtime.add_argument(
        "--f", type=int, default=1, help="fault parameter (f < n/3)"
    )
    runtime.add_argument("--k", type=int, default=8, help="clock modulus")
    runtime.add_argument(
        "--protocol", default=DEFAULT_PROTOCOL,
        choices=sorted(PROTOCOL_REGISTRY),
        help="registered protocol to run live (see `repro protocols`)",
    )
    runtime.add_argument(
        "--coin", default="oracle", choices=["oracle", "gvss", "local"],
        help="coin algorithm (only protocols that use a coin)",
    )
    runtime.add_argument(
        "--adversary", default="none", choices=sorted(ADVERSARIES),
        help="Byzantine strategy run as a live misbehaving peer",
    )
    runtime.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=sorted(ENGINES),
        help="accepted for interface symmetry and validated against the "
             "registry; the live runtime owns its own message plane, so "
             "the choice does not change execution",
    )
    runtime.add_argument("--seed", type=int, default=0)
    runtime.add_argument(
        "--beats", type=int, default=60, help="run duration, in beats"
    )
    runtime.add_argument(
        "--transport", default=DEFAULT_TRANSPORT, choices=sorted(TRANSPORTS),
        help="message plane: in-process queues or TCP loopback sockets",
    )
    runtime.add_argument(
        "--codec", default=DEFAULT_CODEC, choices=sorted(CODECS),
        help="wire format (see `repro codecs`); never changes the "
             "trajectory, only the bytes and the speed",
    )
    runtime.add_argument(
        "--beat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="round-barrier timeout per beat (late peers are not waited "
             "for beyond this)",
    )
    runtime.add_argument(
        "--sync", default="beat", choices=["beat", "pulse"],
        help="round barrier mode: fixed --beat-timeout barriers, or the "
             "continuous-time pulse barrier driven by per-node drifting "
             "clocks (--beat-timeout is then ignored)",
    )
    runtime.add_argument(
        "--pulse-period", type=float, default=0.2, metavar="SECONDS",
        help="pulse mode: local-clock seconds between pulses — each "
             "barrier's hard deadline (healthy runs close early on "
             "markers)",
    )
    runtime.add_argument(
        "--drift", type=float, default=0.0, metavar="RHO",
        help="pulse mode: clock drift bound, per-node rates drawn in "
             "[1-RHO, 1+RHO] from the run's timing seed",
    )
    runtime.add_argument(
        "--trace", dest="trace_path", default=None, metavar="FILE",
        help="write the per-beat clock trajectory as JSONL",
    )
    runtime.add_argument(
        "--metrics-out", dest="metrics_path", default=None, metavar="FILE",
        help="export the run's metrics registry (JSON document; or "
             "Prometheus text with --metrics-format prometheus)",
    )
    runtime.add_argument(
        "--metrics-format", default="json", choices=["json", "prometheus"],
        help="serialization for --metrics-out",
    )
    runtime.add_argument("--show", type=int, default=12, help="beats to print")

    coin = commands.add_parser("coin", help="stream the self-stabilizing coin")
    coin.add_argument("--n", type=int, default=4)
    coin.add_argument("--f", type=int, default=1)
    coin.add_argument("--coin", default="gvss", choices=["oracle", "gvss", "local"])
    coin.add_argument("--adversary", default="none", choices=sorted(ADVERSARIES))
    coin.add_argument("--seed", type=int, default=0)
    coin.add_argument("--beats", type=int, default=30)

    campaign = commands.add_parser(
        "campaign",
        help="run a parallel experiment campaign over a scenario grid",
    )
    campaign.add_argument(
        "--protocol", nargs="+", default=[DEFAULT_PROTOCOL],
        choices=sorted(PROTOCOL_REGISTRY),
        help="registered protocols (grid axis)",
    )
    campaign.add_argument(
        "--coin", default="oracle", choices=sorted(COIN_REGISTRY)
    )
    campaign.add_argument(
        "--n", type=int, nargs="+", default=[4, 7, 10],
        help="system sizes (grid axis)",
    )
    campaign.add_argument(
        "--f", type=int, nargs="*", default=None,
        help="fault parameters, one per --n (default ⌊(n-1)/3⌋)",
    )
    campaign.add_argument(
        "--k", type=int, nargs="+", default=[8], help="clock moduli (grid axis)"
    )
    campaign.add_argument(
        "--adversary", nargs="+", default=["none"],
        choices=sorted(ADVERSARY_REGISTRY), help="adversaries (grid axis)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=10, help="trials per scenario"
    )
    campaign.add_argument(
        "--seed-base", type=int, default=0, help="first seed of the range"
    )
    campaign.add_argument("--beats", type=int, default=500)
    campaign.add_argument(
        "--timing", nargs="+", default=None, metavar="RHO:DMIN:DMAX:PERIOD",
        help="continuous-time grid axis: run the event-driven engine with "
             "clock drift RHO, message delays in [DMIN, DMAX] and pulse "
             "period PERIOD (repeatable; replaces the lock-step entry)",
    )
    campaign.add_argument(
        "--scramble-beats", type=int, nargs="*", default=[],
        help="mid-run fault schedule: re-scramble all correct nodes "
             "before these beats",
    )
    campaign.add_argument("--closure-window", type=int, default=12)
    campaign.add_argument(
        "--no-early-stop", action="store_true",
        help="always burn the full beat budget",
    )
    campaign.add_argument("--engine", default="fast", choices=sorted(ENGINES))
    _add_link_arguments(campaign, grid=True)
    _add_dynamic_arguments(campaign, grid=True)
    campaign.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU)",
    )
    campaign.add_argument(
        "--json", dest="json_path", default=None,
        help="also write aggregated results to this JSON file",
    )

    cluster = commands.add_parser(
        "cluster",
        help="orchestrate multi-process TCP clusters from a spec file",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_run = cluster_commands.add_parser(
        "run", help="launch every experiment in a cluster spec file"
    )
    cluster_run.add_argument(
        "spec_path", metavar="SPEC",
        help="Python file assigning a module-level `experiments` list of "
             "ClusterSpec objects",
    )
    cluster_run.add_argument(
        "--only", default=None, metavar="NAME",
        help="run just the experiment with this name",
    )
    cluster_run.add_argument(
        "--codec", default=None, choices=sorted(CODECS),
        help="override every experiment's wire codec",
    )
    cluster_run.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write each experiment's JSONL trace into this directory",
    )
    cluster_run.add_argument(
        "--metrics-out", dest="metrics_dir", default=None, metavar="DIR",
        help="write each experiment's merged metrics registry into this "
             "directory as <name>.metrics.json",
    )
    cluster_run.add_argument(
        "--show", type=int, default=8, help="beats to print per experiment"
    )

    trace = commands.add_parser(
        "trace", help="inspect, diff and export JSONL traces"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_inspect = trace_commands.add_parser(
        "inspect", help="summarize one trace: beats, nodes, convergence, "
                        "flight-recorder events",
    )
    trace_inspect.add_argument("path", metavar="TRACE", help="JSONL trace file")
    trace_inspect.add_argument(
        "--k", type=int, default=None,
        help="clock modulus; enables Definition 3.2 convergence detection",
    )
    trace_inspect.add_argument(
        "--series", type=int, default=None, metavar="NODE",
        help="also print this node's per-beat probe series",
    )
    trace_diff = trace_commands.add_parser(
        "diff", help="first-divergent-beat report between two traces "
                     "(exit 1 on divergence; event lines are ignored)",
    )
    trace_diff.add_argument("left", metavar="LEFT", help="JSONL trace file")
    trace_diff.add_argument("right", metavar="RIGHT", help="JSONL trace file")
    trace_metrics = trace_commands.add_parser(
        "metrics", help="render a --metrics-out JSON document",
    )
    trace_metrics.add_argument(
        "path", metavar="METRICS", help="metrics JSON document"
    )
    trace_metrics.add_argument(
        "--format", dest="metrics_format", default="prometheus",
        choices=["json", "prometheus"],
        help="output rendering (default: Prometheus text exposition)",
    )

    from repro.bench.cli import configure_parser as configure_bench_parser

    configure_bench_parser(commands)

    commands.add_parser("protocols", help="list the registered protocol catalog")
    commands.add_parser("adversaries", help="list built-in Byzantine strategies")
    commands.add_parser("links", help="list built-in link-condition models")
    commands.add_parser("engines", help="list built-in simulation engines")
    commands.add_parser("transports", help="list built-in runtime transports")
    commands.add_parser("codecs", help="list built-in runtime wire codecs")
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    link_params = dict(args.link_param)
    link = "mobility" if args.mobility else args.link
    adversary_name = "adaptive" if args.adaptive else args.adversary
    timing = None
    if (
        args.drift is not None
        or args.delay_bounds is not None
        or args.pulse_period is not None
    ):
        d_min, d_max = args.delay_bounds or (0.0, 0.0)
        timing = (
            args.drift if args.drift is not None else 0.0,
            d_min,
            d_max,
            args.pulse_period if args.pulse_period is not None else 1.0,
        )
    try:
        churn = (
            parse_churn_events(args.churn).normalized() if args.churn else None
        )
        result = synchronize(
            n=args.n,
            f=args.f,
            k=args.k,
            protocol=args.protocol,
            coin=args.coin,
            adversary=ADVERSARIES[adversary_name](),
            seed=args.seed,
            max_beats=args.beats,
            early_stop=not args.no_early_stop,
            engine=args.engine,
            link=link,
            link_params=link_params,
            churn=churn,
            trace=args.trace_path is not None,
            timing=timing,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    link_note = "" if link == "perfect" else f" link={link}{link_params}"
    coin_note = (
        f" coin={args.coin}" if resolve_protocol(args.protocol).uses_coin else ""
    )
    churn_note = f" churn={','.join(args.churn)}" if args.churn else ""
    timing_note = ""
    if timing is not None:
        timing_note = (
            f" timing[rho={timing[0]},d={timing[1]}-{timing[2]},"
            f"period={timing[3]}]"
        )
    print(
        f"{args.protocol} n={args.n} f={args.f} k={args.k}"
        f"{coin_note} adversary={adversary_name} seed={args.seed}"
        f"{link_note}{churn_note}{timing_note}"
    )
    for beat, values in enumerate(result.history[: args.show]):
        cells = " ".join(
            f"{v:>4}" if v is not None else "   ⊥" for v in values
        )
        print(f"  beat {beat:>3} | {cells}")
    if args.trace_path:
        with open(args.trace_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_jsonl())
        print(
            f"wrote {len(result.records)}-beat trace to {args.trace_path}"
        )
    casualties = ""
    if result.dropped_messages or result.delayed_messages:
        casualties = (
            f", {result.dropped_messages} dropped / "
            f"{result.delayed_messages} delayed by the link model"
        )
    if result.pulse_skew is not None:
        t_note = (
            f", converged at t={result.converged_time:.3f}"
            if result.converged_time is not None
            else ""
        )
        print(
            f"continuous time: max pulse skew {result.pulse_skew:.4f} "
            f"time units{t_note}"
        )
    if result.converged_beat is None:
        print(f"did not converge within {args.beats} beats{casualties}")
        return 1
    print(f"converged at beat {result.converged_beat} "
          f"({result.total_messages} messages total{casualties})")
    return 0


def _print_beats(result, show: int) -> None:
    """The first ``show`` beats of a live result, one clock row each."""
    for record in result.records[:show]:
        cells = " ".join(
            f"{record.values[i]:>4}" if record.values[i] is not None else "   ⊥"
            for i in sorted(record.values)
        )
        print(f"  beat {record.beat:>3} | {cells}")


def _skew_text(result) -> str:
    skew = result.pulse_skew_s
    return "n/a" if skew is None else f"{skew * 1000:.2f}ms"


def _cmd_runtime(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol)
    coin_factory = coin_by_name(args.coin, args.n, args.f)
    registry = None
    if args.metrics_path:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    try:
        result = run_runtime(
            args.n,
            args.f,
            protocol.factory(args.n, args.f, args.k, coin_factory=coin_factory),
            adversary=ADVERSARIES[args.adversary](),
            seed=args.seed,
            beats=args.beats,
            transport=args.transport,
            codec=args.codec,
            k=args.k,
            beat_timeout=args.beat_timeout,
            sync=args.sync,
            pulse_period=args.pulse_period,
            rho=args.drift,
            metrics=registry,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    coin_note = f" coin={args.coin}" if protocol.uses_coin else ""
    sync_note = ""
    if result.sync == "pulse":
        sync_note = f" sync=pulse period={args.pulse_period} rho={args.drift}"
    print(
        f"live {args.protocol} n={args.n} f={args.f} k={args.k}"
        f"{coin_note} adversary={args.adversary} seed={args.seed} "
        f"transport={result.transport} codec={result.codec}{sync_note}"
    )
    _print_beats(result, args.show)
    health = " ".join(
        f"{name}={count}" for name, count in result.health.items()
    )
    frames = " ".join(
        f"{node_id}:{count}"
        for node_id, count in sorted((result.frames_by_node or {}).items())
    )
    print(f"  health    | {health}")
    print(f"  frames    | {result.frames_sent} total ({frames})")
    if result.sync == "pulse":
        t_conv = (
            f" converged_t={result.converged_time_s:.3f}s"
            if result.converged_time_s is not None
            else ""
        )
        print(
            f"  pulse     | max skew {_skew_text(result)}, "
            f"{result.pulse_timeouts} pulse timeouts{t_conv}"
        )
    if args.trace_path:
        with open(args.trace_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_jsonl())
        print(f"wrote {len(result.records)}-beat trace to {args.trace_path}")
    if args.metrics_path:
        with open(args.metrics_path, "w", encoding="utf-8") as handle:
            if args.metrics_format == "prometheus":
                handle.write(registry.to_prometheus())
            else:
                json.dump(registry.to_json(), handle, indent=2)
                handle.write("\n")
        print(f"wrote {args.metrics_format} metrics to {args.metrics_path}")
    casualties = ""
    if result.late_messages or result.barrier_timeouts:
        casualties = (
            f", {result.late_messages} late messages dropped / "
            f"{result.barrier_timeouts} barrier timeouts"
        )
    rate = (
        f"{result.beats_per_sec:.0f} beats/s, "
        f"{result.messages_per_sec:.0f} msgs/s"
    )
    if result.converged_beat is None:
        print(f"did not converge within {args.beats} beats ({rate}{casualties})")
        return 1
    print(
        f"converged at beat {result.converged_beat} "
        f"({result.messages_sent} messages, {rate}{casualties})"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import dataclasses
    import os

    from repro.errors import TransportError

    try:
        specs = load_specs(args.spec_path)
        if args.only is not None:
            specs = tuple(s for s in specs if s.name == args.only)
            if not specs:
                raise ConfigurationError(
                    f"no experiment named {args.only!r} in {args.spec_path}"
                )
        if args.codec is not None:
            specs = tuple(
                dataclasses.replace(s, codec=args.codec) for s in specs
            )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    exit_code = 0
    for spec in specs:
        print(
            f"cluster {spec.name}: {spec.protocol} n={spec.n} f={spec.f} "
            f"k={spec.k} adversary={spec.adversary} seed={spec.seed} "
            f"codec={spec.codec} processes={spec.processes}"
        )
        try:
            result = run_cluster(spec)
        except TransportError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        _print_beats(result, args.show)
        health = " ".join(
            f"{name}={count}" for name, count in result.health.items()
        )
        print(f"  health   | {health}")
        if result.sync == "pulse":
            print(
                f"  pulse    | max within-worker skew {_skew_text(result)}, "
                f"{result.pulse_timeouts} pulse timeouts"
            )
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            trace_path = os.path.join(args.trace_dir, f"{spec.name}.jsonl")
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(result.to_jsonl())
            print(f"  wrote {len(result.records)}-beat trace to {trace_path}")
        if args.metrics_dir:
            os.makedirs(args.metrics_dir, exist_ok=True)
            metrics_path = os.path.join(
                args.metrics_dir, f"{spec.name}.metrics.json"
            )
            with open(metrics_path, "w", encoding="utf-8") as handle:
                json.dump(result.metrics.to_json(), handle, indent=2)
                handle.write("\n")
            print(f"  wrote merged worker metrics to {metrics_path}")
        rate = (
            f"{result.beats_per_sec:.0f} beats/s, "
            f"{result.messages_per_sec:.0f} msgs/s, "
            f"{result.frames_sent} wire frames"
        )
        if result.converged_beat is None:
            print(f"  did not converge within {spec.beats} beats ({rate})")
            exit_code = 1
        else:
            print(
                f"  converged at beat {result.converged_beat} "
                f"({result.messages_sent} messages, {rate})"
            )
    return exit_code


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_comparison(
        n=args.n,
        f=args.f,
        k=args.k,
        seeds=range(args.seeds),
        max_beats=args.beats,
    )
    print(
        render_table(
            ["paper row", "claimed", "resilience", "config", "measured", "ok"],
            [row.cells() for row in rows],
        )
    )
    return 0


def _cmd_coin(args: argparse.Namespace) -> int:
    algorithm = coin_by_name(args.coin, args.n, args.f)()
    sim = Simulation(
        args.n,
        args.f,
        lambda i: CoinFlipPipeline(algorithm),
        adversary=ADVERSARIES[args.adversary](),
        seed=args.seed,
    )
    sim.run(algorithm.rounds)  # flush (Lemma 1)
    agreed = 0
    for beat in range(args.beats):
        sim.run_beat()
        bits = [sim.nodes[i].root.rand for i in sim.honest_ids]
        common = len(set(bits)) == 1
        agreed += common
        marker = "" if common else "   <- divergent"
        print(f"  beat {beat:>3} | {' '.join(map(str, bits))}{marker}")
    print(f"agreement: {agreed}/{args.beats} beats "
          f"(coin={algorithm.name}, adversary={args.adversary})")
    return 0


def _campaign_row(entry) -> list[str]:
    sweep = entry.sweep
    latencies = sweep.latencies
    if latencies:
        summary = sweep.latency_summary()
        latency = f"{summary.mean:.1f} (median {summary.median:.0f})"
    else:
        latency = "-"
    mean_beats = sum(r.beats_run for r in sweep.results) / len(sweep.results)
    return [
        entry.spec.label,
        f"{sweep.success_rate * 100:.0f}%",
        latency,
        f"{sweep.mean_messages_per_beat:.0f}",
        f"{mean_beats:.0f}",
    ]


def _link_axis(
    names: list[str], params: dict[str, object]
) -> "list[str | tuple[str, dict[str, object]]]":
    """Route the shared ``--link-param`` pool across the chosen models.

    Each model takes the parameters its constructor accepts, so
    ``--link delay lossy --link-param max_delay=2 --link-param loss=0.1``
    parameterizes both axis entries.  A parameter no chosen model accepts
    is a configuration error (a typo would otherwise silently vanish).
    """
    claimed: set[str] = set()
    axis: "list[str | tuple[str, dict[str, object]]]" = []
    for name in names:
        if name == "perfect":
            axis.append(name)
            continue
        accepted = set(
            inspect.signature(LINK_MODELS[name].__init__).parameters
        ) - {"self"}
        chosen = {key: value for key, value in params.items() if key in accepted}
        claimed.update(chosen)
        axis.append((name, chosen))
    unknown = set(params) - claimed
    if unknown:
        raise ConfigurationError(
            f"link parameters {sorted(unknown)} are not accepted by any "
            f"model in --link {' '.join(names)}"
        )
    return axis


def _parse_timing(value: str) -> "tuple[float, float, float, float]":
    """Parse one ``--timing`` value of the form ``RHO:DMIN:DMAX:PERIOD``."""
    parts = value.split(":")
    if len(parts) != 4:
        raise ConfigurationError(
            f"--timing {value!r} is not of the form RHO:DMIN:DMAX:PERIOD"
        )
    try:
        rho, d_min, d_max, period = (float(part) for part in parts)
    except ValueError:
        raise ConfigurationError(
            f"--timing {value!r} has a non-numeric field"
        ) from None
    return (rho, d_min, d_max, period)


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        link_names = list(args.link)
        if args.mobility and "mobility" not in link_names:
            link_names.append("mobility")
        adversaries = list(args.adversary)
        if args.adaptive and "adaptive" not in adversaries:
            adversaries.append("adaptive")
        churn = (
            parse_churn_events(args.churn).normalized() if args.churn else ()
        )
        links = _link_axis(link_names, dict(args.link_param))
        timings = (
            tuple(_parse_timing(value) for value in args.timing)
            if args.timing
            else ((),)
        )
        specs = scenario_grid(
            args.n,
            ks=args.k,
            adversaries=adversaries,
            links=links,
            protocols=args.protocol,
            fs=args.f,
            coin=args.coin,
            max_beats=args.beats,
            scramble_beats=tuple(args.scramble_beats),
            early_stop=not args.no_early_stop,
            closure_window=args.closure_window,
            engine=args.engine,
            churn=churn,
            timings=timings,
        )
        for spec in specs:
            spec.validate()
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    total = len(specs) * args.seeds
    print(
        f"campaign: {len(specs)} scenarios x {args.seeds} seeds "
        f"({total} trials, engine={args.engine})"
    )
    started = time.perf_counter()
    entries = []
    for entry in iter_campaign(specs, seeds, workers=args.workers):
        entries.append(entry)
        row = _campaign_row(entry)
        print(f"  [{len(entries)}/{len(specs)}] {row[0]}: "
              f"success {row[1]}, conv {row[2]}, msgs/beat {row[3]}")
    elapsed = time.perf_counter() - started
    entries.sort(key=lambda e: e.index)
    print()
    print(
        render_table(
            ["scenario", "success", "conv. beats", "msgs/beat", "beats run"],
            [_campaign_row(entry) for entry in entries],
        )
    )
    print(f"\n{total} trials in {elapsed:.1f}s")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(campaign_to_json(entries), handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def _cmd_protocols(_args: argparse.Namespace) -> int:
    for name, protocol in sorted(PROTOCOL_REGISTRY.items()):
        marker = "  (default)" if name == DEFAULT_PROTOCOL else ""
        print(f"  {name:<14} {protocol.describe()}{marker}")
    return 0


def _cmd_adversaries(_args: argparse.Namespace) -> int:
    for name, factory in sorted(ADVERSARIES.items()):
        instance = factory()
        doc = (type(instance).__doc__ or "fault-free").strip().splitlines()[0]
        print(f"  {name:<14} {doc}")
    return 0


def _cmd_links(_args: argparse.Namespace) -> int:
    for name, model_cls in sorted(LINK_MODELS.items()):
        doc = (model_cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<12} {doc}")
    return 0


def _cmd_engines(_args: argparse.Namespace) -> int:
    for name, engine_cls in sorted(ENGINES.items()):
        marker = "  (default)" if name == DEFAULT_ENGINE else ""
        print(f"  {name:<12} {engine_cls.description}{marker}")
    return 0


def _cmd_transports(_args: argparse.Namespace) -> int:
    for name, transport_cls in sorted(TRANSPORTS.items()):
        doc = (transport_cls.__doc__ or "").strip().splitlines()[0]
        marker = "  (default)" if name == DEFAULT_TRANSPORT else ""
        print(f"  {name:<12} {doc}{marker}")
    return 0


def _cmd_codecs(_args: argparse.Namespace) -> int:
    for name, codec in sorted(CODECS.items()):
        marker = "  (default)" if name == DEFAULT_CODEC else ""
        print(f"  {name:<12} {codec.describe()}{marker}")
    return 0


def _read_text(path: str) -> str:
    """Read one file, mapping OS errors to :class:`ConfigurationError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read {path!r}: {error}") from None


def _parse_trace(path: str):
    """Parse one JSONL trace file (malformed lines → ConfigurationError)."""
    from repro.obs import read_trace

    try:
        return read_trace(_read_text(path))
    except (ValueError, KeyError, TypeError) as error:
        raise ConfigurationError(
            f"{path!r} is not a JSONL trace: {error}"
        ) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import diff_records, summarize_trace

    try:
        if args.trace_command == "inspect":
            trace = _parse_trace(args.path)
            summary = summarize_trace(trace, k=args.k)
            print(f"trace {args.path}")
            print(summary.describe())
            if args.series is not None:
                series = [
                    record.values.get(args.series)
                    for record in trace.records
                ]
                print(f"  node {args.series} : {series}")
            return 0
        if args.trace_command == "diff":
            left = _parse_trace(args.left)
            right = _parse_trace(args.right)
            diff = diff_records(left.records, right.records)
            if diff is None:
                print(
                    f"traces match: {len(left.records)} records "
                    f"({args.left} == {args.right})"
                )
                return 0
            print(f"left : {args.left}\nright: {args.right}")
            print(diff.describe())
            return 1
        # metrics: validate the document, then render it.
        from repro.obs import render_prometheus, validate_metrics_json

        try:
            payload = json.loads(_read_text(args.path))
            validate_metrics_json(payload)
        except ValueError as error:
            raise ConfigurationError(
                f"{args.path!r} is not a metrics document: {error}"
            ) from None
        if args.metrics_format == "prometheus":
            print(render_prometheus(payload), end="")
        else:
            print(json.dumps(payload, indent=2))
        return 0
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import handle

    return handle(args)


_HANDLERS = {
    "run": _cmd_demo,
    "demo": _cmd_demo,
    "table1": _cmd_table1,
    "coin": _cmd_coin,
    "campaign": _cmd_campaign,
    "runtime": _cmd_runtime,
    "cluster": _cmd_cluster,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "protocols": _cmd_protocols,
    "adversaries": _cmd_adversaries,
    "links": _cmd_links,
    "engines": _cmd_engines,
    "transports": _cmd_transports,
    "codecs": _cmd_codecs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
