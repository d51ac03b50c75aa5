"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run a registered protocol (default: ss-Byz-Clock-Sync) from
  scrambled memory and print the per-beat clock table;
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
* ``trace`` — JSONL trace tooling (see :mod:`repro.obs`): ``inspect``
  summarizes a trace, ``diff`` reports the first divergent beat between
  two traces (non-zero exit on mismatch — the differential suites' byte
  compare as a command), ``metrics`` renders a ``--metrics-out``
  document as JSON or Prometheus text;
* ``protocols``, ``adversaries``, ``links``, ``engines``, ``transports``,
  ``codecs`` — list one registry each: the names the flags above accept.

The scenario flags (``--n --f --k --protocol --coin --adversary --seed
--beats --engine --link --link-param --churn --no-early-stop --timing``)
are declared once, in :func:`_add_scenario_arguments`, with every
``choices=`` read from the registries: ``run``, ``campaign``
and ``runtime`` accept ``--protocol`` to select any registered protocol
(``campaign`` takes several — a grid axis); ``run`` and ``campaign``
accept ``--engine`` to pick a simulation engine (the live runtime owns
its own message plane) and ``--link`` (with ``--link-param k=v``) to
degrade the network: bounded delay, omission loss, scheduled partitions,
or waypoint mobility — plus ``--churn BEAT:KIND:IDS`` membership events
(crash, recover, join, leave) and ``--timing RHO:DMIN:DMAX:PERIOD``,
continuous time with drifting clocks and delays (one value on ``run``, a
grid axis on ``campaign``).  Every command describes its run as a
:class:`~repro.analysis.campaign.ScenarioSpec` and is deterministic given
``--seed`` (campaigns: given the seed range, at any worker count, under
any link model or churn schedule).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import time
from typing import Sequence

from repro.analysis import render_table, run_trial, table1_comparison
from repro.analysis.campaign import (
    ADVERSARY_REGISTRY,
    COIN_REGISTRY,
    LINK_REGISTRY,
    PROTOCOL_REGISTRY,
    ScenarioSpec,
    campaign_to_json,
    iter_campaign,
    scenario_grid,
)
from repro.core.pipeline import CoinFlipPipeline
from repro.core.protocol import DEFAULT_PROTOCOL
from repro.errors import ConfigurationError, TransportError
from repro.faults.dynamic import parse_churn_events
from repro.net.engine import DEFAULT_ENGINE, ENGINES
from repro.net.linkmodel import LINK_MODELS, normalize_link_params
from repro.net.simulator import Simulation
from repro.obs import (
    MetricsRegistry,
    diff_records,
    read_trace,
    render_prometheus,
    summarize_trace,
    validate_metrics_json,
)
from repro.runtime import (
    CODECS,
    DEFAULT_CODEC,
    DEFAULT_TRANSPORT,
    TRANSPORTS,
    load_specs,
    run_cluster,
    run_runtime,
)

__all__ = ["build_parser", "main"]


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


#: The scenario flags every simulated run takes; ``runtime`` takes the
#: first eight (it owns its message plane — no engine, link model, churn
#: or timing model — and always runs its whole budget).
_SCENARIO_FLAGS = (
    "n", "f", "k", "protocol", "coin", "adversary", "seed", "beats",
    "engine", "link", "link-param", "churn", "no-early-stop", "timing",
)


def _add_scenario_arguments(
    parser: argparse.ArgumentParser,
    flags: Sequence[str],
    *,
    grid: bool = False,
    **defaults: object,
) -> None:
    """Attach the scenario flags named in ``flags`` to a subcommand.

    The one declaration of the flags that describe a run (the fields of
    :class:`~repro.analysis.campaign.ScenarioSpec`): a subcommand names
    the subset it takes and, in ``defaults``, the defaults it overrides.
    With ``grid`` the axes a campaign sweeps (``--n --k --protocol
    --adversary --link --timing``) take several values and ``--f`` pins
    one fault parameter per ``--n``.  Every ``choices=`` is read from its
    registry at parser-build time, so a newly registered name is accepted
    by every subcommand at once.
    """
    declared = {
        "n": dict(type=int, default=7, help="number of nodes"),
        "f": dict(type=int, default=2, help="fault parameter (f < n/3)"),
        "k": dict(type=int, default=60, help="clock modulus"),
        "protocol": dict(
            default=DEFAULT_PROTOCOL, choices=sorted(PROTOCOL_REGISTRY),
            help="registered protocol (see `repro protocols`)",
        ),
        "coin": dict(
            default="oracle", choices=sorted(COIN_REGISTRY),
            help="coin algorithm (only protocols that use a coin)",
        ),
        "adversary": dict(
            default="none", choices=sorted(ADVERSARY_REGISTRY),
            help="Byzantine strategy (see `repro adversaries`)",
        ),
        "seed": dict(type=int, default=0, help="random seed"),
        "beats": dict(type=int, default=200, help="beat budget"),
        "engine": dict(
            default=DEFAULT_ENGINE, choices=sorted(ENGINES),
            help="simulation engine (see `repro engines`)",
        ),
        "link": dict(
            default="perfect", choices=sorted(LINK_REGISTRY),
            help="link-condition model (see `repro links`)",
        ),
        "link-param": dict(
            action="append", default=[], type=_parse_link_param,
            metavar="KEY=VALUE",
            help="link model parameter (repeatable), e.g. --link-param "
                 "max_delay=2, --link-param loss=0.1, --link-param heal=30"
                 + ("; each model on the grid axis takes the parameters "
                    "its constructor accepts" if grid else ""),
        ),
        "churn": dict(
            action="append", default=[], metavar="BEAT:KIND:IDS",
            help="membership event (repeatable): kind is crash, recover, "
                 "join or leave, e.g. --churn 25:crash:0,1 --churn "
                 "40:recover:0,1"
                 + ("; applies to every scenario on the grid" if grid else ""),
        ),
        "no-early-stop": dict(
            action="store_true",
            help="always run the full --beats budget (a `run --trace` then "
                 "has exactly --beats records, diffable against a runtime "
                 "trace of the same seed)",
        ),
        "timing": dict(
            default=None, metavar="RHO:DMIN:DMAX:PERIOD",
            help="continuous-time mode: run with clock drift RHO, message "
                 "delays in [DMIN, DMAX] and pulse period PERIOD "
                 "(incompatible with --link/--churn/--engine)",
        ),
    }
    for flag in flags:
        kwargs = declared[flag]
        if grid and flag in ("n", "k", "protocol", "adversary", "link"):
            kwargs.update(
                nargs="+", default=[kwargs["default"]],
                help=f"{kwargs['help']} (grid axis)",
            )
        elif grid and flag == "f":
            kwargs.update(
                nargs="*", default=None,
                help="fault parameters, one per --n (default ⌊(n-1)/3⌋)",
            )
        elif grid and flag == "timing":
            kwargs.update(
                nargs="+",
                help=f"{kwargs['help']} (grid axis; replaces the lock-step "
                     "entry)",
            )
        if flag in defaults:
            kwargs["default"] = defaults[flag]
        parser.add_argument(f"--{flag}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser (also what
    ``tools/check_docs.py`` parses documented command lines with)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fast self-stabilizing Byzantine tolerant digital clock "
            "synchronization (Ben-Or, Dolev, Hoch; PODC 2008)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the clock from scrambled memory")
    _add_scenario_arguments(run, _SCENARIO_FLAGS)
    run.add_argument("--show", type=int, default=16, help="beats to print")
    run.add_argument(
        "--trace", dest="trace_path", default=None, metavar="FILE",
        help="write the per-beat clock trajectory as JSONL (the same "
             "format `repro runtime --trace` emits)",
    )

    table1 = commands.add_parser("table1", help="regenerate the paper's Table 1")
    _add_scenario_arguments(table1, ("n", "f", "k", "beats"), k=4, beats=400)
    table1.add_argument("--seeds", type=int, default=5)

    runtime = commands.add_parser(
        "runtime",
        help="run the protocol live: concurrent node tasks over a transport",
    )
    _add_scenario_arguments(
        runtime, _SCENARIO_FLAGS[:8], n=4, f=1, k=8, beats=60
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
    _add_scenario_arguments(
        coin, ("n", "f", "coin", "adversary", "seed", "beats"),
        n=4, f=1, coin="gvss", beats=30,
    )

    campaign = commands.add_parser(
        "campaign",
        help="run a parallel experiment campaign over a scenario grid",
    )
    _add_scenario_arguments(
        campaign,
        [flag for flag in _SCENARIO_FLAGS if flag != "seed"],
        grid=True, n=[4, 7, 10], k=[8], beats=500,
    )
    campaign.add_argument(
        "--seeds", type=int, default=10, help="trials per scenario"
    )
    campaign.add_argument(
        "--seed-base", type=int, default=0, help="first seed of the range"
    )
    campaign.add_argument(
        "--scramble-beats", type=int, nargs="*", default=[],
        help="mid-run fault schedule: re-scramble all correct nodes "
             "before these beats",
    )
    campaign.add_argument("--closure-window", type=int, default=12)
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

    for name in _LISTINGS:
        commands.add_parser(name, help=f"list the built-in {name}")
    return parser


def _write_trace(result, path: str, indent: str = "") -> None:
    """Write a result's JSONL trace to ``path`` and say so."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.to_jsonl())
    print(f"{indent}wrote {len(result.records)}-beat trace to {path}")


def _write_metrics(registry, path: str, fmt: str = "json") -> None:
    """Write a metrics registry to ``path`` as JSON or Prometheus text."""
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "prometheus":
            handle.write(registry.to_prometheus())
        else:
            json.dump(registry.to_json(), handle, indent=2)
            handle.write("\n")


def _convergence_footer(
    result, beats: int, converged: str, failed: str = "", indent: str = ""
) -> int:
    """Print a run's last line; the exit code says whether it converged."""
    if result.converged_beat is None:
        print(f"{indent}did not converge within {beats} beats{failed}")
        return 1
    print(f"{indent}converged at beat {result.converged_beat} ({converged})")
    return 0


def _scenario(args: argparse.Namespace, **fields: object) -> ScenarioSpec:
    """The run the scenario flags describe, as the one named spec."""
    return ScenarioSpec(
        n=args.n,
        f=args.f,
        k=args.k,
        protocol=args.protocol,
        coin=args.coin,
        adversary=args.adversary,
        max_beats=args.beats,
        **fields,
    )


def _scenario_text(args: argparse.Namespace) -> str:
    """The header both single-run commands open their report with."""
    uses_coin = PROTOCOL_REGISTRY[args.protocol].uses_coin
    return (
        f"{args.protocol} n={args.n} f={args.f} k={args.k}"
        f"{f' coin={args.coin}' if uses_coin else ''} "
        f"adversary={args.adversary} seed={args.seed}"
    )


def _churn(args: argparse.Namespace) -> tuple:
    """The ``--churn`` events in the normalized form a spec carries."""
    return parse_churn_events(args.churn).normalized() if args.churn else ()


def _print_beats(result, show: int) -> None:
    """The first ``show`` beats of any result, one clock row each."""
    for beat, values in enumerate(result.history[:show]):
        cells = " ".join(
            f"{v:>4}" if v is not None else "   ⊥" for v in values
        )
        print(f"  beat {beat:>3} | {cells}")


def _cmd_run(args: argparse.Namespace) -> int:
    link_params = dict(args.link_param)
    timing = _parse_timing(args.timing) if args.timing else ()
    spec = _scenario(
        args,
        early_stop=not args.no_early_stop,
        engine=args.engine,
        link=args.link,
        link_params=normalize_link_params(link_params),
        churn=_churn(args),
        timing=timing,
    )
    result = run_trial(spec, args.seed, trace=args.trace_path is not None)
    link_note = "" if args.link == "perfect" else f" link={args.link}{link_params}"
    churn_note = f" churn={','.join(args.churn)}" if args.churn else ""
    timing_note = ""
    if timing:
        timing_note = (
            f" timing[rho={timing[0]},d={timing[1]}-{timing[2]},"
            f"period={timing[3]}]"
        )
    print(f"{_scenario_text(args)}{link_note}{churn_note}{timing_note}")
    _print_beats(result, args.show)
    if args.trace_path:
        _write_trace(result, args.trace_path)
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
    return _convergence_footer(
        result, args.beats,
        f"{result.total_messages} messages total{casualties}", casualties,
    )


def _skew_text(result) -> str:
    skew = result.pulse_skew_s
    return "n/a" if skew is None else f"{skew * 1000:.2f}ms"


def _cmd_runtime(args: argparse.Namespace) -> int:
    registry = MetricsRegistry() if args.metrics_path else None
    spec = _scenario(args)
    spec.validate()
    result = run_runtime(
        args.n,
        args.f,
        spec.root_factory(),
        adversary=spec.build_adversary(),
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
    sync_note = ""
    if result.sync == "pulse":
        sync_note = f" sync=pulse period={args.pulse_period} rho={args.drift}"
    print(
        f"live {_scenario_text(args)} "
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
        _write_trace(result, args.trace_path)
    if args.metrics_path:
        _write_metrics(registry, args.metrics_path, args.metrics_format)
        print(f"wrote {args.metrics_format} metrics to {args.metrics_path}")
    casualties = ""
    if result.late_messages or result.barrier_timeouts:
        casualties = (
            f", {result.late_messages} late messages dropped / "
            f"{result.barrier_timeouts} barrier timeouts"
        )
    rate = (
        f"{result.beats_per_sec:.0f} beats/s, "
        f"{result.messages_per_sec:.0f} msgs/s{casualties}"
    )
    return _convergence_footer(
        result, args.beats,
        f"{result.messages_sent} messages, {rate}", f" ({rate})",
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    specs = load_specs(args.spec_path)
    if args.only is not None:
        specs = tuple(s for s in specs if s.name == args.only)
        if not specs:
            raise ConfigurationError(
                f"no experiment named {args.only!r} in {args.spec_path}"
            )
    if args.codec is not None:
        specs = tuple(dataclasses.replace(s, codec=args.codec) for s in specs)
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
            _write_trace(
                result, os.path.join(args.trace_dir, f"{spec.name}.jsonl"),
                indent="  ",
            )
        if args.metrics_dir:
            os.makedirs(args.metrics_dir, exist_ok=True)
            metrics_path = os.path.join(
                args.metrics_dir, f"{spec.name}.metrics.json"
            )
            _write_metrics(result.metrics, metrics_path)
            print(f"  wrote merged worker metrics to {metrics_path}")
        rate = (
            f"{result.beats_per_sec:.0f} beats/s, "
            f"{result.messages_per_sec:.0f} msgs/s, "
            f"{result.frames_sent} wire frames"
        )
        exit_code |= _convergence_footer(
            result, spec.beats,
            f"{result.messages_sent} messages, {rate}", f" ({rate})",
            indent="  ",
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
    # The coin stream has no clock: k is unused.
    spec = ScenarioSpec(
        n=args.n, f=args.f, k=2, coin=args.coin, adversary=args.adversary
    )
    spec.validate()
    adversary = spec.build_adversary()
    algorithm = spec.coin_factory()()
    sim = Simulation(
        args.n,
        args.f,
        lambda i: CoinFlipPipeline(algorithm),
        adversary=adversary,
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
    timings = (
        tuple(_parse_timing(value) for value in args.timing)
        if args.timing
        else ((),)
    )
    specs = scenario_grid(
        args.n,
        ks=args.k,
        adversaries=args.adversary,
        links=_link_axis(args.link, dict(args.link_param)),
        protocols=args.protocol,
        fs=args.f,
        coin=args.coin,
        max_beats=args.beats,
        scramble_beats=tuple(args.scramble_beats),
        early_stop=not args.no_early_stop,
        closure_window=args.closure_window,
        engine=args.engine,
        churn=_churn(args),
        timings=timings,
    )
    for spec in specs:  # a bad grid fails before the header line
        spec.validate()
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


def _first_doc_line(obj: object) -> str:
    return (obj.__doc__ or "").strip().splitlines()[0]


#: Listing command -> (registry, describe(entry), default name).
_LISTINGS = {
    "protocols": (
        PROTOCOL_REGISTRY, lambda protocol: protocol.describe(),
        DEFAULT_PROTOCOL,
    ),
    "adversaries": (
        ADVERSARY_REGISTRY,
        lambda cls: "fault-free" if cls is None else _first_doc_line(cls),
        None,
    ),
    "links": (LINK_MODELS, _first_doc_line, None),
    "engines": (
        ENGINES, lambda engine_cls: engine_cls.description, DEFAULT_ENGINE,
    ),
    "transports": (TRANSPORTS, _first_doc_line, DEFAULT_TRANSPORT),
    "codecs": (CODECS, lambda codec: codec.describe(), DEFAULT_CODEC),
}


def _cmd_listing(args: argparse.Namespace) -> int:
    registry, describe, default = _LISTINGS[args.command]
    width = max(12, max(map(len, registry)) + 1)
    for name, entry in sorted(registry.items()):
        marker = "  (default)" if name == default else ""
        print(f"  {name:<{width}} {describe(entry)}{marker}")
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
    try:
        return read_trace(_read_text(path))
    except (ValueError, KeyError, TypeError) as error:
        raise ConfigurationError(
            f"{path!r} is not a JSONL trace: {error}"
        ) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "inspect":
        trace = _parse_trace(args.path)
        summary = summarize_trace(trace, k=args.k)
        print(f"trace {args.path}")
        print(summary.describe())
        if args.series is not None:
            series = [
                record.values.get(args.series) for record in trace.records
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


_HANDLERS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "coin": _cmd_coin,
    "campaign": _cmd_campaign,
    "runtime": _cmd_runtime,
    "cluster": _cmd_cluster,
    "trace": _cmd_trace,
    **dict.fromkeys(_LISTINGS, _cmd_listing),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    A :class:`ConfigurationError` from any command — a bad grid, spec
    file, link parameter, trace file — is reported on stderr as exit 2,
    argparse's own code for a command line it cannot accept.
    """
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
